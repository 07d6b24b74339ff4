import random

from hypothesis import strategies as st

from agiecon import CobbDouglasTechnology, FactorBundle
from agiecon.diagnostics import _random_instance

FACTOR_POOL = ("K", "K_AGI", "L_h", "L_AGI", "M")


@st.composite
def tech_bundles(draw, min_factors=1, max_factors=4):
    count = draw(st.integers(min_factors, max_factors))
    names = FACTOR_POOL[:count]
    tech = CobbDouglasTechnology(
        draw(st.floats(0.5, 3.0)),
        tuple((name, draw(st.floats(0.05, 1.0))) for name in names),
    )
    bundle = FactorBundle(tuple((name, draw(st.floats(0.1, 10.0))) for name in names))
    return tech, bundle


def seeded_instances(n: int, seed: int):
    """Deterministic random technologies/bundles, quantities in [0.1, 10],
    exponents in [0.05, 1]."""
    rng = random.Random(seed)
    return [_random_instance(rng) for _ in range(n)]
