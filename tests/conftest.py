import math
import random

from hypothesis import settings
from hypothesis import strategies as st

from agiecon import CobbDouglasTechnology, FactorBundle, SampleTable
from agiecon.diagnostics import _random_instance

FACTOR_POOL = ("K", "K_AGI", "L_h", "L_AGI", "M")

# Deeper runs of the differential properties, loaded only on request:
# pytest --hypothesis-profile=thorough tests/test_scenario.py tests/test_transition.py \
#     tests/test_svg.py tests/test_cli.py::TestSampleReader \
#     tests/test_models.py::TestClassifyLimit
settings.register_profile("thorough", max_examples=1000, deadline=None)


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


def sample_table(names, rows):
    """The ``SampleTable`` of ``(Y, x_1, ..., x_n)`` rows, one x per name."""
    columns = list(zip(*rows)) or [()] * (len(names) + 1)
    return SampleTable(
        output=list(columns[0]),
        factors={name: list(column) for name, column in zip(names, columns[1:])},
    )


def synthetic_table(rng, n, tfp, elasticities, quantity_range=(0.5, 5.0), noise_sigma=0.0):
    """``n`` samples of ``Y = tfp * prod x**e``, quantities drawn uniformly
    from ``quantity_range``, with log-normal noise of ``noise_sigma``."""
    rows = []
    for _ in range(n):
        quantities = [rng.uniform(*quantity_range) for _ in elasticities]
        y = tfp
        for quantity, exponent in zip(quantities, elasticities.values()):
            y *= quantity ** exponent
        if noise_sigma > 0.0:
            y *= math.exp(rng.gauss(0.0, noise_sigma))
        rows.append((y, *quantities))
    return sample_table(tuple(elasticities), rows)
