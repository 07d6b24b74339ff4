"""``fit_cobb_douglas`` against ``numpy.linalg.lstsq(rcond=1e-10)``.

numpy is a test dependency only: it is the oracle here, run on the same
log design the fit builds (the same ``math.log`` bits).  The seeded designs
set their conditioning by how nearly the last log-factor is an affine
combination of the others: ``delta`` is the size of what is left.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agiecon import RankDeficiencyError, calibration, fit_cobb_douglas
from conftest import sample_table

EPS = sys.float_info.epsilon
NAMES = ("K", "L", "H", "E")


def conditioned_table(seed, n, n_factors, delta, noise):
    """``n`` samples whose last log-factor is an affine combination of the
    other log-factors plus ``delta`` times uniform noise, with log-output
    linear in the log-factors plus Gaussian noise of ``noise``."""
    rng = random.Random(seed)
    logs = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n_factors - 1)]
    weights = [rng.uniform(0.2, 0.8) for _ in logs]
    offset = rng.uniform(-0.5, 0.5)
    logs.append(
        [
            offset + sum(w * column[i] for w, column in zip(weights, logs)) + delta * rng.uniform(-1.0, 1.0)
            for i in range(n)
        ]
    )
    log_tfp = rng.uniform(-1.0, 1.0)
    elasticities = [rng.uniform(0.05, 0.6) for _ in logs]
    rows = []
    for i in range(n):
        log_y = log_tfp + sum(e * column[i] for e, column in zip(elasticities, logs))
        log_y += noise * rng.gauss(0.0, 1.0)
        rows.append((math.exp(log_y), *(math.exp(column[i]) for column in logs)))
    names = NAMES[:n_factors]
    return sample_table(names, rows), names


class Oracle:
    """lstsq's coefficients (intercept first), rss, rank and conditioning."""

    def __init__(self, table, names):
        columns = [np.fromiter(map(math.log, table.factors[name]), float) for name in names]
        design = np.column_stack([np.ones(len(table)), *columns])
        target = np.fromiter(map(math.log, table.output), float)
        coefficients, _, self.rank, sigma = np.linalg.lstsq(design, target, rcond=1e-10)
        residual = design @ coefficients - target
        self.coefficients = coefficients
        self.rss = float(residual @ residual)
        self.n_params = design.shape[1]
        self.ratio = float(sigma[-1] / sigma[0])  # sigma_min / sigma_max
        self.target_norm = float(np.linalg.norm(target))


def fitted_coefficients(result, names):
    return np.array([math.log(result.tfp_estimate), *(result.elasticity_estimates[n] for n in names)])


@pytest.fixture
def qr_calls(monkeypatch):
    """The number of fits that took the Householder QR path."""
    calls = []
    householder = calibration._householder

    def counting(*args):
        calls.append(1)
        return householder(*args)

    monkeypatch.setattr(calibration, "_householder", counting)
    return calls


def assert_agrees(result, oracle, names, bound):
    """Coefficients within ``bound`` of lstsq's, relative to their norm;
    rss within ``bound`` relative, or within the square of the residual's
    own rounding where the fit is exact."""
    got = fitted_coefficients(result, names)
    error = np.linalg.norm(got - oracle.coefficients) / np.linalg.norm(oracle.coefficients)
    assert error <= bound
    rounding = 64.0 * EPS * oracle.target_norm / oracle.ratio
    assert result.residual_sum_squares == pytest.approx(oracle.rss, rel=bound, abs=rounding**2)


# Cholesky-path designs: sigma_min / sigma_max from about 1 down to 3e-5.
# One step of refinement brings the normal equations to lstsq's accuracy
# here; without it their error grows with the squared condition number,
# about 1e-8 at the small end.
WELL_CONDITIONED_BOUND = 1e-10


@pytest.mark.parametrize("n_factors", [1, 2, 4])
@pytest.mark.parametrize("delta", [1.0, 1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_well_conditioned_designs_agree_with_lstsq(seed, delta, n_factors, qr_calls):
    table, names = conditioned_table(seed, 400, n_factors, delta, noise=1e-3)
    oracle = Oracle(table, names)
    assert 2e-5 <= oracle.ratio and oracle.rank == oracle.n_params
    assert_agrees(fit_cobb_douglas(table, names), oracle, names, WELL_CONDITIONED_BOUND)
    assert qr_calls == []


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.tuples(*[st.floats(0.05, 20.0)] * (k + 1)), min_size=k + 1, max_size=40
        )
    )
)
def test_random_designs_agree_with_lstsq(rows):
    names = NAMES[: len(rows[0]) - 1]
    table = sample_table(names, rows)
    oracle = Oracle(table, names)
    assume(oracle.ratio >= 1e-3)
    assert_agrees(fit_cobb_douglas(table, names), oracle, names, WELL_CONDITIONED_BOUND)


# Designs between sigma_min / sigma_max = 1e-9 and 1e-6 go to Householder QR.
# Both solvers are backward stable there, so they agree to a multiple of
# the condition number times the unit roundoff.
@pytest.mark.parametrize("n_factors", [1, 3])
@pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("seed", [4, 5])
def test_ill_conditioned_designs_fall_back_and_agree_with_lstsq(seed, delta, n_factors, qr_calls):
    table, names = conditioned_table(seed, 300, n_factors, delta, noise=1e-4)
    oracle = Oracle(table, names)
    assert 1e-9 <= oracle.ratio <= 1e-6 and oracle.rank == oracle.n_params
    assert_agrees(fit_cobb_douglas(table, names), oracle, names, 64.0 * EPS / oracle.ratio)
    assert qr_calls == [1]


@pytest.mark.parametrize("n_factors", [1, 3])
@pytest.mark.parametrize("delta", [0.0, 1e-13])
@pytest.mark.parametrize("seed", [6, 7])
def test_numerically_singular_designs_are_rejected_as_lstsq_rejects_them(seed, delta, n_factors):
    table, names = conditioned_table(seed, 200, n_factors, delta, noise=1e-2)
    oracle = Oracle(table, names)
    assert oracle.ratio < 1e-11 and oracle.rank < oracle.n_params
    message = f"design matrix rank {oracle.rank} < {oracle.n_params}"
    with pytest.raises(RankDeficiencyError, match=message):
        fit_cobb_douglas(table, names)
