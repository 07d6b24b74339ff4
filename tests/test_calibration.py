import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agiecon import (
    ContractViolationError,
    DomainError,
    EconError,
    FactorBundle,
    NonFiniteOutputError,
    RankDeficiencyError,
    Sample,
    SampleTable,
    fit_cobb_douglas,
)
from agiecon.cli import _read_samples


def generate_samples(n, seed, tfp, elasticities, quantity_range=(0.5, 5.0), noise_sigma=0.0):
    rng = random.Random(seed)
    samples = []
    for _ in range(n):
        quantities = {name: rng.uniform(*quantity_range) for name in elasticities}
        y = tfp
        for name, exponent in elasticities.items():
            y *= quantities[name] ** exponent
        if noise_sigma > 0.0:
            y *= math.exp(rng.gauss(0.0, noise_sigma))
        samples.append(Sample(FactorBundle(tuple(quantities.items())), y))
    return samples


def log_space_rss(samples, factor_names, tfp, elasticities):
    total = 0.0
    for sample in samples:
        predicted = math.log(tfp) + sum(
            elasticities[name] * math.log(sample.bundle.quantity(name)) for name in factor_names
        )
        total += (math.log(sample.output) - predicted) ** 2
    return total


class TestFit:
    def test_two_samples_hand_solvable(self):
        # ln Y = ln 2 + 0.5 ln x passes exactly through both points
        samples = [
            Sample(FactorBundle.of(x=1.0), 2.0),
            Sample(FactorBundle.of(x=math.e), 2.0 * math.exp(0.5)),
        ]
        result = fit_cobb_douglas(samples, ["x"])
        assert result.tfp_estimate == pytest.approx(2.0, abs=1e-10)
        assert result.elasticity_estimates["x"] == pytest.approx(0.5, abs=1e-10)
        assert result.residual_sum_squares <= 1e-20
        assert result.sample_count == 2

    def test_noiseless_round_trip(self):
        truth = {"K": 0.5, "L": 0.3}
        samples = generate_samples(200, seed=42, tfp=2.0, elasticities=truth)
        result = fit_cobb_douglas(samples, ["K", "L"])
        assert result.tfp_estimate == pytest.approx(2.0, abs=1e-8)
        for name, value in truth.items():
            assert result.elasticity_estimates[name] == pytest.approx(value, abs=1e-8)

    def test_three_factor_round_trip(self):
        truth = {"K": 0.4, "L_h": 0.35, "L_AGI": 0.2}
        samples = generate_samples(200, seed=7, tfp=1.3, elasticities=truth)
        result = fit_cobb_douglas(samples, ["K", "L_h", "L_AGI"])
        assert result.tfp_estimate == pytest.approx(1.3, abs=1e-8)
        for name, value in truth.items():
            assert result.elasticity_estimates[name] == pytest.approx(value, abs=1e-8)

    def test_noise_keeps_estimates_close(self):
        truth = {"K": 0.5, "L": 0.3}
        samples = generate_samples(1000, seed=11, tfp=2.0, elasticities=truth, noise_sigma=0.01)
        result = fit_cobb_douglas(samples, ["K", "L"])
        for name, value in truth.items():
            assert abs(result.elasticity_estimates[name] - value) <= 0.02

    def test_collinear_factors_rejected(self):
        rng = random.Random(3)
        samples = []
        for _ in range(20):
            k = rng.uniform(0.5, 5.0)
            samples.append(Sample(FactorBundle.of(K=k, L=2.0 * k), 3.0 * k))
        with pytest.raises(RankDeficiencyError):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_constant_factor_rejected(self):
        rng = random.Random(4)
        samples = [
            Sample(FactorBundle.of(K=rng.uniform(0.5, 5.0), L=2.0), rng.uniform(1.0, 3.0))
            for _ in range(20)
        ]
        with pytest.raises(RankDeficiencyError):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_tfp_past_the_float_range_is_an_error(self):
        # ln A = 744.4 / ln 1.5 * ln 2, far past ln of the largest float
        samples = [
            Sample(FactorBundle.of(K=3.0), 5e-324),
            Sample(FactorBundle.of(K=2.0), 1.0),
        ]
        with pytest.raises(NonFiniteOutputError, match="overflows a float"):
            fit_cobb_douglas(samples, ["K"])

    def test_residual_optimality(self):
        truth = {"K": 0.5, "L": 0.3}
        samples = generate_samples(300, seed=21, tfp=2.0, elasticities=truth, noise_sigma=0.05)
        result = fit_cobb_douglas(samples, ["K", "L"])
        base = log_space_rss(samples, ["K", "L"], result.tfp_estimate, result.elasticity_estimates)
        assert base == pytest.approx(result.residual_sum_squares, rel=1e-9)
        for delta in (1e-3, -1e-3):
            bumped_tfp = math.exp(math.log(result.tfp_estimate) + delta)
            assert log_space_rss(samples, ["K", "L"], bumped_tfp, result.elasticity_estimates) >= base
            for name in truth:
                bumped = dict(result.elasticity_estimates)
                bumped[name] += delta
                assert log_space_rss(samples, ["K", "L"], result.tfp_estimate, bumped) >= base

    def test_needs_factors_plus_one_samples(self):
        samples = generate_samples(2, seed=5, tfp=1.0, elasticities={"K": 0.5, "L": 0.3})
        with pytest.raises(ContractViolationError):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_missing_factor_in_sample(self):
        samples = [
            Sample(FactorBundle.of(K=1.0), 2.0),
            Sample(FactorBundle.of(K=2.0), 3.0),
            Sample(FactorBundle.of(K=3.0), 4.0),
        ]
        with pytest.raises(ContractViolationError):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_deterministic_for_fixed_order(self):
        truth = {"K": 0.5, "L": 0.3}
        samples = generate_samples(50, seed=13, tfp=2.0, elasticities=truth, noise_sigma=0.1)
        first = fit_cobb_douglas(samples, ["K", "L"])
        second = fit_cobb_douglas(samples, ["K", "L"])
        assert first == second


class TestSampleValidation:
    def test_rejects_zero_output(self):
        with pytest.raises(DomainError):
            Sample(FactorBundle.of(K=1.0), 0.0)

    def test_rejects_zero_quantity(self):
        with pytest.raises(DomainError):
            Sample(FactorBundle.of(K=0.0), 1.0)


def fit_outcome(samples, factor_names):
    try:
        return fit_cobb_douglas(samples, factor_names)
    except EconError as exc:
        return type(exc), str(exc)


class TestSampleTable:
    def test_of_is_the_identity_on_a_table(self):
        table = SampleTable(output=[1.0, 2.0], factors={"K": [1.0, 3.0], "L": [2.0, 4.0]})
        assert SampleTable.of(table, ("L",)) is table

    def test_of_needs_every_named_factor(self):
        table = SampleTable(output=[1.0, 2.0, 3.0], factors={"K": [1.0, 3.0, 5.0]})
        with pytest.raises(ContractViolationError, match="no factor 'L'"):
            fit_cobb_douglas(table, ["K", "L"])

    def test_of_samples_takes_the_named_columns(self):
        samples = [Sample(FactorBundle.of(K=1.0, L=2.0, M=5.0), 3.0),
                   Sample(FactorBundle.of(L=4.0, K=6.0), 7.0)]
        table = SampleTable.of(samples, ("L", "K"))
        assert table == SampleTable(output=[3.0, 7.0], factors={"L": [2.0, 4.0], "K": [1.0, 6.0]})
        assert len(table) == 2

    @pytest.mark.parametrize("column", ["Y", "K", "L"])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_rejects_as_the_first_bad_row_would(self, column, bad):
        columns = {"Y": [2.0, 3.0, 4.0, 5.0], "K": [1.0, 2.0, 3.0, 4.0], "L": [4.0, 3.0, 2.0, 1.0]}
        columns[column][2] = bad
        columns["L"][3] = -1.0  # a later bad row must not be the one reported
        with pytest.raises(DomainError) as expected:
            Sample(FactorBundle((("K", columns["K"][2]), ("L", columns["L"][2]))), columns["Y"][2])
        with pytest.raises(DomainError) as got:
            SampleTable(output=columns["Y"], factors={"K": columns["K"], "L": columns["L"]})
        assert str(got.value) == str(expected.value)

    def test_overflowing_column_sum_is_still_valid(self):
        # the column test is only sufficient: a sum that overflows sends the
        # table to the row scan, which finds every row valid
        table = SampleTable(output=[1e308, 1e308, 1.0], factors={"K": [1.0, 2.0, 3.0]})
        assert len(table) == 3

    def test_columns_must_have_one_length(self):
        with pytest.raises(ContractViolationError):
            SampleTable(output=[1.0, 2.0], factors={"K": [1.0]})

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
            min_size=0,
            max_size=30,
        ),
        st.sampled_from([("K", "L"), ("L", "K"), ("K",)]),
    )
    def test_sample_list_and_cli_table_fit_the_same_bits(self, rows, factor_names):
        samples = [Sample(FactorBundle.of(K=k, L=l), y) for y, k, l in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            lines = ["Y,K,L"] + [",".join(map(repr, row)) for row in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            table = _read_samples(path, factor_names)
        assert table == SampleTable.of(samples, factor_names)
        assert fit_outcome(table, factor_names) == fit_outcome(samples, factor_names)
