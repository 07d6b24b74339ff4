import itertools
import math
import random
import re
import sys
import tempfile
from itertools import repeat
from operator import mul, sub
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agiecon import (
    ConfigError,
    ContractViolationError,
    DomainError,
    EconError,
    FactorBundle,
    NonFiniteOutputError,
    RankDeficiencyError,
    SampleTable,
    calibration,
    fit_cobb_douglas,
)
from agiecon.calibration import MAX_FACTORS, read_samples
from conftest import sample_table, synthetic_table


def generate_samples(n, seed, tfp, elasticities, quantity_range=(0.5, 5.0), noise_sigma=0.0):
    rng = random.Random(seed)
    return synthetic_table(rng, n, tfp, elasticities, quantity_range, noise_sigma)


def log_space_rss(table, factor_names, tfp, elasticities):
    total = 0.0
    for i, y in enumerate(table.output):
        predicted = math.log(tfp) + sum(
            elasticities[name] * math.log(table.factors[name][i]) for name in factor_names
        )
        total += (math.log(y) - predicted) ** 2
    return total


class TestFit:
    def test_no_factor_names_violates_contract(self):
        samples = sample_table(("x",), [(2.0, 1.0), (3.0, 2.0)])
        with pytest.raises(ContractViolationError, match="^factor_names must not be empty$"):
            fit_cobb_douglas(samples, [])

    def test_two_samples_hand_solvable(self):
        # ln Y = ln 2 + 0.5 ln x passes exactly through both points
        samples = sample_table(("x",), [(2.0, 1.0), (2.0 * math.exp(0.5), math.e)])
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
        ks = [rng.uniform(0.5, 5.0) for _ in range(20)]
        samples = sample_table(("K", "L"), [(3.0 * k, k, 2.0 * k) for k in ks])
        with pytest.raises(RankDeficiencyError):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_constant_factor_rejected(self):
        rng = random.Random(4)
        rows = []
        for _ in range(20):
            k = rng.uniform(0.5, 5.0)
            rows.append((rng.uniform(1.0, 3.0), k, 2.0))
        samples = sample_table(("K", "L"), rows)
        with pytest.raises(RankDeficiencyError):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_tfp_past_the_float_range_is_an_error(self):
        # ln A = 744.4 / ln 1.5 * ln 2, far past ln of the largest float
        samples = sample_table(("K",), [(5e-324, 3.0), (1.0, 2.0)])
        with pytest.raises(NonFiniteOutputError, match="overflows a float"):
            fit_cobb_douglas(samples, ["K"])

    def test_tfp_below_the_float_range_is_an_error(self):
        # Y = 1e-610 * K: ln A = -1404.6, and exp of it rounds to 0
        samples = sample_table(("K",), [(10.0**-t, 10.0**(610 - t)) for t in range(310, 314)])
        with pytest.raises(NonFiniteOutputError, match="underflows a float"):
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

    def test_more_factors_than_the_bound_are_a_domain_error(self):
        # checked before the table, so no column need exist for them
        samples = sample_table(("x",), [(2.0, 1.0), (3.0, 2.0)])
        names = [f"x{i}" for i in range(MAX_FACTORS + 1)]
        message = f"^a fit takes at most {MAX_FACTORS} factors, got {MAX_FACTORS + 1}$"
        with pytest.raises(DomainError, match=message):
            fit_cobb_douglas(samples, names)

    def test_needs_factors_plus_one_samples(self):
        samples = generate_samples(2, seed=5, tfp=1.0, elasticities={"K": 0.5, "L": 0.3})
        with pytest.raises(ContractViolationError):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_missing_factor_in_sample(self):
        samples = sample_table(("K",), [(2.0, 1.0), (3.0, 2.0), (4.0, 3.0)])
        with pytest.raises(ContractViolationError, match="no factor 'L'"):
            fit_cobb_douglas(samples, ["K", "L"])

    def test_long_sums_add_left_to_right(self):
        # sum() compensates float rounding from Python 3.12 on, which would
        # make a fit's last bits, and the fit golden, depend on the version
        assert calibration._sum([1.0, 1e-16, 1e-16]) == 1.0
        assert calibration._dot([3.0, 1.0, 1.0], [1.0 / 3.0, 1e-16, 1e-16]) == 1.0

    def test_reduce_sum_fits_the_same_bits(self, monkeypatch):
        # the fit's sum is builtin sum before Python 3.12 and _left_sum after;
        # both must add the same way
        truth = {"K": 0.4, "L": 0.3}
        samples = generate_samples(300, seed=3, tfp=1.5, elasticities=truth, noise_sigma=0.05)
        first = fit_cobb_douglas(samples, ["K", "L"])
        monkeypatch.setattr(calibration, "_sum", calibration._left_sum)
        # a table sums its logs when it is built
        samples = generate_samples(300, seed=3, tfp=1.5, elasticities=truth, noise_sigma=0.05)
        assert fit_cobb_douglas(samples, ["K", "L"]) == first

    def test_each_python_sums_left_to_right(self):
        # the premise of _sum's version fork, checked on the running interpreter
        rng = random.Random(11)
        values = [1e16, 1.0, -1e16]
        values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(200)]
        total = 0.0
        for value in values:
            total += value
        assert calibration._left_sum(values).hex() == total.hex()
        if sys.version_info >= (3, 12):
            assert calibration._sum is calibration._left_sum
            assert sum([1e16, 1.0, -1e16]) == 1.0  # compensated: left to right gives 0.0
        else:
            assert calibration._sum is sum
            assert sum(values).hex() == total.hex()

    def test_deterministic_for_fixed_order(self):
        truth = {"K": 0.5, "L": 0.3}
        samples = generate_samples(50, seed=13, tfp=2.0, elasticities=truth, noise_sigma=0.1)
        first = fit_cobb_douglas(samples, ["K", "L"])
        second = fit_cobb_douglas(samples, ["K", "L"])
        assert first == second


def nested_map_residual(columns, target, coefficients):
    """target - X b by one map of sub and one of mul per term: the reference
    the fit's compiled row kernel must match bit for bit."""
    intercept, *slopes = coefficients
    residual = map(sub, target, repeat(intercept))
    for slope, x in zip(slopes, columns):
        residual = map(sub, residual, map(mul, repeat(slope), x))
    return list(residual)


# signed zeros, the smallest and largest subnormals, and values whose
# products overflow to inf and whose differences of infs are nan
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300)


@st.composite
def design_cases(draw):
    """(columns, target, coefficients) for 1, 2, 5 or MAX_FACTORS factors and
    1 to 4 rows.  Every value comes from a small drawn pool, placed by a
    drawn seed, so that MAX_FACTORS columns fit in one example."""
    n_factors = draw(st.sampled_from([1, 2, 5, MAX_FACTORS]))
    n_rows = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = st.one_of(st.sampled_from(EDGE_VALUES), finite)
    pool = draw(st.lists(values, min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def column(length):
        return [rng.choice(pool) for _ in range(length)]

    return [column(n_rows) for _ in range(n_factors)], column(n_rows), column(n_factors + 1)


class TestRowKernel:
    @pytest.mark.parametrize("left_sum", [False, True], ids=["version_sum", "left_sum"])
    @settings(deadline=None)
    @given(design_cases(), st.integers(1, 5))
    def test_compiled_rows_match_the_nested_maps(self, left_sum, case, block_rows):
        # left_sum runs the sum that Python 3.12 and later use on any version;
        # X^T r made block_rows rows at a time has the bits of the whole sums
        # over the nested-map residual, with one block or several
        columns, target, coefficients = case
        reference = nested_map_residual(columns, target, coefficients)
        summed = calibration._left_sum if left_sum else calibration._sum
        want = [summed(reference), *(summed(map(mul, x, reference)) for x in columns)]
        with mock.patch.object(calibration, "_sum", summed), \
                mock.patch.object(calibration, "_BLOCK_ROWS", block_rows):
            got = calibration._transposed_residual(columns, target, coefficients)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            rss = calibration._rss(columns, target, coefficients)
            assert rss.hex() == calibration._dot(reference, reference).hex()


def jacobi_singular_values(r):
    """``_singular_values`` as it was before it carried the column norms: it
    takes both norms again by ``fsum`` for every pair.  The reference the
    routine must match bit for bit."""
    columns = [list(column) for column in zip(*r)]
    for _ in range(calibration._JACOBI_SWEEPS):
        rotated = False
        for i, j in itertools.combinations(range(len(columns)), 2):
            a, b = columns[i], columns[j]
            gamma = math.fsum(map(mul, a, b))
            alpha, beta = math.fsum(map(mul, a, a)), math.fsum(map(mul, b, b))
            if abs(gamma) <= sys.float_info.epsilon * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cos = 1.0 / math.hypot(1.0, t)
            sin = cos * t
            columns[i] = [cos * u - sin * v for u, v in zip(a, b)]
            columns[j] = [sin * u + cos * v for u, v in zip(a, b)]
        if not rotated:
            break
    return [math.sqrt(math.fsum(map(mul, column, column))) for column in columns]


@st.composite
def square_matrices(draw):
    """Square matrices of 1 to 24 rows, triangular as the fit's R or full,
    some with repeated columns.  Entries are finite and far below the square
    root of the float range, as any R of log factors is, with signed zeros
    and subnormals; each comes from a small drawn pool placed by a drawn seed."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 24]))
    values = st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, 2.225073858507201e-308, 1.0)),
        st.floats(-1e100, 1e100),
    )
    pool = draw(st.lists(values, min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[0.0] * i + row[i:] for i, row in enumerate(rows)]
    if n > 1 and draw(st.booleans()):
        for row in rows:
            row[-1] = row[0]
    return rows


class TestSingularValues:
    @settings(deadline=None)
    @given(square_matrices())
    def test_carried_norms_match_recomputed_norms(self, r):
        expected = [sigma.hex() for sigma in jacobi_singular_values(r)]
        assert [sigma.hex() for sigma in calibration._singular_values(r)] == expected


class TestSampleValidation:
    def test_rejects_zero_output(self):
        with pytest.raises(DomainError, match="sample output must be > 0"):
            sample_table(("K",), [(0.0, 1.0)])

    def test_rejects_zero_quantity(self):
        with pytest.raises(DomainError, match="sample factor 'K' must be > 0"):
            sample_table(("K",), [(1.0, 0.0)])

    def test_unparsable_cell_names_its_row(self, tmp_path):
        # the flat pass gives up on the cell, and the csv reader names its row
        path = tmp_path / "samples.csv"
        path.write_text("Y,K\n1.0,2.0\n3.0,abc\n")
        message = rf"^sample file {re.escape(str(path))}: row 3: could not convert string to float: 'abc'$"
        with pytest.raises(ConfigError, match=message):
            read_samples(path, ("K",))


def fit_outcome(samples, factor_names):
    try:
        return fit_cobb_douglas(samples, factor_names)
    except EconError as exc:
        return type(exc), str(exc)


# the message of row 3 (Y, K, L = 4, 3, 2) once one of its cells is bad
_FIRST_BAD_ROW_MESSAGES = {
    ("Y", "0.0"): "sample output must be > 0 and finite, got 0.0",
    ("Y", "-0.0"): "sample output must be > 0 and finite, got -0.0",
    ("Y", "-2.0"): "sample output must be > 0 and finite, got -2.0",
    ("Y", "nan"): "sample output must be > 0 and finite, got nan",
    ("Y", "inf"): "sample output must be > 0 and finite, got inf",
    ("Y", "-inf"): "sample output must be > 0 and finite, got -inf",
    ("K", "0.0"): "sample factor 'K' must be > 0 (log-transformable)",
    ("K", "-0.0"): "sample factor 'K' must be > 0 (log-transformable)",
    ("K", "-2.0"): "FactorBundle: K must be >= 0, got -2.0",
    ("K", "nan"): "FactorBundle: K must be finite, got nan",
    ("K", "inf"): "FactorBundle: K must be finite, got inf",
    ("K", "-inf"): "FactorBundle: K must be finite, got -inf",
    ("L", "0.0"): "sample factor 'L' must be > 0 (log-transformable)",
    ("L", "-0.0"): "sample factor 'L' must be > 0 (log-transformable)",
    ("L", "-2.0"): "FactorBundle: L must be >= 0, got -2.0",
    ("L", "nan"): "FactorBundle: L must be finite, got nan",
    ("L", "inf"): "FactorBundle: L must be finite, got inf",
    ("L", "-inf"): "FactorBundle: L must be finite, got -inf",
}


def error_outcome(exc):
    """An error's type, and its message where it is a DomainError."""
    return type(exc), str(exc) if isinstance(exc, DomainError) else None


def column_test_outcome(output, factors):
    """What building a table of these columns raised when each column was
    checked by its ``min`` and sum before any log was taken, and the rows in
    order by the row rule where a column failed: the reference the table's
    log pass must match.  None where the table was valid."""
    try:
        columns = [tuple(output), *map(tuple, factors.values())]
        FactorBundle(tuple(zip(factors, repeat(1.0))))
        if not all(not column or (min(column) > 0.0 and math.isfinite(sum(column)))
                   for column in columns):
            for y, *quantities in zip(*columns):
                FactorBundle(tuple(zip(factors, quantities)))
                if not math.isfinite(y) or y <= 0.0:
                    raise DomainError(f"sample output must be > 0 and finite, got {y!r}")
                for name, value in zip(factors, quantities):
                    if value <= 0.0:
                        raise DomainError(f"sample factor {name!r} must be > 0 (log-transformable)")
    except Exception as exc:
        return error_outcome(exc)
    return None


# Every kind of value a column test, a log or a row check treats apart: good
# values, zeros of both signs, negatives, nan, infinities, the float range's
# ends (two of 1e308 overflow a column's sum), bools, ints, strings and None.
_TABLE_CELLS = st.one_of(
    st.floats(0.1, 10.0),
    st.sampled_from(
        [0.0, -0.0, -1.5, -1e308, math.nan, math.inf, -math.inf, 5e-324, 1e308,
         True, False, 3, -2, "2.5", "abc", None]
    ),
)


@st.composite
def table_columns(draw):
    """An output column and 1 to 3 factor columns of one drawn length."""
    names = draw(st.sampled_from([("K",), ("K", "L"), ("L", "K", "M")]))
    column = st.lists(_TABLE_CELLS, min_size=(n := draw(st.integers(0, 5))), max_size=n)
    return draw(column), {name: draw(column) for name in names}


class TestSampleTable:
    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(table_columns())
    def test_log_pass_raises_what_the_column_test_raised(self, drawn):
        output, factors = drawn
        try:
            SampleTable(output=output, factors=factors)
        except Exception as exc:
            got = error_outcome(exc)
        else:
            got = None
        assert got == column_test_outcome(output, factors)

    def test_an_integer_past_the_float_range_takes_its_exact_log(self):
        # the column test raised a bare OverflowError on a column of such
        # ints; math.log takes an int's log exactly, so the table is valid
        factors = {"K": [10**400, 10**410, 10**420]}
        output = [2e200, 2e205, 2e210]  # Y = 2 * K**0.5
        assert column_test_outcome(output, factors) == (OverflowError, None)
        result = fit_cobb_douglas(SampleTable(output=output, factors=factors), ["K"])
        assert result.tfp_estimate == pytest.approx(2.0, rel=1e-9)
        assert result.elasticity_estimates["K"] == pytest.approx(0.5, rel=1e-12)

    def test_fit_takes_a_table_only(self):
        rows = [(1.0, 1.0, 2.0), (2.0, 3.0, 4.0), (5.0, 4.0, 3.0)]
        wide = sample_table(("K", "L"), rows)
        narrow = sample_table(("L",), [(y, l) for y, _, l in rows])
        assert fit_cobb_douglas(wide, ("L",)) == fit_cobb_douglas(narrow, ("L",))
        with pytest.raises(ContractViolationError, match="expected a SampleTable, got list"):
            fit_cobb_douglas(rows, ("L",))

    def test_of_needs_every_named_factor(self):
        table = SampleTable(output=[1.0, 2.0, 3.0], factors={"K": [1.0, 3.0, 5.0]})
        with pytest.raises(ContractViolationError, match="no factor 'L'"):
            fit_cobb_douglas(table, ["K", "L"])

    @pytest.mark.parametrize("column", ["Y", "K", "L"])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_rejects_as_the_first_bad_row_would(self, column, bad):
        columns = {"Y": [2.0, 3.0, 4.0, 5.0], "K": [1.0, 2.0, 3.0, 4.0], "L": [4.0, 3.0, 2.0, 1.0]}
        columns[column][2] = bad
        columns["L"][3] = -1.0  # a later bad row must not be the one reported
        with pytest.raises(DomainError) as got:
            SampleTable(output=columns["Y"], factors={"K": columns["K"], "L": columns["L"]})
        assert str(got.value) == _FIRST_BAD_ROW_MESSAGES[column, repr(bad)]

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0.0, -1.0, 0.0), "FactorBundle: K must be >= 0, got -1.0"),
            ((0.0, 0.0, math.nan), "FactorBundle: L must be finite, got nan"),
            ((math.inf, 0.0, 1.0), "sample output must be > 0 and finite, got inf"),
        ],
        ids=["negative_factor", "nonfinite_factor", "output_before_zero_factor"],
    )
    def test_checks_a_row_with_several_bad_values_in_order(self, row, message):
        # each factor's finite and sign checks, then the output, then zero factors
        with pytest.raises(DomainError) as got:
            sample_table(("K", "L"), [(1.0, 1.0, 1.0), row])
        assert str(got.value) == message

    def test_overflowing_column_sum_is_still_valid(self):
        # the column test is only sufficient: a sum that overflows sends the
        # table to the row scan, which finds every row valid
        table = SampleTable(output=[1e308, 1e308, 1.0], factors={"K": [1.0, 2.0, 3.0]})
        assert len(table) == 3

    @pytest.mark.parametrize("name", ["", 3], ids=["empty", "int"])
    @pytest.mark.parametrize("bad_row", [False, True], ids=["valid_rows", "bad_row"])
    def test_factor_names_are_checked_in_every_table(self, name, bad_row):
        # the name rule is FactorBundle's, whether or not some row is bad
        factor = [1.0, 2.0, -1.0 if bad_row else 3.0]
        message = "^FactorBundle: factor names must be non-empty strings$"
        with pytest.raises(DomainError, match=message):
            SampleTable(output=[1.0, 2.0, 3.0], factors={"K": [1.0, 2.0, 3.0], name: factor})

    def test_columns_must_have_one_length(self):
        with pytest.raises(ContractViolationError):
            SampleTable(output=[1.0, 2.0], factors={"K": [1.0]})

    def test_a_checked_table_cannot_change(self):
        # the columns used to be the caller's lists: an appended output made
        # the fit read A = 3.07 and e_K = 0.63 off rows that say 2 and 1,
        # and a zeroed factor escaped as "ValueError: math domain error"
        output, factors = [2.0, 4.0, 8.0], {"K": [1.0, 2.0, 4.0]}
        table = SampleTable(output=output, factors=factors)
        with pytest.raises(AttributeError):
            table.output.append(16.0)
        with pytest.raises(TypeError):
            table.factors["K"][0] = 0.0
        with pytest.raises(TypeError):
            table.factors["L"] = (1.0, 1.0, 1.0)
        output.append(16.0)
        factors["K"][0] = 0.0
        result = fit_cobb_douglas(table, ["K"])
        assert result.tfp_estimate == pytest.approx(2.0, rel=1e-12)
        assert result.elasticity_estimates == pytest.approx({"K": 1.0}, rel=1e-12)
        with pytest.raises(TypeError):
            result.elasticity_estimates["K"] = 0.5

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
        # the rows as a list of values and as a file read by read_samples
        named = [(y, *(dict(K=k, L=l)[name] for name in factor_names)) for y, k, l in rows]
        samples = sample_table(factor_names, named)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            lines = ["Y,K,L"] + [",".join(map(repr, row)) for row in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            table = read_samples(path, factor_names)
        assert table == samples
        assert fit_outcome(table, factor_names) == fit_outcome(samples, factor_names)
