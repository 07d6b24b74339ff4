import contextlib
import csv
import errno
import gc
import hashlib
import importlib.util
import io
import math
import os
import random
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agiecon import (
    AdoptionKind,
    CobbDouglasTechnology,
    DomainError,
    FactorBundle,
    SampleTable,
    SerializationError,
    calibration,
    cli,
    diagnostics,
    format_number,
    marginal_product,
)
from agiecon.calibration import MAX_FACTORS
from agiecon.cli import _WINDOW as BLOCK
from agiecon.cli import _CSV_NAMES, _write_all, main
from agiecon.config import build_scenario_config, parse_config_file
from agiecon.errors import ConfigError, UndefinedBaselineError
from agiecon.formatting import format_columns, format_number_or_nan
from agiecon.models import PARAM_TYPES
from agiecon.scenario import (
    ADOPTION_PARAMS,
    MAX_HORIZON,
    TimeSeriesRecord,
    detect_collapse,
    run_scenario,
)
from agiecon.transition import MAX_N_POINTS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*argv):
    return main([str(a) for a in argv])


def texts_by_class(root, cls):
    return [el for el in root.iter(f"{SVG_NS}text") if el.get("class") == cls]


def test_regen_goldens_reproduces_every_golden(tmp_path, monkeypatch):
    # the script's JOBS is the one table of golden runs: it must write every
    # file of tests/golden, byte for byte, and no other
    script = ROOT / "scripts" / "regen_goldens.py"
    spec = importlib.util.spec_from_file_location("regen_goldens", script)
    regen_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen_goldens)
    monkeypatch.setattr(regen_goldens, "GOLDEN", tmp_path)
    regen_goldens.run()
    golden = {path.name: path.read_bytes() for path in GOLDEN.iterdir()}
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(golden)
    for name, expected in golden.items():
        assert (tmp_path / name).read_bytes() == expected, name


class TestEval:
    def test_model3_eval(self, tmp_path):
        assert run_cli("eval", "--config", CONFIGS / "eval_model3.ini", "--out", tmp_path) == 0
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["Y"]) == pytest.approx(30.0, rel=1e-9)
        assert float(values["w_L_h"]) == pytest.approx(0.5 * 30.0 / 25.0, rel=1e-9)
        assert float(values["w_L_AGI"]) == pytest.approx(0.7 * 30.0 / 1.0, rel=1e-9)

    def test_golden_bytes(self, tmp_path):
        assert run_cli("eval", "--config", CONFIGS / "eval_model3.ini", "--out", tmp_path) == 0
        assert (tmp_path / "eval.csv").read_bytes() == (GOLDEN / "eval.csv").read_bytes()

    def test_zero_labor_is_a_computation_error(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text(
            "[model]\nid = model_i\nA = 1\nK = 1\nK_AGI = 1\nL = 0\nalpha = 0.5\nbeta = 0.5\n"
        )
        assert run_cli("eval", "--config", config, "--out", tmp_path / "out") == 2

    def test_zero_labor_with_zero_elasticity_has_zero_wage(self, tmp_path, capsys):
        # the simulate demo seeds L_AGI = 0 with beta2 = 0; eval used to exit 2
        # with "marginal product of 'L_AGI' at quantity 0 is not finite"
        assert run_cli("eval", "--config", CONFIGS / "simulate_demo.ini", "--out", tmp_path) == 0
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "eval.csv").read_text() == (
            "quantity,value\nY,1.000000000e0\nw_L_h,4.000000000e-1\nw_L_AGI,0.000000000e0\n"
        )

    def test_config_may_start_with_a_byte_order_mark(self, tmp_path):
        # editors that save "UTF-8 with BOM" write one
        config = tmp_path / "bom.ini"
        config.write_bytes(b"\xef\xbb\xbf" + (CONFIGS / "eval_model3.ini").read_bytes())
        assert run_cli("eval", "--config", config, "--out", tmp_path / "bom") == 0
        assert run_cli("eval", "--config", CONFIGS / "eval_model3.ini", "--out", tmp_path) == 0
        assert (tmp_path / "bom" / "eval.csv").read_bytes() == (tmp_path / "eval.csv").read_bytes()


class TestSweep:
    def test_golden_bytes(self, tmp_path):
        assert run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path) == 0
        for name in ("power_curve.csv", "power_curve.svg"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_family_golden_bytes(self, tmp_path):
        # 5000 grid points cross three of the command's windows: 2048 + 2048 + 904
        argv = ("--config", CONFIGS / "sweep_default.ini", "--out", tmp_path, "--points", 5000)
        assert run_cli("sweep", *argv, "--lambda", 2, "--lambda", 0.5, "--lambda", 9) == 0
        produced = (tmp_path / "power_curve.svg").read_bytes()
        assert produced == (GOLDEN / "power_curve_family.svg").read_bytes()

    @pytest.mark.parametrize(
        ("w_inf", "digests"),
        [
            (
                2.0,
                {
                    "power_curve.csv": "602d5d8b8c9c63f90601f76bab984a009c8f39daa04c0c991b80e868d0e0ee08",
                    "power_curve.svg": "8c5c45f137e5ab03ca6dfe266173f38f4d32ec6395c1bc0781df3f69e9881359",
                },
            ),
            (
                0.0,
                {
                    "power_curve.csv": "4b14c693b7272de4fe4f466d89b6f75d6791eb7f9d8ddf139bf2ae48380b55ca",
                    "power_curve.svg": "4a2886d11dafb2cc4473a86fd6dbe7ff8d4e5f6069cb9f1feb7e874c3277ee07",
                },
            ),
        ],
        ids=["agi-wage", "no-agi-wage"],
    )
    def test_dense_sweep_bytes(self, tmp_path, w_inf, digests):
        # about 78 grid points per pixel column, so the chart decimates long
        # runs; exp(-1000 l) underflows from l = 0.745 on, so the CSV's curve
        # ends in a 0.0 (w_inf > 0) or nan (w_inf = 0) suffix
        config = tmp_path / "sweep.ini"
        config.write_text(f"[transition]\nw0 = 1.0\nw_inf = {w_inf}\nlambda = 3.0\n")
        argv = ("--config", config, "--out", tmp_path, "--points", 50000)
        assert run_cli("sweep", *argv, "--lambda", 1000, "--lambda", 3, "--lambda", 0.5) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_repeated_runs_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path / sub) == 0
        assert (tmp_path / "a" / "power_curve.csv").read_bytes() == (
            tmp_path / "b" / "power_curve.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "power_curve.svg").read_bytes() == (
            tmp_path / "b" / "power_curve.svg"
        ).read_bytes()

    def test_points_override(self, tmp_path):
        assert (
            run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path, "--points", 11)
            == 0
        )
        lines = (tmp_path / "power_curve.csv").read_text().splitlines()
        assert len(lines) == 12
        assert lines[0] == "L_AGI,w_h,w_AGI,P_h"

    def test_undefined_terminal_point_serialized_as_nan(self, tmp_path):
        config = tmp_path / "sweep.ini"
        config.write_text("[transition]\nlambda = 2\nw_inf = 0\nn_points = 5\n")
        assert run_cli("sweep", "--config", config, "--out", tmp_path / "out") == 0
        lines = (tmp_path / "out" / "power_curve.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[-1].split(",")[3] == "nan"

    def test_lambda_family_svg_structure(self, tmp_path):
        assert (
            run_cli(
                "sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path,
                "--lambda", 0.5, "--lambda", 2, "--lambda", 10,
            )
            == 0
        )
        root = ET.fromstring((tmp_path / "power_curve.svg").read_text())
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("width") == "800" and root.get("height") == "600"
        polylines = [el for el in root.iter(f"{SVG_NS}polyline") if el.get("class") == "curve"]
        assert len(polylines) == 3
        assert len(texts_by_class(root, "xtick")) >= 5
        assert len(texts_by_class(root, "ytick")) >= 5
        assert len(texts_by_class(root, "title")) == 1
        legends = [el.text for el in texts_by_class(root, "legend")]
        assert legends == ["lambda=0.5", "lambda=2", "lambda=10"]

    def test_affine_mapping_with_ten_percent_margins(self, tmp_path):
        assert run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path) == 0
        root = ET.fromstring((tmp_path / "power_curve.svg").read_text())
        curve = next(el for el in root.iter(f"{SVG_NS}polyline") if el.get("class") == "curve")
        first_x, first_y = map(float, curve.get("points").split()[0].split(","))
        # data point (0, 1) lands at the top-left corner of the plot rectangle
        assert first_x == pytest.approx(0.1 * 800, abs=0.01)
        assert first_y == pytest.approx(0.1 * 600, abs=0.01)

    def test_failed_chart_writes_no_csv(self, tmp_path, monkeypatch):
        # the CSV used to be written before the chart was built
        def failing_chart(**kwargs):
            raise SerializationError("chart failed")

        monkeypatch.setattr(cli, "line_chart", failing_chart)
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", out) == 2
        assert not out.exists()  # nor the out directory the run made for it

    def test_seven_lambdas_draw_in_seven_colours(self, tmp_path):
        lambdas = [arg for lam in range(1, 8) for arg in ("--lambda", lam)]
        argv = ("--config", CONFIGS / "sweep_default.ini", "--out", tmp_path, "--points", 11)
        assert run_cli("sweep", *argv, *lambdas) == 0
        root = ET.fromstring((tmp_path / "power_curve.svg").read_text())
        colours = [el.get("stroke") for el in root.iter(f"{SVG_NS}polyline")
                   if el.get("class") == "curve"]
        assert len(colours) == len(set(colours)) == 7

    def test_eighth_lambda_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("no curve may be computed")

        monkeypatch.setattr(cli, "power_curve", no_grid)
        lambdas = [arg for lam in range(1, 9) for arg in ("--lambda", lam)]
        assert run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path,
                       *lambdas) == 1
        err = capsys.readouterr().err
        assert err == "usage error: --lambda: a chart draws at most 7 curves, got 8\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_points_flag(self, tmp_path):
        assert (
            run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path, "--points", 1)
            == 1
        )

    def test_points_above_the_bound_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the grid must not be built")

        monkeypatch.setattr(cli, "power_curve", no_grid)
        argv = ("--config", CONFIGS / "sweep_default.ini", "--out", tmp_path)
        assert run_cli("sweep", *argv, "--points", MAX_N_POINTS + 1) == 1
        err = capsys.readouterr().err
        assert err == (
            f"usage error: --points: n_points must be an integer in [2, {MAX_N_POINTS}],"
            f" got {MAX_N_POINTS + 1}\n"
        )
        assert list(tmp_path.iterdir()) == []


def _demo_scenario(*replacements):
    """configs/simulate_demo.ini with each (old, new) text replaced."""
    text = (CONFIGS / "simulate_demo.ini").read_text()
    for old, new in replacements:
        text = text.replace(old, new)
    return text


class TestSimulate:
    def test_golden_bytes(self, tmp_path, capsys):
        assert run_cli("simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", tmp_path) == 0
        produced = (tmp_path / "series.csv").read_bytes()
        assert produced == (GOLDEN / "series.csv").read_bytes()
        assert "collapse" in capsys.readouterr().out

    def test_demo_prints_its_collapse_line(self, tmp_path, capsys):
        assert run_cli("simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", tmp_path) == 0
        assert capsys.readouterr() == (
            "collapse: human wage fell below 0.5 of its initial value at step 20\n", ""
        )

    def test_schema(self, tmp_path):
        assert run_cli("simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", tmp_path) == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == (
            "t,s,beta1,beta2,K,K_AGI,L_h,L_AGI,Y,w_h,w_AGI,p_h_elastic,p_h_transition,wage_bill"
        )
        assert len(lines) == 22  # horizon + 1 records

    def test_undefined_collapse_is_reported(self, tmp_path, capsys):
        # with beta2 > 0 and L_AGI(0) = 0, Y(0) = w_h(0) = 0; the run used to
        # print nothing, as if the wage had never collapsed
        config = tmp_path / "b2pos.ini"
        config.write_text(_demo_scenario(("beta2 = 0.0", "beta2 = 0.1")))
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 0
        assert capsys.readouterr().out == (
            "collapse: undefined: w_h(0) = 0: collapse threshold has no baseline\n"
        )
        assert (tmp_path / "out" / "series.csv").exists()

    def test_needs_model3(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[scenario]\nhorizon = 5\n")
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 1

    def test_horizon_above_the_bound_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("the scenario must not run")

        monkeypatch.setattr(cli, "run_columns", no_run)
        config = tmp_path / "long.ini"
        text = (CONFIGS / "simulate_demo.ini").read_text()
        config.write_text(text.replace("horizon = 20", f"horizon = {MAX_HORIZON + 1}"))
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == (
            f"config error: [scenario]: horizon must be <= {MAX_HORIZON}, got {MAX_HORIZON + 1}\n"
        )

    # the last window holds BLOCK, 1 and BLOCK rows
    @pytest.mark.parametrize("horizon", [BLOCK - 1, BLOCK, 2 * BLOCK - 1])
    @pytest.mark.parametrize(
        "replacements",
        [
            # collapse at the last step; K, a run constant, is not 1
            (("K = 1.0", "K = 2.5"), ("adoption = logistic\nk = 0.6\nt0 = 10", "adoption = linear"),
             ("growth = 0.05", "growth = 0.0")),
            # collapse in the first window
            (),
            # no baseline, and w_AGI is nan at step 0
            (("beta2 = 0.0", "beta2 = 0.1"),),
        ],
        ids=["linear", "demo", "b2pos"],
    )
    def test_series_is_the_records_at_window_edges(self, tmp_path, capsys, horizon, replacements):
        config = tmp_path / "run.ini"
        config.write_text(_demo_scenario(("horizon = 20", f"horizon = {horizon}"), *replacements))
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 0
        # the oracle: the library's records, each cell formatted on its own
        cfg = build_scenario_config(parse_config_file(config))
        records = run_scenario(cfg)
        nan_fields = {"w_agi", "p_h_transition"}
        lines = [",".join(map(_CSV_NAMES.get, TimeSeriesRecord._fields, TimeSeriesRecord._fields))]
        lines += [
            ",".join(
                str(value) if name == "t"
                else format_number_or_nan(value) if name in nan_fields else format_number(value)
                for name, value in record._asdict().items()
            )
            for record in records
        ]
        assert (tmp_path / "out" / "series.csv").read_text() == "\n".join(lines) + "\n"
        theta = cfg.collapse_threshold
        try:
            step = detect_collapse(records, theta)
        except UndefinedBaselineError as exc:
            want = f"collapse: undefined: {exc}\n"
        else:
            assert step is not None
            want = f"collapse: human wage fell below {theta:g} of its initial value at step {step}\n"
        assert capsys.readouterr() == (want, "")


class TestFit:
    def test_golden_bytes(self, tmp_path):
        assert run_cli("fit", "--config", CONFIGS / "fit_demo.ini", "--out", tmp_path) == 0
        assert (tmp_path / "fit.csv").read_bytes() == (GOLDEN / "fit.csv").read_bytes()

    def test_recovers_generating_parameters(self, tmp_path):
        assert run_cli("fit", "--config", CONFIGS / "fit_demo.ini", "--out", tmp_path) == 0
        lines = (tmp_path / "fit.csv").read_text().splitlines()
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["A"]) == pytest.approx(1.8, abs=1e-9)
        assert float(values["e_K"]) == pytest.approx(0.4, abs=1e-9)
        assert float(values["e_L"]) == pytest.approx(0.35, abs=1e-9)
        # the samples are noiseless: the golden's rss is rounding noise
        assert float(values["rss"]) < 1e-25
        assert values["n_samples"] == "12"

    def test_collinear_input_is_a_computation_error(self, tmp_path):
        data = tmp_path / "samples.csv"
        rows = ["Y,K,L"] + [f"{3.0 * k},{k},{2.0 * k}" for k in (0.5, 1.0, 1.5, 2.0, 2.5)]
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "fit.ini"
        config.write_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 2

    def test_missing_column_is_a_config_error(self, tmp_path):
        data = tmp_path / "samples.csv"
        data.write_text("Y,K\n1.0,1.0\n2.0,2.0\n3.0,3.0\n")
        config = tmp_path / "fit.ini"
        config.write_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 1

    def test_too_many_factors_is_a_config_error_before_the_file_is_read(self, tmp_path, capsys):
        # no sample file exists: reading one would be a different config error
        config = tmp_path / "fit.ini"
        names = ", ".join(f"x{i}" for i in range(MAX_FACTORS + 1))
        config.write_text(f"[fit]\nfactors = {names}\ninput = missing.csv\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"config error: [fit].factors: at most {MAX_FACTORS} factor names,"
            f" got {MAX_FACTORS + 1}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_duplicate_column_is_a_config_error(self, tmp_path, capsys):
        # the later K used to shadow the earlier one, which surfaced as a
        # rank error (exit 2) about a constant column the user never meant
        data = tmp_path / "samples.csv"
        rows = ["Y,K,L,K"] + [f"{1.0 + k},{k},{3.0 + k * k},9" for k in (0.5, 1.0, 1.5, 2.0)]
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "fit.ini"
        config.write_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "duplicate columns ['K']" in err

    def test_reads_columns_not_sample_rows(self, tmp_path, monkeypatch):
        checked = []
        original = calibration._check_row

        def counting(output, names, quantities):
            checked.append(output)
            original(output, names, quantities)

        monkeypatch.setattr(calibration, "_check_row", counting)
        assert run_cli("fit", "--config", CONFIGS / "fit_demo.ini", "--out", tmp_path) == 0
        assert (tmp_path / "fit.csv").read_bytes() == (GOLDEN / "fit.csv").read_bytes()
        assert checked == []
        # control: a K = 0 in the third row sends the table row by row, and
        # the patched check sees each row up to that one
        data = tmp_path / "samples.csv"
        data.write_text("Y,K,L\n1.0,1.0,2.0\n2.0,2.0,3.0\n3.0,0.0,4.0\n4.0,4.0,5.0\n")
        config = tmp_path / "fit.ini"
        config.write_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 2
        assert checked == [1.0, 2.0, 3.0]

    def test_sample_file_may_start_with_a_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports write one
        samples = (CONFIGS / "fit_samples.csv").read_text(encoding="utf-8")
        config = write_fit_config(tmp_path, "\ufeff" + samples)
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 0
        assert (tmp_path / "out" / "fit.csv").read_bytes() == (GOLDEN / "fit.csv").read_bytes()


def reference_read_samples(path, factor_names):
    """The row-by-row sample reader: each data row parsed and checked in file
    order, every check written out here; agiecon only holds the result."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigError(f"sample file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"sample file {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "Y":
        raise ConfigError(f"sample file {path}: first column must be Y")
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise ConfigError(f"sample file {path}: duplicate columns {duplicates}")
    missing = [name for name in factor_names if name not in header[1:]]
    if missing:
        raise ConfigError(f"sample file {path}: missing factor columns {missing}")
    output, factors = [], {name: [] for name in factor_names}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigError(f"sample file {path}: row {line_no} has {len(row)} cells")
        try:
            values = {name: float(cell) for name, cell in zip(header, row)}
        except ValueError as exc:
            raise ConfigError(f"sample file {path}: row {line_no}: {exc}") from None
        y, quantities = values["Y"], [(name, values[name]) for name in factor_names]
        for name, x in quantities:
            if not math.isfinite(x):
                raise DomainError(f"FactorBundle: {name} must be finite, got {x!r}")
            if x < 0.0:
                raise DomainError(f"FactorBundle: {name} must be >= 0, got {x!r}")
        if not (math.isfinite(y) and y > 0.0):
            raise DomainError(f"sample output must be > 0 and finite, got {y!r}")
        for name, x in quantities:
            if x == 0.0:
                raise DomainError(f"sample factor {name!r} must be > 0 (log-transformable)")
        output.append(y)
        for name, x in quantities:
            factors[name].append(x)
    return SampleTable(output=output, factors=factors)


_GOOD_CELLS = st.floats(0.1, 10.0).map(repr)
# Cells at the edges of JSON's number grammar, which the flat reader scans,
# and of float()'s, which the csv module's path uses, or that only the shape
# check refuses: each must read as the row-by-row reference reads it.
_EDGE_CELLS = ["1.", ".5", "+1", "01", "1_0", "-0", "1E+05", "1e400", "\t2.5", "\uff11",
               "NaN", "Infinity"]
_BAD_CELLS = st.sampled_from(
    ["abc", "", "nan", "inf", "-inf", "1e999", "0", "-0.0", "-1.5", "5e-324", " 2.5 ",
     '"3.5"', '"1,5"', "1.5\0", "\0", *_EDGE_CELLS]
)
# Line ends of every kind, LF, CRLF and lone CR, mixed or not; without a
# quote or NUL the file takes the flat reader whatever its line ends.
_LINE_ENDS = st.sampled_from([("\n",)] * 3 + [("\r\n",), ("\r",), ("\n", "\r\n", "\r")])


@st.composite
def sample_files(draw):
    """A small sample CSV with defects injected: widths, cells, quotes, NULs,
    line ends, blank lines and lines of only spaces or only commas."""
    names = ["Y", "K", "L"] + (["Z"] if draw(st.booleans()) else [])
    width = len(names)
    # a quoted header cell, sometimes one that holds a comma
    quoted = st.sampled_from(['"{}"', '"{}"', '"{},Q"'])
    header = [draw(quoted).format(n) if draw(st.integers(0, 7)) == 0 else n for n in names]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 17))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(" " * draw(st.integers(1, 3)))
        elif kind == 2:
            lines.append("," * draw(st.integers(1, width)))
        else:
            row_width = width + (kind == 3) - (kind == 4)
            bad = draw(st.integers(-1, 4 * row_width - 1))  # one odd cell in about a quarter of rows
            cells = [draw(_BAD_CELLS if i == bad else _GOOD_CELLS) for i in range(row_width)]
            lines.append(",".join(cells))
    line_ends = st.sampled_from(draw(_LINE_ENDS))
    ends = [draw(line_ends) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final newline
    factors = draw(st.sampled_from(["K, L", "L, K", "K"]))
    return "".join(line + end for line, end in zip(lines, ends)), factors


def run_fit_capturing(config, out):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["fit", "--config", str(config), "--out", str(out)])
    fit = out / "fit.csv"
    return code, stderr.getvalue(), fit.read_bytes() if fit.exists() else None


def write_fit_config(root, samples, factors="K, L"):
    (root / "samples.csv").write_text(samples, encoding="utf-8", newline="")
    config = root / "fit.ini"
    config.write_text(f"[fit]\nfactors = {factors}\ninput = samples.csv\n")
    return config


def with_edge_cell_examples(test):
    """``test`` with an example per edge cell and chunk size 1 or 16: the cell
    starts, ends and sits inside rows that cross chunk edges."""
    for cell in _EDGE_CELLS:
        rows = ["Y,K,L", f"{cell},1.0,2.0", f"2.0,{cell},1.5", f"3.0,2.5,{cell}", "1.5,3.0,2.0"]
        for chunk_chars in (1, 16):
            test = example(("\n".join(rows) + "\n", "K, L"), chunk_chars)(test)
    return test


class TestSampleReader:
    # at least 150 examples; a profile that asks for more, such as thorough, gets them
    @settings(max_examples=max(150, settings().max_examples), deadline=None)
    @given(sample_files(), st.sampled_from([1, 16, 1 << 16]))
    # a subnormal output drives the fitted ln A past what exp can hold
    @example(("Y,K,L\n5e-324,3.0,1.0\n1.0,2.0,1.0\n", "K"), 1)
    # a row a cell too wide beside one a cell short: the commas add up, but not per line
    @example(("Y,K,L\n1.0,2.0,1.5,3.0\n2.0,1.0\n3.0,2.5,2.0\n1.5,3.0,2.0\n", "K, L"), 1 << 16)
    @with_edge_cell_examples
    def test_matches_row_by_row_reference(self, drawn, chunk_chars):
        text, factors = drawn
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config = write_fit_config(root, text, factors)
            with mock.patch.object(calibration, "_CHUNK_CHARS", chunk_chars):
                got = run_fit_capturing(config, root / "columns")
            with mock.patch.object(calibration, "read_samples", reference_read_samples):
                want = run_fit_capturing(config, root / "rows")
        assert got == want
        assert got[1].count("\n") == (0 if got[0] == 0 else 1)

    def count_csv_readers(self, monkeypatch):
        calls = []
        original = csv.reader

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(csv, "reader", counting)
        return calls

    def test_plain_file_is_read_without_the_csv_module(self, tmp_path, monkeypatch):
        calls = self.count_csv_readers(monkeypatch)
        assert run_cli("fit", "--config", CONFIGS / "fit_demo.ini", "--out", tmp_path) == 0
        assert (tmp_path / "fit.csv").read_bytes() == (GOLDEN / "fit.csv").read_bytes()
        assert calls == []

    @pytest.mark.parametrize(
        "end, layout",
        [("\r\n", "plain"), ("\r", "plain")]
        + [(end, layout) for layout in ("blank-lines", "spaces") for end in ("\n", "\r\n", "\r")],
        ids=["CRLF", "CR"]
        + [f"{end}-{layout}" for layout in ("blank-lines", "spaces") for end in ("LF", "CRLF", "CR")],
    )
    def test_cr_line_ends_are_read_without_the_csv_module(
        self, tmp_path, monkeypatch, end, layout
    ):
        # a file with any CR used to go through the csv module, about twice as slow
        calls = self.count_csv_readers(monkeypatch)
        lines = (CONFIGS / "fit_samples.csv").read_text().splitlines()
        if layout == "blank-lines":  # before, between and after the rows, up to three at once
            lines = [line for i, line in enumerate(lines) for line in [line] + [""] * (i % 4)]
            lines.insert(1, "")
        elif layout == "spaces":
            lines = [line.replace(",", ", ") for line in lines]
        config = write_fit_config(tmp_path, end.join(lines) + end)
        for chunk_chars in (1, 16, calibration._CHUNK_CHARS):
            with mock.patch.object(calibration, "_CHUNK_CHARS", chunk_chars):
                assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 0
            assert (tmp_path / "out" / "fit.csv").read_bytes() == (GOLDEN / "fit.csv").read_bytes()
        assert calls == []

    def test_one_quoted_cell_sends_the_file_to_the_csv_module(self, tmp_path, monkeypatch):
        calls = self.count_csv_readers(monkeypatch)
        header, first, *rest = (CONFIGS / "fit_samples.csv").read_text().splitlines()
        y, others = first.split(",", 1)
        text = "\n".join([header, f'"{y}",{others}', *rest]) + "\n"
        config = write_fit_config(tmp_path, text)
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 0
        assert (tmp_path / "out" / "fit.csv").read_bytes() == (GOLDEN / "fit.csv").read_bytes()
        assert len(calls) == 1

    def test_first_bad_row_past_the_first_chunk(self, tmp_path, capsys):
        rows = ["Y,K,L"] + [f"{1.0 + i % 7},{1.0 + i % 5},{1.0 + i % 3}" for i in range(15_000)]
        bad_line = 12_000  # lines are numbered from 1, the header first
        rows[bad_line - 1] = "2.0,3.0"
        rows[bad_line + 999] = "2.0,abc,3.0"  # a later bad row is not the one reported
        assert len("\n".join(rows[: bad_line - 1])) > 2 * calibration._CHUNK_CHARS
        config = write_fit_config(tmp_path, "\n".join(rows) + "\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"config error: sample file {tmp_path / 'samples.csv'}: row {bad_line} has 2 cells\n"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_many_chunks_read_the_same_columns(self, tmp_path, end):
        rng = random.Random(3)
        rows = ["Y,L,K,Z"]
        for _ in range(20_000):
            rows.append(",".join(repr(rng.uniform(0.5, 5.0)) for _ in range(4)))
            if rng.random() < 0.05:
                rows.append("")  # a blank line, now and then at a chunk edge
        path = tmp_path / "samples.csv"
        path.write_text(end.join(rows), encoding="utf-8", newline="")
        table = calibration.read_samples(path, ("K", "L"))
        want = reference_read_samples(path, ("K", "L"))
        assert len(table) == 20_000
        assert table.output == want.output and table.factors == want.factors

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_reading_holds_less_than_the_file_beside_the_table(self, tmp_path, end):
        # the reader used to hold the whole text, its CRLF-free copy and the
        # flat value list at once: 1.7 times the file beside the table
        rng = random.Random(5)
        rows = ["Y,K,L,Z"]
        rows += [",".join(repr(rng.uniform(0.5, 5.0)) for _ in range(4)) for _ in range(20_000)]
        path = tmp_path / "samples.csv"
        path.write_text(end.join(rows) + end, encoding="utf-8", newline="")
        size = path.stat().st_size
        assert size > 8 * calibration._CHUNK_CHARS
        calibration.read_samples(path, ("K",))  # json's import is not the reader's to hold
        tracemalloc.start()
        try:
            table = calibration.read_samples(path, ("K", "L"))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 20_000
        assert peak - held < size

    @pytest.mark.parametrize("chunk_chars", [16, 1 << 16])
    @pytest.mark.parametrize("reader", ["flat", "csv"])
    def test_a_file_past_the_row_bound_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, reader, chunk_chars
    ):
        monkeypatch.setattr(calibration, "MAX_SAMPLES", 1000)
        monkeypatch.setattr(calibration, "_CHUNK_CHARS", chunk_chars)
        rng = random.Random(9)
        rows = [",".join(repr(rng.uniform(0.5, 5.0)) for _ in range(3)) for _ in range(1001)]
        if reader == "csv":  # a quoted cell sends the file to the csv module
            rows[0] = '"' + rows[0].replace(",", '",', 1)
        rows[500:500] = [""] * 3  # blank lines are not rows
        config = write_fit_config(tmp_path, "\n".join(["Y,K,L", *rows[:-1]]) + "\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "at") == 0
        assert capsys.readouterr().err == ""
        assert b"n_samples,1000\n" in (tmp_path / "at" / "fit.csv").read_bytes()
        # one row more, and a bad cell past it: the bound is met first
        config = write_fit_config(tmp_path, "\n".join(["Y,K,L", *rows, "1.0,abc,2.0"]) + "\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "past") == 1
        samples = tmp_path / "samples.csv"
        assert capsys.readouterr().err == f"config error: sample file {samples}: more than 1000 sample rows\n"
        assert not (tmp_path / "past").exists()


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


# Good values stay small where they size the work: horizon <= 200 steps,
# n_points <= 1000.  Garbage holds no digits, so it never parses as a large
# integer.
_GOOD_VALUES = {
    "id": st.sampled_from(list(PARAM_TYPES)),
    "A": _number(0.1, 10.0),
    **dict.fromkeys(["K", "K_AGI", "L", "L1", "L2", "L_h", "L_AGI"], _number(0.01, 10.0)),
    **dict.fromkeys(["alpha", "beta", "gamma", "beta1", "beta2"], _number(0.0, 0.6)),
    "w0": _number(0.1, 10.0),
    "w_inf": _number(0.0, 10.0),
    "lambda": _number(0.1, 20.0),
    "n_points": st.integers(2, 1000).map(str),
    "horizon": st.integers(1, 200).map(str),
    "adoption": st.sampled_from([k.value for k in AdoptionKind]),
    "k": _number(0.1, 5.0),
    "t0": _number(0.0, 200.0),
    "r": _number(0.1, 5.0),
    "growth": _number(0.0, 0.5),
    "collapse_threshold": _number(0.01, 1.0),
    "factors": st.sampled_from(["K, L", "L, K", "K", "K, K", "M"]),
    "input": st.sampled_from(["samples.csv", "missing.csv"]),
}
_GARBAGE = st.one_of(
    st.sampled_from(
        ["", "abc", "nan", "inf", "-inf", "1e999", "-1", "0", "1e308", "5e-324", "%(x)s", "1,2"]
    ),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
)
_RARELY = st.sampled_from([False] * 19 + [True])  # integers(0, 19) == 0 favours 0
_SECTION_KEYS = {
    "transition": ("w0", "w_inf", "lambda", "n_points"),
    "fit": ("factors", "input"),
    "extra": ("x",),
}


@st.composite
def config_documents(draw):
    """A config document mixing every section, known and unknown keys, and
    good and garbage values."""

    def value(key):
        garbage = draw(_RARELY) or key not in _GOOD_VALUES
        return draw(_GARBAGE if garbage else _GOOD_VALUES[key])

    sections = [name for name in ("model", "transition", "scenario", "fit") if draw(st.booleans())]
    # now and then an unknown, an unsupported or a repeated section
    sections += [name for name in ("extra", "DEFAULT", "model") if draw(_RARELY)]
    lines = []
    for section in draw(st.permutations(sections)):
        entries = {}
        if section == "model":
            entries["id"] = value("id")
            known = PARAM_TYPES.get(entries["id"])
            keys = list(known._fields) if known else ["A", "K"]
        elif section == "scenario":
            entries["horizon"], entries["adoption"] = value("horizon"), value("adoption")
            known = {k.value: k for k in AdoptionKind}.get(entries["adoption"])
            keys = [*ADOPTION_PARAMS.get(known, ()), "growth", "collapse_threshold"]
        else:
            keys = _SECTION_KEYS.get(section, ())
        for key in keys:
            if not draw(_RARELY):  # a required key is now and then missing
                entries[key] = value(key)
        if draw(_RARELY):
            entries[draw(st.sampled_from(["bogus", "lam", "k", "K"]))] = value("k")
        lines.append(f"[{section}]")
        lines += [f"{key} = {val}" for key, val in entries.items()]
    return "\n".join(lines) + "\n"


_COMMANDS = ("eval", "sweep", "simulate", "fit", "check")


class TestConfigDocuments:
    @settings(max_examples=60, deadline=None)
    @given(config_documents(), st.sampled_from(_COMMANDS))
    @example("[transition]\nw0 = 1\nlambda\n", "sweep")  # a line that is not key = value
    def test_main_returns_an_exit_status(self, document, command):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "samples.csv").write_bytes((CONFIGS / "fit_samples.csv").read_bytes())
            config = root / "doc.ini"
            config.write_text(document, encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(config), "--out", str(root / "out")])
        assert code in (0, 1, 2)
        # a malformed document used to print configparser's multi-line message
        assert stderr.getvalue().count("\n") == (0 if code == 0 else 1)


class _FullDisk(io.BufferedWriter):
    """A binary file whose second ``write`` fails as a full disk would."""

    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


def _full_disk_open(path, mode):
    assert mode == "wb"
    return _FullDisk(io.FileIO(path, mode))


class TestWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # the file used to be truncated before the failing write
        target = tmp_path / "fit.csv"
        target.write_text("old\n")

        def chunks():
            yield b"new\n"
            raise SerializationError("cannot serialize non-finite value inf")

        with pytest.raises(SerializationError):
            _write_all({target: chunks()})
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_a_text_chunk_is_refused(self, tmp_path):
        # artifacts are written in binary mode: text is never encoded on the way
        target = tmp_path / "fit.csv"
        target.write_text("old\n")
        with pytest.raises(TypeError):
            _write_all({target: ["new\n"]})
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    # series.csv is written window by window; a failure part way through the
    # windows must leave the out directory as it was, with no temp file
    @pytest.fixture(params=[None, b"old\r\nbytes\n"], ids=["fresh", "existing"])
    def out_dir(self, request, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        if request.param is not None:
            (out / "series.csv").write_bytes(request.param)
        return out, {path.name: path.read_bytes() for path in out.iterdir()}

    def simulate_long(self, tmp_path, out):
        config = tmp_path / "long.ini"
        config.write_text(_demo_scenario(("horizon = 20", "horizon = 5000")))
        return run_cli("simulate", "--config", config, "--out", out)

    def test_block_that_fails_to_serialize_writes_nothing(self, tmp_path, capsys, monkeypatch, out_dir):
        out, before = out_dir
        blocks_given = []

        def failing_columns(*args, **kwargs):
            if blocks_given:
                raise SerializationError("cannot serialize non-finite value inf")
            blocks_given.append(1)
            return format_columns(*args, **kwargs)

        monkeypatch.setattr(cli, "format_columns", failing_columns)
        assert self.simulate_long(tmp_path, out) == 2
        assert blocks_given == [1]
        assert capsys.readouterr() == ("", "error: cannot serialize non-finite value inf\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_run_that_fails_part_way_writes_nothing(self, tmp_path, capsys, monkeypatch, out_dir):
        # the demo's AGI capital, compounding 5% a step, overflows at step 14548
        out, before = out_dir
        lines_written = []

        class Counting(io.BufferedWriter):
            def write(self, data):
                lines_written.append(data.count(b"\n"))
                return super().write(data)

        def counting_open(path, mode):
            assert mode == "wb"
            return Counting(io.FileIO(path, mode))

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        config = tmp_path / "overflow.ini"
        config.write_text(_demo_scenario(("horizon = 20", "horizon = 15000")))
        assert run_cli("simulate", "--config", config, "--out", out) == 2
        assert capsys.readouterr() == ("", "error: step 14548: AGI capital overflowed\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # the header and the seven whole windows before the failing step's had
        # gone into the temp file: the run streams, and still leaves nothing
        assert sum(lines_written) == 1 + 7 * BLOCK

    def simulate_failing(self, tmp_path, out, *replacements):
        config = tmp_path / "failing.ini"
        config.write_text(
            _demo_scenario(("horizon = 20", "horizon = 4200"), ("growth = 0.05", "growth = 0.01"),
                           *replacements)
        )
        return run_cli("simulate", "--config", config, "--out", out)

    @pytest.mark.parametrize("offset", [0, 1, BLOCK // 2 - 1, BLOCK // 2, BLOCK - 1])
    def test_first_failing_step_at_a_window_edge(self, tmp_path, capsys, out_dir, offset):
        # K_AGI * 1.01**t first passes the largest float at this step of the second window
        out, before = out_dir
        step = BLOCK + offset
        k_agi = sys.float_info.max / 1.01 ** (step - 0.5)
        assert self.simulate_failing(tmp_path, out, ("K_AGI = 1.0", f"K_AGI = {k_agi!r}")) == 2
        assert capsys.readouterr() == ("", f"error: step {step}: AGI capital overflowed\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_output_failing_inside_a_window(self, tmp_path, capsys, out_dir):
        # K_AGI**3 first overflows at step 3000; the first step of its window is fine
        out, before = out_dir
        k_agi = sys.float_info.max ** (1 / 3) / 1.01 ** (3000 - 0.5)
        replacements = (("K_AGI = 1.0", f"K_AGI = {k_agi!r}"), ("gamma = 0.2", "gamma = 3"))
        assert self.simulate_failing(tmp_path, out, *replacements) == 2
        assert capsys.readouterr() == ("", "error: step 3000: term 'K_AGI'**3.0 overflows\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh-nested", "existing"])
    def test_failing_command_leaves_out_as_it_was(self, tmp_path, capsys, existing):
        out = tmp_path / "o" / "a" / "b"
        if existing:
            out.mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("simulate", "--config", CONFIGS / "sweep_default.ini", "--out", out) == 1
        assert capsys.readouterr().err == "config error: simulate needs a [scenario] section\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_write_that_fails_part_way_writes_nothing(self, tmp_path, capsys, monkeypatch, out_dir):
        out, before = out_dir
        monkeypatch.setattr(cli, "open", _full_disk_open, raising=False)
        assert self.simulate_long(tmp_path, out) == 1
        assert capsys.readouterr() == (
            "", f"usage error: cannot write {out / 'series.csv'}: No space left on device\n"
        )
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


CHECK_NAMES = [
    "euler_identity_max_rel_residual",
    "marginal_product_vs_central_difference_max_rel_error",
    "homogeneity_scaling_max_rel_error",
    "labor_income_power_index_max_abs_deviation",
    "human_power_at_zero_adoption_max_abs_error",
    "human_power_at_full_adoption_max_abs_error",
    "terminal_power_full_adoption_lambda_1",
    "terminal_wage_ratio_lambda_1",
    "terminal_power_full_adoption_lambda_2",
    "terminal_wage_ratio_lambda_2",
    "terminal_power_full_adoption_lambda_5",
    "terminal_wage_ratio_lambda_5",
    "limit_human_wage_as_labor_vanishes_diverges_not_zero",
    "limit_human_wage_as_elasticity_vanishes",
    "limit_output_as_agi_capital_grows",
    "power_curve_family_strict_decrease_violations",
    "wage_based_index_spot_check_abs_error",
]


class TestCheck:
    def test_golden_bytes(self, tmp_path):
        assert run_cli("check", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path) == 0
        assert (tmp_path / "check.txt").read_bytes() == (GOLDEN / "check.txt").read_bytes()

    def test_report_format_and_content(self, tmp_path):
        assert run_cli("check", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path) == 0
        lines = (tmp_path / "check.txt").read_text().splitlines()
        for line in lines:
            status, name, value = line.split(" ")
            assert status in ("PASS", "FAIL")
        assert [line.split(" ")[1] for line in lines] == CHECK_NAMES
        assert all(line.startswith("PASS") for line in lines)
        names = {line.split(" ")[1]: line.split(" ")[2] for line in lines}
        # every value with a closed form, byte for byte
        assert {name: value for name, value in names.items() if value == "0.000000000e0"} == {
            "human_power_at_zero_adoption_max_abs_error": "0.000000000e0",
            "human_power_at_full_adoption_max_abs_error": "0.000000000e0",
            "terminal_power_full_adoption_lambda_1": "0.000000000e0",
            "terminal_power_full_adoption_lambda_2": "0.000000000e0",
            "terminal_power_full_adoption_lambda_5": "0.000000000e0",
            "wage_based_index_spot_check_abs_error": "0.000000000e0",
        }
        assert names["terminal_wage_ratio_lambda_1"] == "3.678794412e-1"
        assert names["terminal_wage_ratio_lambda_2"] == "1.353352832e-1"
        assert names["terminal_wage_ratio_lambda_5"] == "6.737946999e-3"
        for lam in (1, 2, 5):
            assert float(names[f"terminal_wage_ratio_lambda_{lam}"]) == pytest.approx(
                math.exp(-lam), rel=1e-9
            )
        assert names["limit_human_wage_as_labor_vanishes_diverges_not_zero"] == "DIVERGES"
        assert names["limit_human_wage_as_elasticity_vanishes"] == "ZERO"
        assert names["limit_output_as_agi_capital_grows"] == "DIVERGES"
        assert names["power_curve_family_strict_decrease_violations"] == "0"

    def test_nan_error_fails_its_check(self, tmp_path, monkeypatch):
        # max() keeps a NaN operand or drops it depending on position, so a
        # NaN measurement used to print as a passing 0.000000000e0
        monkeypatch.setattr("agiecon.diagnostics.marginal_product", lambda *args: math.nan)
        out = tmp_path / "new" / "out"  # a check that exits 2 keeps the report it wrote
        assert run_cli("check", "--config", CONFIGS / "sweep_default.ini", "--out", out) == 2
        lines = (out / "check.txt").read_text().splitlines()
        assert [line for line in lines if not line.startswith("PASS")] == [
            "FAIL marginal_product_vs_central_difference_max_rel_error nan"
        ]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_scaling_makes_homogeneity_error_nan(self, monkeypatch, position):
        # the first call is the unscaled output, then one call per scaling
        calls = []
        original = diagnostics.product_of_terms

        def product(tfp, terms):
            calls.append(None)
            return math.nan if len(calls) == 2 + position else original(tfp, terms)

        monkeypatch.setattr(diagnostics, "product_of_terms", product)
        assert math.isnan(diagnostics._homogeneity_error(random.Random(303)))
        assert len(calls) == 4

    def test_central_difference_builds_no_bundle(self, monkeypatch):
        built = []
        original = FactorBundle.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        tech = CobbDouglasTechnology.of(2.0, K=0.3, L=0.6)
        bundle = FactorBundle.of(K=4.0, L=9.0)
        monkeypatch.setattr(FactorBundle, "__post_init__", counting)
        assert diagnostics._central_difference(tech, bundle, "L") == pytest.approx(
            marginal_product(tech, bundle, "L"), rel=1e-8
        )
        assert built == []


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "--config", "x", "--out", "y"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_flag(self, capsys):
        assert main(["sweep", "--config", "x"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("sweep", "--config", tmp_path / "nope.ini", "--out", tmp_path) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[transition]\nlambdas = 2\n")
        assert run_cli("sweep", "--config", config, "--out", tmp_path / "out") == 1

    @pytest.mark.parametrize(
        "adoption",
        ["adoption = exp_saturating\nr = 1e-300\n", "adoption = logistic\nk = 1e-300\nt0 = 5\n"],
        ids=["exp_saturating", "logistic"],
    )
    def test_vanishing_adoption_rate_is_a_config_error(self, tmp_path, capsys, adoption):
        # a rate whose normalizer rounds to 0 used to escape as ZeroDivisionError
        config = tmp_path / "vanishing.ini"
        config.write_text(
            "[model]\nid = model_iii\nA = 1\nK = 1\nK_AGI = 1\nL_h = 1\nL_AGI = 0\n"
            "alpha = 0.3\ngamma = 0.2\nbeta1 = 0.4\nbeta2 = 0\n"
            "[scenario]\nhorizon = 10\n" + adoption
        )
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


# the sample files beside each config of TestErrorLines
_SAMPLE_FILES = {
    "samples.csv": "",
    "header_only.csv": "Y,K,L\n",
    "two_rows.csv": "Y,K,L\n1.0,1.0,2.0\n2.0,2.0,3.0\n",
    "tiny_tfp.csv": "Y,K\n1e-310,1e300\n1e-311,1e299\n1e-312,1e298\n1e-313,1e297\n",
}


class TestErrorLines:
    """Each error path prints its one exact line and exits with its status."""

    @pytest.mark.parametrize(
        "command, config, extra, status, err",
        [
            ("simulate", _demo_scenario(("adoption = logistic", "adoption = sigmoid")), (), 1,
             "config error: [scenario].adoption: expected one of linear, logistic,"
             " exp_saturating, got 'sigmoid'"),
            ("simulate", _demo_scenario(("growth = 0.05", "growth = -0.1")), (), 1,
             "config error: [scenario]: agi_capital_growth must be finite and >= 0, got -0.1"),
            ("simulate", _demo_scenario(("threshold = 0.5", "threshold = 1.5")), (), 1,
             "config error: [scenario]: collapse_threshold must lie in (0, 1], got 1.5"),
            ("simulate", _demo_scenario(("k = 0.6", "k = -1")), (), 1,
             "config error: [scenario]: logistic steepness k must be finite and > 0, got -1.0"),
            ("fit", "[fit]\nfactors = K, L\ninput =\n", (), 1,
             "config error: [fit].input: path must not be empty"),
            ("simulate", _demo_scenario().partition("[scenario]")[0], (), 1,
             "config error: simulate needs a [scenario] section"),
            ("fit", "[transition]\nlambda = 2\n", (), 1,
             "config error: fit needs a [fit] section"),
            ("fit", "[fit]\nfactors = K, L\ninput = samples.csv\n", (), 1,
             "config error: sample file {samples} is empty"),
            ("sweep", "[transition]\nlambda = 2\n", ("--lambda", "0"), 1,
             "usage error: --lambda: lambda must be a positive finite real, got 0.0"),
            ("simulate",
             _demo_scenario(("A = 1.0", "A = 1e300"), ("\nK = 1.0", "\nK = 1e300"),
                            ("alpha = 0.3", "alpha = 2")), (), 2,
             "error: step 0: term 'K'**2.0 overflows"),
            ("simulate", _demo_scenario(("horizon = 20", "horizon = x")), (), 1,
             "config error: [scenario].horizon: cannot parse 'x' as an integer"),
            ("eval", "[DEFAULT]\nhorizon = 5\n", (), 1,
             "config error: [DEFAULT] section is not supported"),
            ("eval", _demo_scenario(("\nK = 1.0", "\nK = -1")), (), 1,
             "config error: [model]: ModelIIIParams.K must be >= 0"),
            ("eval", _demo_scenario(("\nK = 1.0", "\nK = inf")), (), 1,
             "config error: [model]: ModelIIIParams.K must be finite, got inf"),
            ("simulate", _demo_scenario(("k = 0.6", "k = nan")), (), 1,
             "config error: [scenario]: logistic steepness k must be finite and > 0, got nan"),
            ("sweep", "[transition]\nlambda = 2\n", ("--lambda", "inf"), 1,
             "usage error: --lambda: lambda must be a positive finite real, got inf"),
            ("sweep", "[transition]\nlambda = 2\n", ("--points", "1"), 1,
             "usage error: --points: n_points must be an integer in [2, 10000000], got 1"),
            ("simulate", _demo_scenario(("\nK = 1.0", "\nK = 0")), (), 1,
             "config error: [scenario]: initial K and K_AGI must be > 0"),
            ("simulate", _demo_scenario(("beta2 = 0.0", "beta2 = -0.1")), (), 1,
             "config error: [scenario]: initial beta2 must be >= 0"),
            ("simulate", _demo_scenario(("t0 = 10", "t0 = -1")), (), 1,
             "config error: [scenario]: logistic midpoint t0 must be finite and >= 0,"
             " got -1.0"),
            ("sweep", _demo_scenario(("k = 0.6", "k = 1e-300")), (), 1,
             "config error: [scenario]: logistic adoption with k=1e-300, t0=10.0 does not rise"
             " over horizon 20: s(horizon) - s(0) rounds to 0.0"),
            ("simulate",
             _demo_scenario(("beta1 = 0.4", "beta1 = 1e308"), ("beta2 = 0.0", "beta2 = 1e308")),
             (), 1, "config error: [scenario]: initial beta1 + beta2 must be finite, got inf"),
            ("fit", "[fit]\nfactors = K, L\ninput = header_only.csv\n", (), 2,
             "error: need at least 3 samples for 2 factors, got 0"),
            ("fit", "[fit]\nfactors = K, L\ninput = two_rows.csv\n", (), 2,
             "error: need at least 3 samples for 2 factors, got 2"),
            ("fit", "[fit]\nfactors = K\ninput = tiny_tfp.csv\n", (), 2,
             "error: fitted ln A = -1404.576906725218 underflows a float: A has no positive value"),
            ("sweep", "[transition]\nn_points = 1\n", (), 1,
             "config error: [transition]: n_points must be an integer in [2, 10000000], got 1"),
            ("sweep", "[transition]\nw0 = 0\n", (), 1,
             "config error: [transition]: w0 must be a positive finite real, got 0.0"),
        ],
        ids=[
            "unknown-adoption", "negative-growth", "threshold-above-1", "negative-steepness",
            "blank-input", "no-scenario", "no-fit", "empty-samples", "zero-lambda",
            "overflowing-term", "unparsable-horizon", "default-section", "negative-capital",
            "infinite-capital", "nan-steepness", "infinite-lambda", "one-point",
            "zero-capital", "negative-beta2", "negative-t0", "path-cannot-rise",
            "elasticity-total-overflows", "header-only-samples", "no-more-rows-than-factors",
            "tfp-underflows", "one-point-config", "zero-w0",
        ],
    )
    def test_one_exact_line(self, tmp_path, capsys, command, config, extra, status, err):
        (tmp_path / "config.ini").write_text(config)
        for name, samples in _SAMPLE_FILES.items():
            (tmp_path / name).write_text(samples)
        argv = (command, "--config", tmp_path / "config.ini", "--out", tmp_path / "out", *extra)
        assert run_cli(*argv) == status
        samples = (tmp_path / "config.ini").resolve().parent / "samples.csv"
        assert capsys.readouterr().err == err.format(samples=samples) + "\n"


class TestUnwritableOutput:
    """An output path that cannot be written is a one-line usage error, not a traceback."""

    def assert_cannot_write(self, capsys, argv, path):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {path}: ") and err.count("\n") == 1

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        # out_dir.mkdir used to escape as a FileExistsError traceback
        out = tmp_path / "F"
        out.write_text("kept\n")
        argv = ("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", out)
        self.assert_cannot_write(capsys, argv, out)
        assert out.read_text() == "kept\n"

    def test_artifact_path_is_a_directory(self, tmp_path, capsys):
        target = tmp_path / "power_curve.csv"
        target.mkdir()
        argv = ("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path)
        self.assert_cannot_write(capsys, argv, target)
        assert list(tmp_path.iterdir()) == [target]  # no temp file, no SVG

    @pytest.mark.parametrize("old_csv", [None, "old\n"], ids=["fresh", "existing"])
    def test_second_artifact_failing_undoes_the_first(self, tmp_path, capsys, old_csv):
        # the CSV used to be renamed into place before the SVG rename failed
        csv_path, svg_path = tmp_path / "power_curve.csv", tmp_path / "power_curve.svg"
        svg_path.mkdir()
        if old_csv is not None:
            csv_path.write_text(old_csv)
        argv = ("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path)
        self.assert_cannot_write(capsys, argv, svg_path)
        if old_csv is None:
            assert sorted(tmp_path.iterdir()) == [svg_path]
        else:
            assert sorted(tmp_path.iterdir()) == [csv_path, svg_path]
            assert csv_path.read_text() == old_csv

    @pytest.mark.parametrize("device", ["closed pipe", "/dev/full"])
    def test_stdout_that_cannot_be_written(self, tmp_path, device):
        # the collapse line was printed after series.csv was renamed into
        # place, and the OSError escaped as a traceback; the interpreter's
        # own flush at exit must fail no second time
        if device == "/dev/full":
            if not os.path.exists(device):
                pytest.skip("no /dev/full")
            stdout, reason = os.open(device, os.O_WRONLY), errno.ENOSPC
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
            reason = errno.EPIPE
        out = tmp_path / "out"
        argv = ["simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", out]
        try:
            result = subprocess.run(
                [sys.executable, "-m", "agiecon", *map(str, argv)],
                stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
            )
        finally:
            os.close(stdout)
        assert result.returncode == 1
        assert result.stderr == f"usage error: cannot write stdout: {os.strerror(reason)}\n"
        assert not out.exists()

    def test_closed_stdout_pipe_in_process(self, tmp_path, capsys, monkeypatch):
        # the closed pipe above, in this process, where the coverage gate's
        # tracer sees the handler run
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            out = tmp_path / "out"
            assert run_cli("simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]], ids=["help", "eval-help"])
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_help_that_cannot_be_written(self, argv, flags):
        # argparse dropped the failed write: unbuffered the command exited 0
        # with nothing on stderr, buffered the interpreter's flush at exit
        # failed with status 120 and a two-line report
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, *flags, "-m", "agiecon", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env, timeout=120,
            )
        assert result.returncode == 1
        assert result.stderr == f"usage error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_help_to_a_closed_pipe_in_process(self, capsys, monkeypatch):
        # the same failure in this process, where the coverage gate's tracer
        # sees print_help run
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert run_cli("eval", "--help") == 1
        err = capsys.readouterr().err
        assert err == f"usage error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"

    def test_no_stdout_at_all(self, tmp_path, monkeypatch):
        # where fd 1 was closed at start, sys.stdout is None and print does nothing
        monkeypatch.setattr(sys, "stdout", None)
        assert run_cli("simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", tmp_path) == 0
        assert (tmp_path / "series.csv").read_bytes() == (GOLDEN / "series.csv").read_bytes()


class TestUnreadableInput:
    """Undecodable or oversized input is a one-line config error, not a traceback."""

    def assert_config_error(self, capsys, argv):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_undecodable_config_file(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_bytes(b"[transition]\nlambda = 2\xff\n")
        self.assert_config_error(capsys, ("sweep", "--config", config, "--out", tmp_path / "out"))

    @pytest.mark.parametrize(
        "samples",
        [b"Y,K,L\n1.0,1.0,1.0\xff\n", b"Y,K,L\n" + b"1" * 200_000 + b",1.0,1.0\n"],
        ids=["undecodable", "oversized-cell"],
    )
    def test_unreadable_sample_file(self, tmp_path, capsys, samples):
        (tmp_path / "samples.csv").write_bytes(samples)
        config = tmp_path / "fit.ini"
        config.write_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        self.assert_config_error(capsys, ("fit", "--config", config, "--out", tmp_path / "out"))


    def test_undecodable_sample_file_names_the_byte_offset(self, tmp_path, capsys):
        # the position used to count from the start of the last 8 KiB read
        samples = b"Y,K,L\n" + b"1.0,1.0,1.0\n" * 2000 + b"\xff\n"
        (tmp_path / "samples.csv").write_bytes(samples)
        config = tmp_path / "fit.ini"
        config.write_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read sample file ") and err.count("\n") == 1
        assert f"in position {len(samples) - 2}: " in err

    @pytest.mark.parametrize(
        "first_row",
        [b'"1.0",1.0,1.0\n', b"1.0,1.0\n", b"1.0,abc,1.0\n", b"1" * 200_000 + b",1.0,1.0\n"],
        ids=["quoted", "short", "unparsable", "oversized-cell"],
    )
    def test_a_decode_error_past_a_refused_row_is_the_one_reported(
        self, tmp_path, capsys, first_row
    ):
        # the file is read on to its end past a row the flat reader refuses,
        # and past a row or a csv module error the csv module stops at, and
        # its decode error is reported, counted from the start of the file
        samples = b"Y,K,L\n" + first_row + b"1.0,1.0,1.0\n" * 2000 + b"\xff\n"
        (tmp_path / "samples.csv").write_bytes(samples)
        config = tmp_path / "fit.ini"
        config.write_text("[fit]\nfactors = K, L\ninput = samples.csv\n")
        assert run_cli("fit", "--config", config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read sample file ") and err.count("\n") == 1
        assert f"in position {len(samples) - 2}: " in err


def entry_calls(monkeypatch):
    """The order in which the process entry calls ``gc.disable``, ``cli.main``
    and ``gc.freeze``, filled in as it runs.  The collector calls are fakes,
    so this test process keeps its collector on and unfrozen."""
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: (calls.append("main"), main())[1])
    return calls


def test_module_runs_in_process(tmp_path, monkeypatch):
    # python -m agiecon, with its __main__ module traced like the rest of the package
    argv = ["agiecon", "eval", "--config", str(CONFIGS / "eval_model3.ini"), "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    calls = entry_calls(monkeypatch)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append((tmp_path / "eval.csv").exists()))
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("agiecon", run_name="__main__")
    assert exited.value.code == 0
    # the collector goes off before the command, and the freeze comes once,
    # after the command wrote its artifact
    assert calls == ["disable", "main", True]
    assert (tmp_path / "eval.csv").read_bytes() == (GOLDEN / "eval.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, usage",
    [(["--help"], "usage: agiecon [-h]"), (["eval", "--help"], "usage: agiecon eval [-h]")],
    ids=["help", "eval-help"],
)
def test_help_returns_0_in_process(argv, usage, capsys):
    # argparse's help action used to raise SystemExit(0) out of main
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage)
    assert "show this help message and exit" in captured.out and captured.err == ""


def test_module_help_freezes_before_exit(monkeypatch, capsys):
    # python -m agiecon --help: the process entry reaches gc.freeze() as any command does
    monkeypatch.setattr(sys, "argv", ["agiecon", "--help"])
    calls = entry_calls(monkeypatch)
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("agiecon", run_name="__main__")
    assert exited.value.code == 0
    assert calls == ["disable", "main", "freeze"]
    assert capsys.readouterr().out.startswith("usage: agiecon [-h]")


def test_main_leaves_the_collector_unfrozen(tmp_path):
    # only the process entry freezes; library code and tests call main in process
    frozen = gc.get_freeze_count()
    assert run_cli("eval", "--config", CONFIGS / "eval_model3.ini", "--out", tmp_path) == 0
    assert gc.get_freeze_count() == frozen


def garbage_after(argv):
    """Run ``main(argv)`` in process with the collector off, as the process
    entry runs it, and return the count of unreachable objects it left."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert run_cli(*argv) == 0
    finally:
        if enabled:
            gc.enable()
    return gc.collect()


def test_commands_leave_no_cycles_that_grow_with_the_run(tmp_path):
    # the process entry turns the collector off, so a reference cycle per
    # record, window or point would hold its memory until the process exits
    demo = (CONFIGS / "simulate_demo.ini").read_text(encoding="utf-8")
    counts = {}
    for horizon in (2000, 20000):
        config = tmp_path / f"simulate_{horizon}.ini"
        text = demo.replace("horizon = 20", f"horizon = {horizon}")
        config.write_text(text.replace("growth = 0.05", "growth = 0.0001"), encoding="utf-8")
        argv = ("simulate", "--config", config, "--out", tmp_path / "simulate")
        counts["simulate", horizon] = garbage_after(argv)
    for points in (2000, 20000):
        argv = ("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path / "sweep")
        counts["sweep", points] = garbage_after((*argv, "--points", points))
    assert (tmp_path / "simulate" / "series.csv").read_bytes().count(b"\n") == 1 + 20001
    assert counts["simulate", 20000] <= counts["simulate", 2000]
    assert counts["sweep", 20000] <= counts["sweep", 2000]


def test_console_script_is_the_module_entry():
    # the installed agiecon script freezes before exit as python -m agiecon does
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert 'agiecon = "agiecon.__main__:run"' in lines


def test_module_entry_point(tmp_path):
    # exercise the installed entry path end to end in a real process
    result = subprocess.run(
        [
            sys.executable, "-m", "agiecon",
            "sweep", "--config", str(CONFIGS / "sweep_default.ini"), "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "power_curve.csv").read_bytes() == (GOLDEN / "power_curve.csv").read_bytes()
