import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from agiecon.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*argv):
    return main([str(a) for a in argv])


def texts_by_class(root, cls):
    return [el for el in root.iter(f"{SVG_NS}text") if el.get("class") == cls]


class TestEval:
    def test_model3_eval(self, tmp_path):
        assert run_cli("eval", "--config", CONFIGS / "eval_model3.ini", "--out", tmp_path) == 0
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["Y"]) == pytest.approx(30.0, rel=1e-9)
        assert float(values["w_L_h"]) == pytest.approx(0.5 * 30.0 / 25.0, rel=1e-9)
        assert float(values["w_L_AGI"]) == pytest.approx(0.7 * 30.0 / 1.0, rel=1e-9)

    def test_zero_labor_is_a_computation_error(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text(
            "[model]\nid = model_i\nA = 1\nK = 1\nK_AGI = 1\nL = 0\nalpha = 0.5\nbeta = 0.5\n"
        )
        assert run_cli("eval", "--config", config, "--out", tmp_path / "out") == 2


class TestSweep:
    def test_golden_bytes(self, tmp_path):
        assert run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path) == 0
        produced = (tmp_path / "power_curve.csv").read_bytes()
        assert produced == (GOLDEN / "power_curve.csv").read_bytes()

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

    def test_bad_points_flag(self, tmp_path):
        assert (
            run_cli("sweep", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path, "--points", 1)
            == 1
        )


class TestSimulate:
    def test_golden_bytes(self, tmp_path, capsys):
        assert run_cli("simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", tmp_path) == 0
        produced = (tmp_path / "series.csv").read_bytes()
        assert produced == (GOLDEN / "series.csv").read_bytes()
        assert "collapse" in capsys.readouterr().out

    def test_schema(self, tmp_path):
        assert run_cli("simulate", "--config", CONFIGS / "simulate_demo.ini", "--out", tmp_path) == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == (
            "t,s,beta1,beta2,K,K_AGI,L_h,L_AGI,Y,w_h,w_AGI,p_h_elastic,p_h_transition,wage_bill"
        )
        assert len(lines) == 22  # horizon + 1 records

    def test_needs_model3(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[scenario]\nhorizon = 5\n")
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 1


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


class TestCheck:
    def test_report_format_and_content(self, tmp_path):
        assert run_cli("check", "--config", CONFIGS / "sweep_default.ini", "--out", tmp_path) == 0
        lines = (tmp_path / "check.txt").read_text().splitlines()
        assert lines
        for line in lines:
            status, name, value = line.split(" ")
            assert status in ("PASS", "FAIL")
        names = {line.split(" ")[1]: line.split(" ")[2] for line in lines}
        assert all(line.startswith("PASS") for line in lines)
        assert names["limit_human_wage_as_labor_vanishes_diverges_not_zero"] == "DIVERGES"
        for lam in (1, 2, 5):
            assert float(names[f"terminal_power_full_adoption_lambda_{lam}"]) == 0.0
            assert float(names[f"terminal_wage_ratio_lambda_{lam}"]) == pytest.approx(
                math.exp(-lam), rel=1e-9
            )


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
