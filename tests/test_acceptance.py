"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertion that enforces it.
"""

import math
import random
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from agiecon import (
    FactorBundle,
    LimitDirection,
    LimitKind,
    ModelIIIParams,
    ModelIIParams,
    ModelIParams,
    ScenarioConfig,
    AdoptionPath,
    TransitionParams,
    classify_limit,
    euler_residual,
    fit_cobb_douglas,
    homogeneity_degree,
    human_power,
    marginal_product,
    model_output,
    model_technology,
    output,
    power_curve,
    power_index_model3,
    run_scenario,
)
from agiecon.cli import main
from agiecon.diagnostics import (
    _central_difference,
    _max_or_nan,
    _random_model3,
    _random_transition,
)
from conftest import seeded_instances, synthetic_table

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

_SUITE_START = time.perf_counter()


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number:02d}: {label}{suffix}")
    assert ok, f"criterion {number:02d}: {label}{suffix}"


def seeded_transition_params(n, seed):
    rng = random.Random(seed)
    return [_random_transition(rng) for _ in range(n)]


@pytest.fixture(scope="module")
def check_report(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("check")
    status = main(["check", "--config", str(CONFIGS / "sweep_default.ini"), "--out", str(out_dir)])
    assert status == 0
    return (out_dir / "check.txt").read_text()


def test_criterion_01_decentralized_endpoint():
    started = time.perf_counter()
    worst = _max_or_nan(
        abs(human_power(tp, 0.0) - 1.0) for tp in seeded_transition_params(100, seed=1)
    )
    elapsed = time.perf_counter() - started
    report(1, "human_power(tp, 0) = 1 within 1e-12 on 100 seeded sets",
           worst <= 1e-12 and elapsed < 1.0, f"max_err={worst:.3e} t={elapsed:.3f}s")


def test_criterion_02_centralized_endpoint_and_discrepancy_report(check_report):
    started = time.perf_counter()
    worst = _max_or_nan(
        abs(human_power(tp, 1.0)) for tp in seeded_transition_params(100, seed=2) if tp.w_inf > 0
    )
    lines = {line.split(" ")[1]: line.split(" ")[2] for line in check_report.splitlines()}
    both_reported = all(
        float(lines[f"terminal_power_full_adoption_lambda_{lam}"]) == 0.0
        and abs(float(lines[f"terminal_wage_ratio_lambda_{lam}"]) - math.exp(-lam)) <= 1e-9
        for lam in (1, 2, 5)
    )
    elapsed = time.perf_counter() - started
    report(2, "human_power(tp, 1) = 0 within 1e-12 and check.txt reports both terminal values",
           worst <= 1e-12 and both_reported and elapsed < 1.0,
           f"max_err={worst:.3e} t={elapsed:.3f}s")


def test_criterion_03_power_curve_family():
    started = time.perf_counter()
    ok = True
    mid_errors = []
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
        p_h = power_curve(TransitionParams(w0=1.0, w_inf=1.0, lam=lam), 1001).p_h
        ok = ok and all(b < a for a, b in zip(p_h, p_h[1:]))
        mid_errors.append(abs(p_h[500] - math.exp(-lam / 2.0)))
    worst_mid = _max_or_nan(mid_errors)
    elapsed = time.perf_counter() - started
    report(3, "1001-point curves strictly decreasing, midpoint e^(-lambda/2) within 1e-12",
           ok and worst_mid <= 1e-12 and elapsed < 1.0,
           f"max_mid_err={worst_mid:.3e} t={elapsed:.3f}s")


def test_criterion_04_euler_identity():
    worst = _max_or_nan(
        abs(euler_residual(tech, bundle)) / abs(output(tech, bundle))
        for tech, bundle in seeded_instances(1000, seed=4)
    )
    report(4, "Euler residual <= 1e-10 * |Y| on 1000 seeded instances",
           worst <= 1e-10, f"max_rel={worst:.3e}")


def test_criterion_05_homogeneity():
    errors = []
    for tech, bundle in seeded_instances(1000, seed=4):
        h = homogeneity_degree(tech)
        y = output(tech, bundle)
        for t in (0.5, 1.3, 2.0):
            expected = t**h * y
            scaled = FactorBundle(tuple((n, x * t) for n, x in bundle.entries))
            errors.append(abs(output(tech, scaled) - expected) / abs(expected))
    worst = _max_or_nan(errors)
    report(5, "output(t*x) = t^h * output(x) within 1e-12 for t in {0.5, 1.3, 2}",
           worst <= 1e-12, f"max_rel={worst:.3e}")


def test_criterion_06_gradient_correctness():
    errors = []
    rng = random.Random(6)
    for tech, bundle in seeded_instances(1000, seed=6):
        name = rng.choice(tech.factor_names())
        numeric = _central_difference(tech, bundle, name)
        analytic = marginal_product(tech, bundle, name)
        errors.append(abs(numeric - analytic) / abs(analytic))
    worst = _max_or_nan(errors)
    report(6, "analytic marginal products match central differences within 1e-6",
           worst <= 1e-6, f"max_rel={worst:.3e}")


def test_nan_error_fails_its_criterion(monkeypatch):
    # max() keeps or drops a NaN operand by its position; _max_or_nan does not
    monkeypatch.setitem(globals(), "marginal_product", lambda *args: math.nan)
    with pytest.raises(AssertionError):
        test_criterion_06_gradient_correctness()


def test_criterion_07_power_index_identity():
    rng = random.Random(7)
    errors = []
    for _ in range(500):
        params = _random_model3(rng)
        expected = params.beta1 / (params.beta1 + params.beta2)
        errors.append(abs(power_index_model3(params) - expected))
    worst = _max_or_nan(errors)
    report(7, "wage-based power index equals beta1/(beta1+beta2) within 1e-12 on 500 instances",
           worst <= 1e-12, f"max_abs={worst:.3e}")


def test_criterion_08_limit_classifications(check_report):
    model1 = ModelIParams(A=1, K=1, K_AGI=1, L=1, alpha=0.5, beta=0.5)
    model2 = ModelIIParams(A=1, K=1, L1=1, L2=1, alpha=0.3, beta1=0.4, beta2=0.2)
    first = classify_limit(model1, "L", LimitDirection.TO_ZERO_PLUS, "L")
    second = classify_limit(model2, "beta1", LimitDirection.TO_ZERO_PLUS, "L1")
    third = classify_limit(model1, "K_AGI", LimitDirection.TO_INFINITY)
    contrast_documented = (
        "limit_human_wage_as_labor_vanishes_diverges_not_zero DIVERGES" in check_report
    )
    report(8, "limit kinds DIVERGES/ZERO/DIVERGES with the wage-limit contrast in check.txt",
           first.kind is LimitKind.DIVERGES
           and second.kind is LimitKind.ZERO
           and third.kind is LimitKind.DIVERGES
           and contrast_documented)


def test_criterion_09_scenario_terminal_state():
    initial = ModelIIIParams(
        A=1.0, K=1.0, K_AGI=1.0, L_h=1.0, L_AGI=0.0,
        alpha=0.3, gamma=0.2, beta1=0.4, beta2=0.1,
    )
    paths = (
        AdoptionPath.linear(),
        AdoptionPath.logistic(k=0.8, t0=5.0),
        AdoptionPath.exp_saturating(r=0.5),
    )
    ok = True
    errors = []
    for path in paths:
        for horizon in (10, 100, 1000):
            series = run_scenario(
                ScenarioConfig(horizon=horizon, initial_model3=initial, adoption=path)
            )
            final = series[-1]
            ok = ok and final.s == 1.0 and final.w_h == 0.0 and final.p_h_elastic == 0.0
            for record in series:
                errors.append(abs(record.L_h + record.L_AGI - 1.0))
                errors.append(abs(record.beta1 + record.beta2 - 0.5))
    worst = _max_or_nan(errors)
    report(9, "terminal w_h = 0 and p_h_elastic = 0 exactly; conservation within 1e-12",
           ok and worst <= 1e-12, f"max_conservation_err={worst:.3e}")


def test_criterion_10_calibration_round_trip():
    rng = random.Random(10)
    truth = {"K": 0.4, "L_h": 0.35, "L_AGI": 0.2}
    tfp = 1.7

    def make_samples(n, sigma):
        return synthetic_table(rng, n, tfp, truth, noise_sigma=sigma)

    clean = fit_cobb_douglas(make_samples(200, 0.0), list(truth))
    clean_ok = abs(clean.tfp_estimate - tfp) <= 1e-8 and all(
        abs(clean.elasticity_estimates[name] - value) <= 1e-8 for name, value in truth.items()
    )
    noisy = fit_cobb_douglas(make_samples(1000, 0.01), list(truth))
    noisy_worst = _max_or_nan(
        abs(noisy.elasticity_estimates[name] - value) for name, value in truth.items()
    )
    report(10, "noiseless recovery within 1e-8; sigma=0.01 elasticity error <= 0.02",
           clean_ok and noisy_worst <= 0.02, f"noisy_max_err={noisy_worst:.3e}")


def test_criterion_11_cli_golden_files(tmp_path):
    sweep_dir = tmp_path / "sweep"
    sim_dir = tmp_path / "sim"
    ok = main(["sweep", "--config", str(CONFIGS / "sweep_default.ini"), "--out", str(sweep_dir)]) == 0
    ok = ok and main(
        ["simulate", "--config", str(CONFIGS / "simulate_demo.ini"), "--out", str(sim_dir)]
    ) == 0
    csv_ok = (
        (sweep_dir / "power_curve.csv").read_bytes() == (GOLDEN / "power_curve.csv").read_bytes()
        and (sim_dir / "series.csv").read_bytes() == (GOLDEN / "series.csv").read_bytes()
    )
    root = ET.fromstring((sweep_dir / "power_curve.svg").read_text())
    ns = "{http://www.w3.org/2000/svg}"
    texts = list(root.iter(f"{ns}text"))
    svg_ok = (
        root.tag == f"{ns}svg"
        and root.get("width") == "800"
        and root.get("height") == "600"
        and len([t for t in texts if t.get("class") == "xtick"]) >= 5
        and len([t for t in texts if t.get("class") == "ytick"]) >= 5
        and len([t for t in texts if t.get("class") == "title"]) == 1
        and len([t for t in texts if t.get("class") == "legend"]) == 1
        and len([p for p in root.iter(f"{ns}polyline") if p.get("class") == "curve"]) == 1
    )
    report(11, "SWEEP and SIMULATE byte-identical to goldens; SVG structural contract holds",
           ok and csv_ok and svg_ok)


def test_criterion_12_runtime_budget():
    elapsed = time.perf_counter() - _SUITE_START
    report(12, "acceptance suite runtime within the 60 s budget",
           elapsed <= 60.0, f"t={elapsed:.2f}s")
