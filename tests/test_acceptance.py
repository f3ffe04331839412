"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and runtime budgets are fixed here, not calibrated later.
"""

import math
import time

import numpy as np

from bsvielab import cones
from bsvielab.harness.report import render_report
from bsvielab.harness.runner import ScenarioConfig, run_experiment, run_suite


def _report(criterion: int, ok: bool, summary: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} criterion {criterion}: {summary} [{elapsed:.2f}s < {limit:.0f}s]")
    assert ok, f"criterion {criterion}: {summary}"
    assert elapsed < limit, f"criterion {criterion} exceeded its runtime budget"


def test_criterion_01_cone_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True
    for k in range(1000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.uniform(-1.0, 1.0, (n, m))
        ok &= cones.cone_preservation_check(a, 8, k) == cones.is_nonneg(a, 0.0)
    _report(1, ok, "vertex test == entrywise nonnegativity on 1000 matrices",
            time.perf_counter() - t0, 1.0)


def test_criterion_02_forward_positivity_and_necessity():
    t0 = time.perf_counter()
    v = run_experiment(ScenarioConfig(scenario="prop2.2-random", trials=200))
    ok = v.conclusion_held and v.agrees_with_expectation
    _report(2, ok, "200 exact-positivity trials + injected-violation necessity",
            time.perf_counter() - t0, 30.0)


def test_criterion_03_bsde_duality():
    t0 = time.perf_counter()
    v = run_experiment(ScenarioConfig(scenario="bsde-duality-random", trials=50))
    worst = v.worst_violation + 1e-10  # check value = discrepancy - 1e-10
    ok = v.conclusion_held and worst <= 1e-10
    _report(3, ok, f"max pairing discrepancy {worst:.2e} <= 1e-10 over 50 specs",
            time.perf_counter() - t0, 10.0)


def test_criterion_04_backward_comparison_families():
    t0 = time.perf_counter()
    v_bsde = run_experiment(ScenarioConfig(scenario="thm2.5-random", trials=200))
    v_bsvie = run_experiment(ScenarioConfig(scenario="thm3.2-random", trials=200))
    # check value = -slack, bound 1e-12: nodewise slack >= -1e-12
    ok = v_bsde.conclusion_held and v_bsvie.conclusion_held
    _report(4, ok, "200+200 ordered trials: nodewise slack >= -1e-12",
            time.perf_counter() - t0, 120.0)


def test_criterion_05_counterexample_gallery():
    t0 = time.perf_counter()
    msgs = []

    v26 = run_experiment(ScenarioConfig(scenario="ex2.6"))
    ok = (not v26.conclusion_held) and v26.details["oracle_error"] <= 5e-3
    ok &= v26.details["x_at_horizon"] < 0.0 and v26.details["steps"] == 2**10
    msgs.append("ex2.6")

    v27 = run_experiment(ScenarioConfig(scenario="ex2.7", depth=14))
    v28 = run_experiment(ScenarioConfig(scenario="ex2.8", depth=14))
    ok &= v27.details["violation_probability"] > 0.0
    ok &= v28.details["violation_probability"] > 0.0
    ok &= v28.details["transform_identity_error"] <= 1e-12
    msgs.append("ex2.7/ex2.8")

    v210 = run_experiment(ScenarioConfig(scenario="ex2.10", depth=12))
    ok &= v210.details["criterion_leaves"] > 0 and not v210.conclusion_held
    msgs.append("ex2.10")

    v33 = run_experiment(ScenarioConfig(scenario="ex3.3"))
    ok &= abs(v33.details["y_at_zero"] - (3.0 * math.exp(-2.0) - 1.0)) <= 5e-3
    ok &= v33.details["y_at_zero"] < 0.0
    msgs.append("ex3.3")

    v34 = run_experiment(ScenarioConfig(scenario="ex3.4"))
    ok &= v34.details["y_at_zero"] < 0.0 and v34.details["oracle_error"] <= 1e-2
    msgs.append("ex3.4")

    v35 = run_experiment(ScenarioConfig(scenario="ex3.5"))
    h35 = 1.0 / v35.details["steps"]
    ok &= v35.conclusion_held and v35.details["min_y"] >= -h35
    msgs.append("ex3.5")

    v38 = run_experiment(ScenarioConfig(scenario="ex3.8", depth=12))
    ok &= v38.details["expected_time_integral"] < 0.0
    msgs.append("ex3.8")

    _report(5, ok, "gallery reproduced: " + ", ".join(msgs), time.perf_counter() - t0, 120.0)


def test_criterion_06_stepfn_positivity():
    t0 = time.perf_counter()
    v = run_experiment(ScenarioConfig(scenario="thm3.6-random", trials=50))
    ok = v.conclusion_held
    _report(6, ok, "50 step-kernel trials: exact Y >= 0 and family agreement <= 1e-10",
            time.perf_counter() - t0, 60.0)


def test_criterion_07_weak_comparison():
    t0 = time.perf_counter()
    v = run_experiment(ScenarioConfig(scenario="thm3.10-random", trials=100))
    ok = v.conclusion_held and v.details["pointwise_failures"] >= 1
    _report(
        7, ok,
        f"100 trials: weak ordering slack >= -1e-10 at every node while pointwise "
        f"ordering fails in {v.details['pointwise_failures']} draws",
        time.perf_counter() - t0, 120.0,
    )


def test_criterion_08_msolution_reconstruction():
    t0 = time.perf_counter()
    v_struct = run_experiment(ScenarioConfig(scenario="msolution-structural", trials=30))
    v_weak = run_experiment(ScenarioConfig(scenario="thm3.9-random", trials=30))
    v38 = run_experiment(ScenarioConfig(scenario="ex3.8", depth=12))
    ok = (
        v_struct.conclusion_held
        and v_weak.conclusion_held
        and v38.details["msolution_residual"] <= 1e-12
    )
    _report(8, ok, "representation residual <= 1e-12 on every M-solution",
            time.perf_counter() - t0, 60.0)


def test_criterion_09_picard_contraction():
    t0 = time.perf_counter()
    v = run_experiment(ScenarioConfig(scenario="picard-contraction", trials=50))
    ok = v.conclusion_held
    _report(9, ok, "50 trials: weighted-norm ratio < 1 at default rate, iterates decrease",
            time.perf_counter() - t0, 60.0)


def test_criterion_10_suite_determinism(suite_verdicts):
    # the first run is the session's shared offset-0 suite; the second is this test's own
    t0 = time.perf_counter()
    first_verdicts = suite_verdicts
    first = render_report(first_verdicts, "csv")
    second = render_report(run_suite(), "csv")
    ok = first == second and first.encode() == second.encode()
    ok &= all(v.agrees_with_expectation for v in first_verdicts)
    _report(10, ok, "full suite twice with the same seeds: byte-identical reports",
            time.perf_counter() - t0, 300.0)
