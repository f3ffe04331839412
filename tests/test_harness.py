import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bsvielab import backward, forward, oracles
from bsvielab.harness import cli, scenarios
from bsvielab.harness.hypotheses import CONDITION_ORDER, HypothesisReport
from bsvielab.harness.report import emit_report, render_report
from bsvielab.harness.runner import ComparisonVerdict, ScenarioConfig, resolve, run_experiment
from bsvielab.harness.scenarios import REGISTRY, Check, ScenarioOutcome, scenario_names
from bsvielab.lattice import AdaptedProcess


def test_registry_contains_gallery_and_theorem_families():
    names = scenario_names()
    for expected in ("ex2.6", "ex2.7", "ex2.8", "ex2.10", "ex3.3", "ex3.4", "ex3.5", "ex3.8"):
        assert expected in names
    assert any(n.startswith("thm2.5") for n in names)
    assert any(n.startswith("thm3.2") for n in names)
    assert any(n.startswith("thm3.10") for n in names)


def test_every_scenario_declares_expected_verdict():
    for name, entry in REGISTRY.items():
        assert entry.expected_holds in (True, False)
        assert entry.description


def test_hypothesis_culprits_match_the_analysis():
    expectations = {
        "ex3.3": "free_term_monotone",
        "ex3.4": "kernel_t_monotone",
        "ex2.7": "free_term_monotone",
        "ex2.8": "diffusion_t_free",
        "ex2.10": "kernel_t_monotone",
    }
    for name, culprit in expectations.items():
        v = run_experiment(ScenarioConfig(scenario=name))
        assert v.hypotheses.conditions[culprit].status == "violated", name
    v = run_experiment(ScenarioConfig(scenario="ex3.5"))
    assert all(c.status != "violated" for c in v.hypotheses.conditions.values())
    assert v.conclusion_held
    v = run_experiment(ScenarioConfig(scenario="ex3.8"))
    assert v.hypotheses.conditions["zeta_coeff_s_free"].status == "violated"


def test_counterexamples_fail_and_families_hold():
    quick = {
        "ex2.6": False, "ex3.3": False,
        "thm2.3-random": True, "bsde-duality-random": True,
    }
    for name, holds in quick.items():
        v = run_experiment(ScenarioConfig(scenario=name))
        assert v.conclusion_held is holds
        assert v.agrees_with_expectation
        assert v.conclusion_held == (v.worst_violation <= 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_non_finite_check_never_passes(bad, size):
    passing = [Check(f"c{k}", 0.0, 1.0) for k in range(size - 1)]
    for pos in range(size):
        checks = passing[:pos] + [Check("bad", bad, 1.0)] + passing[pos:]
        outcome = ScenarioOutcome(HypothesisReport.not_applicable(), checks)
        assert outcome.worst_violation == math.inf
        assert outcome.conclusion_held is False
    checks = passing + [Check("x", 0.5, 1.0)]
    finite = ScenarioOutcome(HypothesisReport.not_applicable(), checks)
    assert finite.worst_violation == -0.5 and finite.conclusion_held


def test_nan_trial_fails_its_family(monkeypatch):
    # a NaN discrepancy on trial 1 must be the worst trial, not be skipped
    real = backward.bsde_duality_check
    calls = []

    def nan_on_second_trial(*args):
        calls.append(None)
        d = real(*args)
        return math.nan if len(calls) == 2 else d

    monkeypatch.setattr(backward, "bsde_duality_check", nan_on_second_trial)
    outcome = scenarios._build_bsde_duality(8, 20243, 3)
    assert outcome.conclusion_held is False
    assert outcome.worst_violation == math.inf
    assert outcome.witness.startswith("trial=1,s_index=")


@pytest.mark.parametrize("family", ["bsde", "bsvie"])
def test_nan_below_the_root_fails_the_ordering_slack(monkeypatch, family):
    # NaN at level 1 of the upper solution of trial 0; level 0 stays finite
    name = "solve_bsde" if family == "bsde" else "solve_bsvie_family"
    real = getattr(backward, name)
    calls = []

    def nan_in_first_upper_solution(*args, **kwargs):
        calls.append(None)
        sol = real(*args, **kwargs)
        if len(calls) == 2:
            levels = sol.y if family == "bsde" else sol.y.levels
            levels[1] = levels[1].copy()
            levels[1][0, 0] = math.nan
        return sol

    monkeypatch.setattr(backward, name, nan_in_first_upper_solution)
    build = scenarios._build_bsde_comparison if family == "bsde" else scenarios._build_bsvie_comparison
    outcome = build(6, 20244, 3)
    assert outcome.conclusion_held is False
    assert outcome.worst_violation == math.inf
    assert outcome.witness == "trial=0"


def test_bsde_comparison_family_holds_at_pinned_seed():
    v = run_experiment(ScenarioConfig(scenario="thm2.5-random", seed=7, trials=50))
    assert v.conclusion_held


def test_every_registry_scenario_agrees_with_its_expected_verdict(suite_verdicts):
    from bsvielab.harness.runner import run_suite

    verdicts = suite_verdicts
    for v in verdicts:
        assert v.agrees_with_expectation, v.scenario
    # scenario-level parallelism is a pure fan-out: identical results
    parallel = run_suite(jobs=4)
    assert render_report(verdicts, "csv") == render_report(parallel, "csv")


def test_every_hypothesis_is_decided_in_some_suite_row(suite_verdicts):
    # a condition that reads not-applicable in every row tells the reader nothing
    undecided = [
        name for name in CONDITION_ORDER
        if all(v.hypotheses.conditions[name].status == "not-applicable" for v in suite_verdicts)
    ]
    assert undecided == []


@pytest.mark.parametrize("offset", [0, 311])
def test_suite_report_bytes_match_the_golden_files(offset, suite_verdicts):
    # CSV and JSON of one suite run, byte for byte; refactors keep these bytes
    from bsvielab.harness.runner import run_suite

    verdicts = suite_verdicts if offset == 0 else run_suite(seed_offset=offset)
    data = Path(__file__).parent / "data"
    for fmt in ("csv", "json"):
        golden = (data / f"suite_seed_offset_{offset}.{fmt}").read_bytes()
        assert render_report(verdicts, fmt).encode("utf-8") == golden, fmt


def _nan_valued(out):
    """The solver output ``out`` with every value replaced by NaN."""
    if isinstance(out, tuple):  # (times, values) of a grid solver
        return out[0], np.full_like(out[1], np.nan)
    if isinstance(out, AdaptedProcess):
        return AdaptedProcess(out.lattice, out.dim, [np.full_like(lv, np.nan) for lv in out.levels])
    return dataclasses.replace(out, y=_nan_valued(out.y))


# the solver whose output each gallery builder checks against its oracle
_GALLERY_SOLVERS = {
    "ex2.6": (forward, "solve_linear_fsvie_deterministic"),
    "ex2.7": (forward, "solve_linear_fsvie"),
    "ex2.8": (forward, "solve_linear_fsvie"),
    "ex3.3": (backward, "solve_bsvie_family_deterministic"),
    "ex3.4": (backward, "solve_bsvie_family_deterministic"),
    "ex3.5": (backward, "solve_bsvie_family_deterministic"),
    "ex3.8": (backward, "solve_bsvie_msolution"),
}


@pytest.mark.parametrize("name", sorted(_GALLERY_SOLVERS))
def test_gallery_validity_gate_fails_closed_on_nan(monkeypatch, name):
    module, solver = _GALLERY_SOLVERS[name]
    real = getattr(module, solver)
    monkeypatch.setattr(module, solver, lambda *a, **k: _nan_valued(real(*a, **k)))
    with pytest.raises(RuntimeError) as err:
        run_experiment(ScenarioConfig(scenario=name))
    assert isinstance(err.value.__cause__, scenarios.ScenarioValidityError)


def _ex27_gate_error(monkeypatch, depth, wrong):
    """The validity error of ex2.7 at ``depth`` with ``wrong`` applied to the oracle value."""
    real = oracles.ex27
    run_experiment(ScenarioConfig(scenario="ex2.7", depth=depth))  # the true oracle passes
    monkeypatch.setattr(oracles, "ex27", lambda *a: (wrong(real(*a)[0]), 0.0))
    with pytest.raises(RuntimeError) as err:
        run_experiment(ScenarioConfig(scenario="ex2.7", depth=depth))
    assert isinstance(err.value.__cause__, scenarios.ScenarioValidityError)
    return str(err.value.__cause__)


@pytest.mark.parametrize("depth", [1, 2, 14])
def test_ex27_oracle_gate_trips_on_an_oracle_off_by_more_than_2_sqrt_h(monkeypatch, depth):
    assert "strayed from the closed form" in _ex27_gate_error(monkeypatch, depth, lambda v: v + 3.0)


@pytest.mark.parametrize("depth", [2, 14])
def test_ex27_oracle_gate_trips_on_a_nonnegative_oracle_from_depth_2(monkeypatch, depth):
    # |oracle| is within 2 sqrt(h) of the lattice value there, so only the sign gate trips
    assert "not negative" in _ex27_gate_error(monkeypatch, depth, abs)


# the depths each entry accepts: a random family's range tops out at its default
# depth, and an entry that never reads the depth accepts only its default
ACCEPTED_DEPTHS = {
    "prop2.1-random": range(8, 9),
    "prop2.2-random": range(4, 13),
    "thm2.3-random": range(4, 11),
    "bsde-duality-random": range(3, 9),
    "thm2.5-random": range(4, 11),
    "thm3.2-random": range(4, 10),
    "thm3.6-random": range(5, 11),
    "thm3.7-random": range(4, 10),
    "thm3.9-random": range(4, 9),
    "thm3.10-random": range(5, 10),
    "bsvie-duality-random": range(1, 9),
    "picard-contraction": range(5, 9),
    "msolution-structural": range(4, 9),
    "ex2.6": range(8, 9),
    "ex2.7": range(1, 17),
    "ex2.8": range(1, 17),
    "ex2.10": range(6, 17, 2),
    "ex3.3": range(8, 9),
    "ex3.4": range(8, 9),
    "ex3.5": range(8, 9),
    "ex3.8": range(3, 17),
}
GALLERY = ("ex2.6", "ex2.7", "ex2.8", "ex2.10", "ex3.3", "ex3.4", "ex3.5", "ex3.8")


def test_registry_accepts_the_pinned_depths_up_to_each_random_familys_default():
    assert {name: entry.depths for name, entry in REGISTRY.items()} == ACCEPTED_DEPTHS
    assert sum(len(r) for r in ACCEPTED_DEPTHS.values()) == 131
    for name, entry in REGISTRY.items():
        assert entry.default_depth in entry.depths
        if name not in GALLERY:
            assert entry.depths[-1] == entry.default_depth
    assert sorted(n for n, e in REGISTRY.items() if e.default_seed == 0) == sorted(GALLERY)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_each_scenario_runs_at_its_depths_and_refuses_others(name):
    entry = REGISTRY[name]
    depths = entry.depths
    trials = 1 if name in GALLERY else 2
    for depth in depths[:2]:  # the smallest depths run
        run_experiment(ScenarioConfig(scenario=name, depth=depth, trials=trials))
    refused = [d for d in range(-1, 19) if d not in depths]
    assert refused[:2] == [-1, 0] and refused[-2:] == [17, 18]
    accepted = re.escape(entry.accepted_depths())
    for depth in refused:
        with pytest.raises(ValueError, match=rf"^depth of {re.escape(name)} must be {accepted}, "
                                             rf"got {depth}$"):
            resolve(ScenarioConfig(scenario=name, depth=depth))


def test_ex38_agrees_with_its_verdict_at_every_depth_it_accepts():
    # at depths 1 and 2 the forward solution is never negative, so the
    # indicator free term is empty and the expected time integral is exactly 0
    depths = REGISTRY["ex3.8"].depths
    assert list(depths) == list(range(3, 17))
    for depth in depths:
        assert run_experiment(ScenarioConfig(scenario="ex3.8", depth=depth)).agrees_with_expectation
    for depth in (1, 2):
        message = rf"^depth of ex3.8 must be in \[3, 16\], got {depth}$"
        with pytest.raises(ValueError, match=message):
            resolve(ScenarioConfig(scenario="ex3.8", depth=depth))


def test_ex210_agrees_with_its_verdict_at_every_depth_it_accepts_up_to_12():
    # at depths 2 and 4 no leaf's bracket is negative, so the counterexample
    # cannot show; from depth 6 it does (checked up to 16)
    depths = REGISTRY["ex2.10"].depths
    assert list(depths) == [6, 8, 10, 12, 14, 16]
    for depth in (6, 8, 10, 12):
        verdict = run_experiment(ScenarioConfig(scenario="ex2.10", depth=depth))
        assert verdict.agrees_with_expectation and verdict.details["criterion_leaves"] > 0
    for depth in (2, 4):
        message = rf"^depth of ex2.10 must be in \[6, 16\] in steps of 2, got {depth}$"
        with pytest.raises(ValueError, match=message):
            resolve(ScenarioConfig(scenario="ex2.10", depth=depth))


@pytest.mark.parametrize("name, depth, message", [
    ("thm3.2-random", 1, "depth of thm3.2-random must be in [4, 9], got 1"),
    ("picard-contraction", 4, "depth of picard-contraction must be in [5, 8], got 4"),
    ("bsde-duality-random", 2, "depth of bsde-duality-random must be in [3, 8], got 2"),
    ("ex2.10", 3, "depth of ex2.10 must be in [6, 16] in steps of 2, got 3"),
])
def test_cli_refuses_a_depth_below_a_scenario_minimum_with_exit_2(name, depth, message, capsys):
    assert cli.main(["run", "--scenario", name, "--depth", str(depth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _refuses_before_running(monkeypatch, argv, capsys) -> str:
    """The stderr of ``argv``, after checking that it exits 2 and runs no scenario."""
    ran = []
    for name, entry in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(
            entry, build=lambda *a, name=name: ran.append(name)))
    assert cli.main(argv) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("argv, message", [
    (["run", "--scenario", "thm3.2-random", "--depth", "10"],
     "depth of thm3.2-random must be in [4, 9], got 10"),
    (["run", "--scenario", "ex2.6", "--seed", "7"], "seed of ex2.6 must be 0, got 7"),
    (["run", "--scenario", "ex3.4", "--trials", "5"], "trials of ex3.4 must be 1, got 5"),
])
def test_cli_refuses_a_setting_that_would_not_change_the_run(argv, message, monkeypatch, capsys):
    assert _refuses_before_running(monkeypatch, argv, capsys) == f"error: {message}\n"


@pytest.mark.parametrize("name", GALLERY)
def test_gallery_entries_accept_only_seed_0_and_one_trial(name):
    assert resolve(ScenarioConfig(scenario=name))[2:] == (0, 1)
    assert resolve(ScenarioConfig(scenario=name, seed=0, trials=1))[2:] == (0, 1)
    for seed in (1, 20240, -1):
        with pytest.raises(ValueError, match=rf"^seed of {re.escape(name)} must be 0, got {seed}$"):
            resolve(ScenarioConfig(scenario=name, seed=seed))
    with pytest.raises(ValueError, match=rf"^trials of {re.escape(name)} must be 1, got 2$"):
        resolve(ScenarioConfig(scenario=name, trials=2))


def test_cli_list_prints_the_depths_seeds_and_trials_each_entry_accepts(capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    width = max(len(n) for n in REGISTRY) + 2
    settings = {lines[k].split()[0]: lines[k + 1][width:] for k in range(0, len(lines), 3)}
    assert settings["thm2.5-random"] == (
        "depth in [4, 10] (default 10); seed >= 0 (default 20244), trials >= 1 (default 200)")
    assert settings["prop2.1-random"].startswith("depth 8; seed >= 0 (default 20240)")
    assert settings["ex2.6"] == "depth 8; seed 0, trials 1"
    assert settings["ex2.10"] == "depth in [6, 16] in steps of 2 (default 12); seed 0, trials 1"


def test_run_experiment_is_deterministic():
    a = run_experiment(ScenarioConfig(scenario="thm2.5-random", trials=20))
    b = run_experiment(ScenarioConfig(scenario="thm2.5-random", trials=20))
    assert a.worst_violation == b.worst_violation
    assert a.witness == b.witness


def test_seed_changes_the_draws():
    a = run_experiment(ScenarioConfig(scenario="bsde-duality-random", trials=10, seed=1))
    b = run_experiment(ScenarioConfig(scenario="bsde-duality-random", trials=10, seed=2))
    assert a.worst_violation != b.worst_violation


def _dummy_verdict(name="demo", held=True) -> ComparisonVerdict:
    return ComparisonVerdict(
        scenario=name, theorem="bsde-comparison",
        hypotheses=HypothesisReport.not_applicable(),
        conclusion_held=held, worst_violation=-1.5e-13,
        witness="trial=0", depth=8, seed=1, runtime_ms=12.5, expected_holds=held,
    )


def test_emit_report_trivial_csv(tmp_path):
    path = str(tmp_path / "r.csv")
    emit_report([_dummy_verdict()], "csv", path)
    lines = open(path).read().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("scenario,theorem,hypothesis_flags,conclusion_held")
    assert lines[1].startswith("demo,bsde-comparison,")


def test_emit_report_identical_bytes(tmp_path):
    verdicts = [_dummy_verdict("a"), _dummy_verdict("b", held=False)]
    p1, p2 = str(tmp_path / "1.csv"), str(tmp_path / "2.csv")
    emit_report(verdicts, "csv", p1)
    emit_report(list(reversed(verdicts)), "csv", p2)  # order-insensitive
    assert open(p1, "rb").read() == open(p2, "rb").read()
    j1 = render_report(verdicts, "json")
    assert json.loads(j1)[0]["scenario"] == "a"


def test_emit_report_serializes_17_significant_digits():
    text = render_report([_dummy_verdict()], "csv")
    assert "-1.4999999999999999e-13" in text  # 17 significant digits of -1.5e-13


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="^nothing to report$"):
        emit_report([], "csv", str(tmp_path / "x.csv"))
    assert not (tmp_path / "x.csv").exists()


def test_run_suite_leaves_the_callers_override_configs_unchanged(monkeypatch):
    from bsvielab.harness import runner

    seen = []

    def record(cfg):
        seen.append(dataclasses.replace(cfg))
        return _dummy_verdict(cfg.scenario)

    monkeypatch.setattr(runner, "run_experiment", record)
    cfg = ScenarioConfig(scenario="thm2.5-random")
    default = REGISTRY["thm2.5-random"].default_seed
    runner.run_suite(seed_offset=5, overrides={"thm2.5-random": cfg})
    assert [resolve(c)[2] for c in seen if c.scenario == "thm2.5-random"] == [default + 5]
    assert cfg == ScenarioConfig(scenario="thm2.5-random")
    seen.clear()
    runner.run_suite(overrides={"thm2.5-random": cfg})
    assert [resolve(c)[2] for c in seen if c.scenario == "thm2.5-random"] == [default]


def test_run_suite_adds_the_offset_to_an_overrides_own_seed(monkeypatch):
    from bsvielab.harness import runner

    seen = {}

    def record(cfg):
        seen[cfg.scenario] = resolve(cfg)[2]
        return _dummy_verdict(cfg.scenario)

    monkeypatch.setattr(runner, "run_experiment", record)
    cfg = ScenarioConfig(scenario="thm2.5-random", seed=7)
    runner.run_suite(seed_offset=5, overrides={"thm2.5-random": cfg})
    assert seen["thm2.5-random"] == 12 and cfg.seed == 7
    # a scenario with default seed 0 is deterministic: the offset leaves it alone
    zero = [name for name, entry in REGISTRY.items() if entry.default_seed == 0]
    assert zero and all(seen[name] == 0 for name in zero)


def test_cli_list_and_exit_codes(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ex2.6" in out and "thm3.10-random" in out
    assert cli.main(["run", "--scenario", "no-such-thing"]) == 2
    assert cli.main(["run", "--scenario", "ex2.6"]) == 0  # fails as predicted
    out = capsys.readouterr().out
    assert "fails as predicted" in out
    assert cli.main(["run", "--scenario", "thm3.10-random", "--seed", "1"]) == 0


@pytest.mark.parametrize("name", ["thm2.5-random", "prop2.2-random", "picard-contraction",
                                  "thm3.10-random", "ex2.6"])
@pytest.mark.parametrize("trials", [0, -3])
def test_resolve_rejects_fewer_than_one_trial(name, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        resolve(ScenarioConfig(scenario=name, trials=trials))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_experiment(ScenarioConfig(scenario=name, trials=trials))


@pytest.mark.parametrize("argv, message", [
    (["run", "--scenario", "thm2.5-random", "--trials", "0"], "trials must be at least 1, got 0"),
    (["run", "--scenario", "thm3.10-random", "--trials", "-3"], "trials must be at least 1, got -3"),
    (["run", "--scenario", "ex2.6", "--depth", "0"], "depth of ex2.6 must be 8, got 0"),
    (["hypotheses", "--scenario", "ex3.4", "--depth", "17"], "depth of ex3.4 must be 8, got 17"),
])
def test_cli_usage_errors_exit_2_with_one_line(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_rejects_a_config_document_without_a_scenario_with_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"depth": 3}')
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: config document needs a 'scenario' field\n"


def test_cli_rejects_a_config_document_with_unknown_fields_before_running(
    tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "thm2.5-random", "trails": 3, "dept": 5}))
    err = _refuses_before_running(monkeypatch, ["run", "--config", str(cfg)], capsys)
    assert err == ("error: config document has unknown fields dept, trails"
                   " (known: scenario, depth, seed, trials, out, format)\n")


def test_cli_rejects_an_invalid_json_config_document_with_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{bad")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err  # the decoder's own wording varies with the Python version
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def test_cli_rejects_an_unknown_config_format_before_running(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    out_file = tmp_path / "verdict.xml"
    cfg.write_text(json.dumps({"scenario": "ex2.6", "format": "xml", "out": str(out_file)}))
    ran = []
    entry = REGISTRY["ex2.6"]
    monkeypatch.setitem(REGISTRY, "ex2.6", dataclasses.replace(
        entry, build=lambda *a: ran.append(a) or entry.build(*a)))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert ran == [] and not out_file.exists()
    assert capsys.readouterr().err == "error: format must be one of csv, json, got 'xml'\n"


@pytest.mark.parametrize("doc, kind", [
    ("[1, 2]", "list"), ('"ex2.6"', "str"), ("3", "int"), ("null", "NoneType"),
])
def test_cli_rejects_a_config_document_that_is_not_an_object_with_exit_2(
    doc, kind, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config document must be a JSON object, got {kind}\n"


@pytest.mark.parametrize("field, value, message", [
    ("depth", "3", "depth must be an integer, got '3'"),
    ("depth", True, "depth must be an integer, got True"),
    ("depth", 2.0, "depth must be an integer, got 2.0"),
    ("seed", "1", "seed must be an integer, got '1'"),
    ("seed", False, "seed must be an integer, got False"),
    ("trials", [2], "trials must be an integer, got [2]"),
    ("scenario", 3, "scenario must be a string, got 3"),
    ("out", 5, "out must be a string, got 5"),
    ("format", None, "format must be a string, got None"),
])
def test_cli_rejects_a_mistyped_config_field_before_running(
    field, value, message, tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "ex2.6", field: value}))
    ran = []
    entry = REGISTRY["ex2.6"]
    monkeypatch.setitem(REGISTRY, "ex2.6", dataclasses.replace(
        entry, build=lambda *a: ran.append(a) or entry.build(*a)))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("make, reason", [
    (lambda p: p / "missing.json", "No such file or directory"),
    (lambda p: p, "Is a directory"),
])
def test_cli_rejects_an_unreadable_config_file_with_exit_2(make, reason, tmp_path, capsys):
    path = make(tmp_path)
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read config document {str(path)!r}: {reason}\n"


def test_resolve_rejects_a_negative_seed():
    # numpy refuses a negative seed deep inside a scenario, where the CLI would
    # report it with exit 1, the code of a deviating conclusion
    with pytest.raises(ValueError, match="^seed of thm2.5-random must be nonnegative, got -1$"):
        resolve(ScenarioConfig(scenario="thm2.5-random", seed=-1))
    assert resolve(ScenarioConfig(scenario="thm2.5-random", seed=0))[2] == 0


def test_cli_run_rejects_a_negative_seed_with_exit_2(capsys):
    assert cli.main(["run", "--scenario", "thm2.5-random", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed of thm2.5-random must be nonnegative, got -1\n"


def test_cli_suite_rejects_a_negative_seed_before_running(capsys, monkeypatch):
    ran = []
    for name, entry in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(
            entry, build=lambda *a, name=name: ran.append(name)))
    # bsde-duality-random, the first scenario by name, has default seed 20243
    assert cli.main(["suite", "--seed-offset", "-30000"]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed of bsde-duality-random must be nonnegative, got -9757\n"


def test_resolve_rejects_mistyped_fields_of_a_programmatic_config():
    with pytest.raises(ValueError, match="^trials must be an integer, got '4'$"):
        resolve(ScenarioConfig(scenario="ex2.6", trials="4"))


def test_cli_config_document_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "bsde-duality-random", "trials": 5, "seed": 3}))
    out_file = tmp_path / "verdict.csv"
    code = cli.main(["run", "--config", str(cfg), "--trials", "4", "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert "bsde-duality-random" in text and text.count("\n") == 2


def test_cli_hypotheses_subcommand(capsys):
    assert cli.main(["hypotheses", "--scenario", "ex3.4"]) == 0
    out = capsys.readouterr().out
    assert "kernel_t_monotone" in out and "violated" in out
    for cond in CONDITION_ORDER:
        assert cond in out


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BSVIELAB_OUT", str(tmp_path / "reports"))
    assert cli.main(["run", "--scenario", "ex2.6", "--out", "e.csv"]) == 0
    assert (tmp_path / "reports" / "e.csv").exists()
