"""Command-line entry point.

Subcommands:

* ``list``                      print the scenario registry
* ``run --scenario NAME``      run one scenario, optionally write a report
* ``suite``                    run every scenario and write one report row each
* ``hypotheses --scenario N``  print the hypothesis slate of one scenario

Exit codes: 0 on success (including counterexamples failing exactly as
expected), 1 when a conclusion deviates from its expected verdict, 2 on usage
errors.  ``BSVIELAB_OUT`` sets the directory for bare report file names.
"""

from __future__ import annotations

import argparse
import os
import sys

from .hypotheses import CONDITION_ORDER
from .report import emit_report
from .runner import REPORT_FORMATS, ComparisonVerdict, ScenarioConfig, run_experiment, run_suite
from .scenarios import REGISTRY, scenario_names


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("BSVIELAB_OUT")
    if base and not os.path.isabs(path) and os.sep not in path:
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _print_registry(stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    width = max(len(n) for n in scenario_names())
    for name in scenario_names():
        e = REGISTRY[name]
        verdict = "holds" if e.expected_holds else "fails-as-predicted"
        print(f"{name:<{width}}  [{e.theorem}] expected={verdict}", file=stream)
        print(f"{'':<{width}}  {e.description}", file=stream)


def _verdict_line(v: ComparisonVerdict) -> str:
    if v.conclusion_held:
        status = "conclusion holds"
    elif not v.expected_holds:
        status = "comparison fails as predicted"
    else:
        status = "CONCLUSION VIOLATED"
    agree = "" if v.agrees_with_expectation else "  ** disagrees with expected verdict **"
    return (
        f"{v.scenario}: {status} (worst violation {v.worst_violation:.3e}, "
        f"depth {v.depth}, seed {v.seed}, {v.runtime_ms:.0f} ms){agree}"
    )


def _build_config(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        cfg = ScenarioConfig.from_json(args.config)
        if getattr(args, "scenario", None):
            cfg.scenario = args.scenario
    else:
        cfg = ScenarioConfig(scenario=args.scenario)
    for name in ("depth", "seed", "trials", "out"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "format", None):
        cfg.format = args.format
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsvielab",
        description="comparison-theorem laboratory on an exact binary Brownian lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the scenario registry")

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=False)
    p_run.add_argument("--config", help="JSON config document; flags override its fields")
    p_run.add_argument("--depth", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--format", choices=REPORT_FORMATS)

    p_suite = sub.add_parser("suite", help="run the full scenario suite")
    p_suite.add_argument("--out")
    p_suite.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p_suite.add_argument("--seed-offset", type=int, default=0)

    p_hyp = sub.add_parser("hypotheses", help="print the hypothesis slate of one scenario")
    p_hyp.add_argument("--scenario", required=True)
    p_hyp.add_argument("--depth", type=int)
    p_hyp.add_argument("--seed", type=int)
    p_hyp.add_argument("--trials", type=int)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "list":
        _print_registry()
        return 0

    if args.command == "suite":
        try:
            verdicts = run_suite(seed_offset=args.seed_offset)
        except ValueError as exc:  # a config that resolve refuses, before any scenario runs
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for v in verdicts:
            print(_verdict_line(v), file=sys.stderr)
        out = _resolve_out(args.out)
        if out:
            emit_report(verdicts, args.format, out)
            print(f"report written to {out}", file=sys.stderr)
        bad = [v for v in verdicts if not v.agrees_with_expectation]
        if bad:
            for v in bad:
                print(f"unexpected verdict: {v.scenario}", file=sys.stderr)
            return 1
        return 0

    if getattr(args, "scenario", None) is None and not getattr(args, "config", None):
        print("error: --scenario (or --config) is required", file=sys.stderr)
        return 2
    try:
        cfg = _build_config(args)
        verdict = run_experiment(cfg)  # checks the config before any scenario runs
    except KeyError as exc:  # resolve's unknown scenario
        print(f"unknown scenario {exc.args[0]!r}; registry:", file=sys.stderr)
        _print_registry(sys.stderr)
        return 2
    except ValueError as exc:  # a bad config document or field
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "hypotheses":
        for name in CONDITION_ORDER:
            cond = verdict.hypotheses.conditions[name]
            line = f"{name:<22} {cond.status}"
            if cond.witness:
                line += f"  ({cond.witness})"
            print(line)
        return 0

    print(_verdict_line(verdict))
    if verdict.details:
        for k in sorted(verdict.details):
            print(f"  {k} = {verdict.details[k]}", file=sys.stderr)
    out = _resolve_out(cfg.out)
    if out:
        emit_report([verdict], cfg.format, out)
        print(f"report written to {out}", file=sys.stderr)
    return 0 if verdict.agrees_with_expectation else 1


if __name__ == "__main__":
    sys.exit(main())
