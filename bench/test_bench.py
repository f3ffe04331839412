"""Self-test of the benchmark at reduced size.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
WORKLOADS = ("suite", "deep", "crosscheck")
EXACT_COUNTS = (
    "backward.msolution.sweeps_per_solve",
    "backward.BsvieSpec.drift.calls",
    "forward.mc.chunk_bytes_computed",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@lru_cache(maxsize=None)
def _result(workload: str, trace: int, wrong: str | None = None, repeat: int = 0) -> dict:
    """One run's result; ``repeat`` tells apart runs that are otherwise identical."""
    seed = 3
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "small"]
    if wrong:
        args += ["--wrong-check", wrong]
    done = _run(*args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["_diagnostics"] = json.loads(lines[-2])["diagnostics"]
    return result


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) - {"_diagnostics"} == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize(
    "workload, check",
    [("suite", "suite.verdict.ex2.6"), ("deep", "deep.msolution_residual"),
     ("crosscheck", "crosscheck.volterra_violations_before_cutoff")],
)
def test_wrong_expected_value_counts_as_a_failed_operation(workload, check):
    assert _result(workload, 0)["_diagnostics"]["ops_failed_share"] == 0.0
    result = _result(workload, 0, wrong=check)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["_diagnostics"]["ops_failed_share"] > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_fixed_seed(workload):
    first = _result(workload, 1)["metrics"]
    again = _result(workload, 1, repeat=1)["metrics"]
    names = [n for n in first if n.endswith(".calls")] + list(EXACT_COUNTS)
    assert {n: first[n]["value"] for n in names} == {n: again[n]["value"] for n in names}


def test_traced_suite_sees_the_backward_hot_spot():
    m = _result("suite", 1)["metrics"]
    layers = {k: v["value"] for k, v in m.items() if k.startswith("layer.")}
    assert max(layers, key=layers.get) == "layer.backward.self_s"
    assert m["backward.msolution.sweeps_per_solve"]["value"] > 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
