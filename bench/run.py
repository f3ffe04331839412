"""bsvielab benchmark: one workload, one process, one thread, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload suite|deep|crosscheck --seed N --seconds S --trace 0|1

``--trace 0`` times passes of the workload, untraced, for ``--seconds`` and
prints the end-to-end metrics: ``wall_s`` (median pass seconds, rescaled to a
reference host speed by ``meter.Meter``), ``setup_s`` and ``peak_rss_mb``
(peak resident memory at the end of the first pass).
The raw median pass time is printed among the diagnostics.  ``--trace 1``
makes one untraced pass (and, for ``suite``, one ``jobs=2`` pass), then
traced passes for the rest of ``--seconds``, and prints the per-layer
metrics; the spans go to ``.bench_out/``.  The last stdout line is the result
object; the line before it holds provenance and diagnostics, including
``ops_failed_share``.

``setup_s`` is the median import time of numpy and bsvielab in a fresh
interpreter (nine samples, each rescaled by a calibration run in that
interpreter) plus the median rescaled time to build the workload's inputs
(five samples).  The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2.  Self-test at reduced size:
``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported (here or in a child).
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
# Times the import in a fresh interpreter, bracketed by the meter's pure-Python
# calibration part (repeated here because meter.py imports numpy).
IMPORT_PROBE = """
import time
def kernel():
    t = time.perf_counter()
    s = 0.0
    for i in range(10000):
        s += i * 0.5
    return time.perf_counter() - t
k0 = kernel()
t = time.perf_counter()
import numpy, bsvielab.harness.runner, bsvielab.harness.report
t = time.perf_counter() - t
print(t, k0, kernel())
"""
LAYERS = ("backward", "lattice", "forward", "cones", "harness")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    from tracing import CHUNK_BYTES, DRIFT_CALLS, TRACED_FUNCTIONS
    from workloads import SCENARIOS

    units: dict[str, str] = {}
    for mod, fn in TRACED_FUNCTIONS:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.incl_s"] = "s"
        units[f"{mod}.{fn}.self_s"] = "s"
    for name in SCENARIOS:
        units[f"harness.scenarios.{name}.s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["backward.msolution.sweeps_per_solve"] = "ratio"
    units[DRIFT_CALLS] = "count"
    units[CHUNK_BYTES] = "bytes"
    units["trace.overhead_s"] = "s"
    units["harness.runner.jobs2_speedup"] = "ratio"
    return units


def import_seconds() -> list[float]:
    """Import times of numpy and bsvielab, each in a fresh interpreter, rescaled
    by the calibration that brackets it in the same process."""
    from meter import PARTS

    ref = PARTS["python"][1]
    samples = []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        t, k0, k1 = map(float, done.stdout.split())
        samples.append(t * 2.0 * ref / (k0 + k1))
    return samples


def provenance(args, sizes: dict) -> dict:
    import numpy

    try:  # a checkout without .git (or without git) has no SHA; src_sha256 still names the code
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": sizes,
        "loop": "closed, one caller, one thread",
    }


def _blas_threads():
    """OpenBLAS's own thread count when its library can be queried, else None."""
    import ctypes

    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    libs = sorted(libs_dir.glob("*openblas*")) if libs_dir.is_dir() else []
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(run_pass, inputs, ledger, jobs: int = 1) -> float:
    t0 = time.perf_counter()
    run_pass(inputs, ledger, jobs=jobs)
    return time.perf_counter() - t0


def measure_untraced(args, run_pass, inputs, ledger, meter):
    """Raw and rescaled seconds of each untraced pass, until ``--seconds`` elapse,
    and the peak resident memory at the end of the first pass.

    Later passes can raise the process's peak by a timing-dependent amount
    (up to ~16 MB of 250 on crosscheck) as the allocator reuses freed blocks,
    so the first pass's peak is the one that repeats.
    """
    from tracing import mark_calls

    raws, scaled, spans = [], [], []
    first_peak = None
    restore = mark_calls(meter)
    meter.active = True
    try:
        start = time.perf_counter()
        while True:  # stop before a pass of the usual length would overrun --seconds
            t0 = time.perf_counter()
            meter.start()
            run_pass(inputs, ledger)
            raw, sc = meter.stop()
            raws.append(raw)
            scaled.append(sc)
            spans.append(time.perf_counter() - t0)
            if first_peak is None:
                first_peak = peak_rss_mb()
            if time.perf_counter() - start + statistics.median(spans) > args.seconds:
                return raws, scaled, first_peak
    finally:
        meter.active = False
        restore()


def measure_traced(args, run_pass, inputs, ledger):
    """Per-layer metrics from traced passes; the untraced pass gives the overhead base."""
    from tracing import (
        CHUNK_BYTES, DRIFT_CALLS, FAMILY, MSOLUTION, TRACED_FUNCTIONS, Tracer, instrument,
    )
    from workloads import SCENARIOS

    start = time.perf_counter()
    untraced = timed_pass(run_pass, inputs, ledger)
    jobs2 = timed_pass(run_pass, inputs, ledger, jobs=2) if args.workload == "suite" else None
    tracer = Tracer()
    ledger.tracer = tracer
    restore = instrument(tracer)
    passes = []  # (first span index, wall, counts, chunk bytes)
    try:
        while True:
            tracer.counts.clear()
            tracer.chunk_bytes_max = 0
            first = len(tracer.spans)
            wall = timed_pass(run_pass, inputs, ledger)
            passes.append((first, wall, dict(tracer.counts), tracer.chunk_bytes_max))
            typical = statistics.median(p[1] for p in passes)
            if time.perf_counter() - start + typical > args.seconds:
                break
    finally:
        restore()
        ledger.tracer = None

    bounds = [p[0] for p in passes] + [len(tracer.spans)]
    summaries = [tracer.summary(bounds[k], bounds[k + 1]) for k in range(len(passes))]

    def med(name: str, key: str) -> float:
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    m: dict[str, float] = {}
    for mod, fn in TRACED_FUNCTIONS:
        name = f"{mod}.{fn}"
        m[f"{name}.calls"] = summaries[0].get(name, {}).get("calls", 0)
        m[f"{name}.incl_s"] = med(name, "incl_s")
        m[f"{name}.self_s"] = med(name, "self_s")
    for sc in SCENARIOS:
        m[f"harness.scenarios.{sc}.s"] = med(f"harness.scenarios.{sc}", "incl_s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = statistics.median(
            sum(v["self_s"] for k, v in s.items() if k.startswith(layer + ".")) for s in summaries
        )
    solves = summaries[0].get(MSOLUTION, {}).get("calls", 0)
    nested = tracer.nested_count(FAMILY, MSOLUTION, bounds[0], bounds[1])
    m["backward.msolution.sweeps_per_solve"] = nested / solves if solves else 0.0
    m[DRIFT_CALLS] = passes[0][2].get(DRIFT_CALLS, 0)
    m[CHUNK_BYTES] = passes[0][3]
    m["trace.overhead_s"] = statistics.median(p[1] for p in passes) - untraced
    # jobs=1 over jobs=2 wall time; 0.0 on workloads that do not call run_suite
    m["harness.runner.jobs2_speedup"] = untraced / jobs2 if jobs2 else 0.0
    exact = [
        (p[2], p[3], {k: v["calls"] for k, v in s.items()}) for p, s in zip(passes, summaries)
    ]
    extra = {
        "untraced_wall_s": untraced,
        "jobs2_wall_s": jobs2,
        "traced_wall_samples_s": [p[1] for p in passes],
        "counts_repeat_across_passes": all(e == exact[0] for e in exact),
        "spans": len(tracer.spans),
    }
    return m, extra, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "deep", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the benchmark's self-test")
    parser.add_argument("--wrong-check", default=None,
                        help="give this check a wrong expected value (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    if not (SRC / "bsvielab" / "__init__.py").is_file():
        print(f"error: no bsvielab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUT_DIR.mkdir(exist_ok=True)

    from meter import Meter

    import bsvielab

    if Path(bsvielab.__file__).resolve().parent != (SRC / "bsvielab").resolve():
        print(f"error: bsvielab imported from {bsvielab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    setup, run_pass, weights = workloads.WORKLOADS[args.workload]
    meter = Meter(weights)
    import_samples = import_seconds()
    build_samples = []
    for _ in range(SETUP_REPEATS):
        meter.start()
        inputs = setup(args.seed, args.size, OUT_DIR, meter)
        build_samples.append(meter.stop()[1])
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)
    meter.log.clear()  # keep only the passes' segments

    ledger = workloads.Ledger(wrong_check=args.wrong_check)
    diagnostics: dict = {"import_samples_s": import_samples, "build_samples_s": build_samples}
    if args.trace == 0:
        raws, walls, first_peak = measure_untraced(args, run_pass, inputs, ledger, meter)
        metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                   "peak_rss_mb": first_peak}
        units = dict(END_TO_END)
        diagnostics["wall_samples_s"] = walls
        diagnostics["raw_wall_s"] = statistics.median(raws)
        diagnostics["raw_wall_samples_s"] = raws
        diagnostics["peak_rss_mb_all_passes"] = peak_rss_mb()
        meter_path = OUT_DIR / f"meter-{args.workload}-seed{args.seed}.json"
        meter_path.write_text(json.dumps({"weights": meter.weights, "passes": meter.log}))
    else:
        metrics, extra, tracer = measure_traced(args, run_pass, inputs, ledger)
        units = per_layer_units()
        diagnostics.update(extra)
    diagnostics["ops_attempted"] = ledger.attempted
    diagnostics["ops_failed"] = ledger.failed
    diagnostics["ops_failed_share"] = ledger.failed / max(ledger.attempted, 1)
    diagnostics["failures"] = ledger.failures
    if args.workload == "suite":
        diagnostics["report_sha256"] = inputs.report_sha256
    prov = provenance(args, inputs.sizes)
    if args.trace == 1:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"provenance": prov, "metrics": metrics})
        diagnostics["trace_file"] = str(trace_path.relative_to(ROOT))
    for line in ledger.failures:
        print(f"check failed: {line}", file=sys.stderr)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"provenance": prov, "diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
