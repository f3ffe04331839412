"""The three benchmark workloads: input generation (set-up) and one timed pass.

Each workload has ``setup(seed, size, out_dir, meter) -> inputs``,
``run_pass(inputs, ledger, jobs=1)`` and the weights of the meter's
calibration parts (see ``meter.py``) that match its kind of work.  Set-up
makes every input from the seed; a pass makes the calls and checks their
outputs through the ledger, so a failing check counts as a failed operation
instead of aborting the run.  The callbacks the benchmark hands to the
program are wrapped in ``meter.marking``, so the meter can cut long calls.

- ``suite``: ``run_suite(seed_offset=seed)``, serial, all registry scenarios
  at their default depths.  Many tiny calls, bound by interpreter overhead.
- ``deep``: a few large calls on a depth-16 lattice (65,536 leaves) with
  random Metzler/diagonal data.  Bound by numpy array traffic.
- ``crosscheck``: the continuous cross-checks (Euler Monte Carlo, fine-grid
  deterministic reductions, closed-form oracles).  Almost all work is in
  ``forward``; memory-heavy, one Monte Carlo chunk holds
  (steps+1) x 16384 x n floats.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bsvielab import backward, forward, lattice, oracles
from bsvielab.forward import FsdeSpec, FsvieSpec
from bsvielab.lattice import AdaptedProcess, BinaryLattice, TerminalField

# Registry scenarios at the seed; one per-layer metric each.
SCENARIOS = (
    "bsde-duality-random", "bsvie-duality-random", "ex2.10", "ex2.6", "ex2.7", "ex2.8",
    "ex3.3", "ex3.4", "ex3.5", "ex3.8", "msolution-structural", "picard-contraction",
    "prop2.1-random", "prop2.2-random", "thm2.3-random", "thm2.5-random", "thm3.10-random",
    "thm3.2-random", "thm3.6-random", "thm3.7-random", "thm3.9-random",
)

_WRONG = object()


class Ledger:
    """Operations attempted and failed; a failed check fails its operation.

    ``wrong_check`` names one check whose expected value is replaced by a
    wrong one, so the self-test can show that a failing check is counted.
    """

    def __init__(self, wrong_check: str | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong_check = wrong_check
        self.tracer = None  # set while tracing: each operation becomes a root span
        self._op = ""
        self._op_ok = True

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        self._op, self._op_ok = name, True
        try:
            if self.tracer is not None:
                with self.tracer.span(f"op.{name}"):
                    yield
            else:
                yield
        except Exception as exc:  # the run goes on; the operation counts as failed
            self._fail("raised", f"{type(exc).__name__}: {exc}")
        if not self._op_ok:
            self.failed += 1

    def fail_ops(self, names, reason: str) -> None:
        for name in names:
            with self.op(name):
                self._fail("raised", reason)

    def _fail(self, check: str, detail: str) -> None:
        self._op_ok = False
        if len(self.failures) < 20:
            self.failures.append(f"{self._op}: {check}: {detail}")

    def at_most(self, check: str, value: float, limit: float) -> None:
        """Passes when ``value <= limit``; NaN fails."""
        if check == self.wrong_check:
            limit = -math.inf
        if not float(value) <= limit:
            self._fail(check, f"{float(value)!r} > {limit!r}")

    def equal(self, check: str, actual, expected) -> None:
        if check == self.wrong_check:
            expected = _WRONG
        if not actual == expected:
            self._fail(check, f"{actual!r} != {expected!r}")


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _violation_mass(x: AdaptedProcess) -> float:
    return float(lattice.sign_violation(x).fraction)


# -- suite ---------------------------------------------------------------------------


@dataclass
class SuiteInputs:
    seed: int
    overrides: dict | None
    report_path: Path
    sizes: dict
    reference_rows: dict = field(default_factory=dict)
    report_sha256: str = ""


def suite_setup(seed: int, size: str, out_dir: Path, meter) -> SuiteInputs:
    from bsvielab.harness.runner import ScenarioConfig
    from bsvielab.harness.scenarios import REGISTRY

    overrides = None
    if size == "small":
        # trials / 10 keeps every scenario and its verdict at a tenth of the work
        overrides = {
            name: ScenarioConfig(scenario=name, trials=max(1, e.default_trials // 10))
            for name, e in REGISTRY.items()
        }
    trials = {n: (overrides[n].trials if overrides else e.default_trials)
              for n, e in REGISTRY.items()}
    sizes = {
        "scenarios": len(REGISTRY),
        "depths": {n: e.default_depth for n, e in sorted(REGISTRY.items())},
        "trials": dict(sorted(trials.items())),
        "jobs": 1,
    }
    return SuiteInputs(seed, overrides, out_dir / f"suite-report-seed{seed}.csv", sizes)


def suite_pass(inp: SuiteInputs, ledger: Ledger, jobs: int = 1) -> None:
    import hashlib

    from bsvielab.harness.report import emit_report
    from bsvielab.harness.runner import run_suite
    from bsvielab.harness.scenarios import REGISTRY

    try:
        verdicts = run_suite(seed_offset=inp.seed, jobs=jobs, overrides=inp.overrides)
        emit_report(verdicts, "csv", str(inp.report_path))
        report = inp.report_path.read_bytes()
    except Exception as exc:  # run_suite stops at the first scenario that raises
        ledger.fail_ops(sorted(REGISTRY), f"{type(exc).__name__}: {exc}")
        return
    rows = {line.split(b",", 1)[0].decode(): line for line in report.splitlines()[1:]}
    if not inp.reference_rows:
        inp.reference_rows = rows
        inp.report_sha256 = hashlib.sha256(report).hexdigest()
    for v in verdicts:
        with ledger.op(v.scenario):
            ledger.equal(f"suite.verdict.{v.scenario}", v.conclusion_held, v.expected_holds)
            ledger.equal(f"suite.report_row.{v.scenario}", rows.get(v.scenario),
                         inp.reference_rows.get(v.scenario))


# -- deep ----------------------------------------------------------------------------


def _metzler(rng, n: int, scale: float) -> np.ndarray:
    m = rng.uniform(0.0, scale, (n, n))
    m[np.diag_indices(n)] = rng.uniform(-scale, scale, n)
    return m


def _per_level(lat: BinaryLattice, mats: list[np.ndarray], meter):
    """t -> the matrix of the grid level at t (piecewise constant in time)."""
    last = len(mats) - 1
    return meter.marking(lambda t: mats[min(int(round(t / lat.h)), last)])


@dataclass
class DeepInputs:
    lat: BinaryLattice
    fsde: FsdeSpec
    a0: object
    a1: object
    fsvie: FsvieSpec
    picard: FsvieSpec
    xi: np.ndarray
    bsde: backward.BsdeSpec
    dual_x: np.ndarray
    dual_level: int
    family: backward.BsvieSpec
    msolution: backward.BsvieSpec
    sizes: dict


def deep_setup(seed: int, size: str, out_dir: Path, meter) -> DeepInputs:
    """Random Metzler/diagonal data whose structure makes the checked signs exact.

    Forward: Metzler drift A0 and diagonal diffusion A1 with a 10% margin on
    1 - h|A0| - sqrt(h)|A1| >= 0 keep I + h A0 +/- sqrt(h) A1 nonnegative.
    Backward: drift -G with G Metzler and diagonal B with sqrt(h)|B| <= 0.9
    keep every Jacobi and blend weight nonnegative.
    """
    depth, n = (16, 2) if size == "full" else (10, 2)
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(1.0, depth)
    h, sq = lat.h, lat.sqrt_h
    a0_bound = float(rng.uniform(0.5, 2.0))
    a1_bound = float(rng.uniform(0.3, 0.9)) * (1.0 - h * a0_bound) / sq
    a0s = [_metzler(rng, n, a0_bound) for _ in range(depth)]
    a1s = [np.diag(rng.uniform(-a1_bound, a1_bound, n)) for _ in range(depth)]
    x0 = rng.uniform(0.0, 1.0, n)
    a0, a1 = _per_level(lat, a0s, meter), _per_level(lat, a1s, meter)
    kernel = _per_level(lat, [np.abs(m) for m in a0s], meter)
    gs = _per_level(lat, [_metzler(rng, n, 1.0) for _ in range(depth)], meter)
    bs = _per_level(lat, [np.diag(rng.uniform(-0.9, 0.9, n) / sq) for _ in range(depth)], meter)
    xi = rng.uniform(0.0, 1.0, (2**depth, n))
    # |C(t)| in [1.5, 4.5]: coupling strong enough that the M-solution alternation
    # runs its full depth + 1 sweeps for every seed, so a pass does the same work
    c0 = rng.choice([-1.0, 1.0], n) * rng.uniform(2.5, 3.5, n)
    c1 = np.sign(c0) * rng.uniform(-1.0, 1.0, n)
    psi = rng.standard_normal((depth + 1, 2**depth, n))
    return DeepInputs(
        lat=lat,
        fsde=FsdeSpec(n, x0, a0=a0, a1=a1),
        a0=a0,
        a1=a1,
        # t-free kernels: the Volterra recursion telescopes to the Euler SDE
        fsvie=FsvieSpec(n, lambda t: x0, a0=lambda t, s: a0(s), a1=a1),
        picard=FsvieSpec(n, lambda t: x0, a0=lambda t, s: kernel(s)),
        xi=xi,
        bsde=backward.BsdeSpec(n, xi, a=lambda t: -gs(t), b=lambda t: -bs(t)),
        dual_x=rng.uniform(0.0, 1.0, n),
        dual_level=int(rng.integers(0, 4)),
        # psi(t_i) = xi for every i and a t-free drift: every row is the BSDE
        family=backward.BsvieSpec(
            n, TerminalField(lat, n, np.repeat(xi[None], depth + 1, axis=0)),
            a_kernel=lambda t, s: gs(s), b_coef=bs, uses_z=True,
        ),
        msolution=backward.BsvieSpec(
            n, TerminalField(lat, n, psi),
            a_kernel=lambda t, s: (1.0 - 0.5 * t) * gs(s),
            c_coef=meter.marking(lambda t: np.diag(c0 + c1 * t)), uses_z=False, uses_zeta=True,
        ),
        sizes={"depth": depth, "leaves": 2**depth, "dim": n},
    )


def deep_pass(inp: DeepInputs, ledger: Ledger, jobs: int = 1) -> None:
    lat, xi = inp.lat, inp.xi
    N = lat.depth
    half = N // 2
    with ledger.op("martingale_representation"):
        mean, z = lattice.martingale_representation(lat, xi, N)
        recon = lattice.reconstruct_from_representation(lat, mean, z, N)
        ledger.at_most("deep.representation_roundtrip", _max_abs(recon - xi), 1e-12)
    with ledger.op("condition_to"):
        cond = lattice.condition_to(xi, N, half)
        blocks = xi.reshape(2**half, 2 ** (N - half), -1).mean(axis=1)
        ledger.at_most("deep.condition_to_block_mean", _max_abs(cond - blocks), 1e-12)
    x = None
    with ledger.op("solve_fsde"):
        x = forward.solve_fsde(inp.fsde, lat)
        ledger.at_most("deep.fsde_violation_mass", _violation_mass(x), 0.0)
    with ledger.op("fundamental_matrix"):
        fm = forward.fundamental_matrix(inp.a0, inp.a1, 0, lat, inp.fsde.dim)
        n2 = inp.fsde.dim**2
        flat = AdaptedProcess(lat, n2, [fm.at(k).reshape(2**k, n2) for k in range(N + 1)])
        ledger.at_most("deep.fundamental_violation_mass", _violation_mass(flat), 0.0)
    with ledger.op("solve_linear_fsvie"):
        xv = forward.solve_linear_fsvie(inp.fsvie, lat)
        gap = max(_max_abs(xv.at(k) - x.at(k)) for k in range(N + 1))
        ledger.at_most("deep.fsvie_matches_fsde", gap, 1e-10 * max(1.0, x.max_abs()))
    with ledger.op("picard_fsvie"):
        xp, _ = forward.picard_fsvie(inp.picard, lat)
        ledger.at_most("deep.picard_violation_mass", _violation_mass(xp), 0.0)
    with ledger.op("ito_integral"):
        ito = lattice.ito_integral(x)
        drift = _max_abs(lattice.condition_to(ito.at(N), N, half) - ito.at(half))
        ledger.at_most("deep.ito_martingale", drift, 1e-12 * max(1.0, ito.max_abs()))
    y = None
    with ledger.op("solve_bsde"):
        sol = backward.solve_bsde(inp.bsde, lat)
        y = AdaptedProcess(lat, inp.bsde.dim, sol.y)
        ledger.at_most("deep.bsde_violation_mass", _violation_mass(y), 0.0)
    with ledger.op("bsde_duality_check"):
        d = backward.bsde_duality_check(inp.bsde, inp.dual_x, inp.dual_level, lat)
        ledger.at_most("deep.bsde_duality", d, 1e-10)
    with ledger.op("solve_bsvie_family"):
        fam = backward.solve_bsvie_family(inp.family, lat)
        gap = max(_max_abs(fam.y.at(k) - y.at(k)) for k in range(N + 1))
        ledger.at_most("deep.family_matches_bsde", gap, 1e-12 * max(1.0, y.max_abs()))
    with ledger.op("solve_bsvie_msolution"):
        ms = backward.solve_bsvie_msolution(inp.msolution, lat)
        ledger.at_most("deep.msolution_residual", ms.msolution_residual, 1e-12)


# -- crosscheck ------------------------------------------------------------------------


@dataclass
class CrossInputs:
    sde: FsdeSpec
    sde_a: np.ndarray
    sde_b: np.ndarray
    sde_steps: int
    sde_paths: int
    volterra: FsvieSpec
    tau: float
    volterra_steps: int
    volterra_paths: int
    mc_seed: int
    grid_steps: int
    marking: Callable  # the meter's, for the grid callbacks made in a pass
    sizes: dict


def cross_setup(seed: int, size: str, out_dir: Path, meter) -> CrossInputs:
    chunk = 1 << 14
    if size == "full":
        sde_steps, sde_paths, v_steps, v_paths, grid = 256, 4 * chunk, 128, 2 * chunk, 4096
    else:
        sde_steps, sde_paths, v_steps, v_paths, grid = 32, chunk + 1000, 64, chunk + 1000, 1024
    rng = np.random.default_rng(seed)
    n = 2
    a = rng.uniform(-0.5, 1.0, n)
    b = rng.uniform(0.2, 1.0, n)
    x0 = rng.uniform(0.5, 1.5, n)
    tau = float(rng.uniform(0.3, 0.7))
    return CrossInputs(
        sde=FsdeSpec(n, x0, a0=meter.marking(lambda t: np.diag(a)), a1=lambda t: np.diag(b)),
        sde_a=a,
        sde_b=b,
        sde_steps=sde_steps,
        sde_paths=sde_paths,
        volterra=FsvieSpec(
            1, meter.marking(lambda t: np.array([1.0])),
            a0=lambda t, s: np.array([[1.0 if t <= tau else 0.0]]),
            a1=lambda s: np.eye(1),
        ),
        tau=tau,
        volterra_steps=v_steps,
        volterra_paths=v_paths,
        mc_seed=int(rng.integers(0, 2**31)),
        grid_steps=grid,
        marking=meter.marking,
        sizes={
            "sde": {"steps": sde_steps, "paths": sde_paths, "dim": n},
            "volterra": {"steps": v_steps, "paths": v_paths, "dim": 1},
            "grid_steps": grid,
        },
    )


def cross_pass(inp: CrossInputs, ledger: Ledger, jobs: int = 1) -> None:
    with ledger.op("euler_monte_carlo.sde"):
        mc = forward.euler_monte_carlo(inp.sde, 1.0, inp.sde_steps, inp.sde_paths, inp.mc_seed)
        # diagonal linear SDE: the Euler moments are exact products per step
        h, k, x0 = 1.0 / inp.sde_steps, inp.sde_steps, inp.sde.x0
        m1 = x0 * (1.0 + inp.sde_a * h) ** k
        m2 = x0**2 * ((1.0 + inp.sde_a * h) ** 2 + inp.sde_b**2 * h) ** k
        se = np.sqrt((m2 - m1**2) / inp.sde_paths)
        z_scores = np.abs(mc.mean[-1] - m1) / se
        ledger.at_most("crosscheck.mc_sde_mean_in_se", float(np.max(z_scores)), 4.0)
    with ledger.op("euler_monte_carlo.volterra"):
        mv = forward.euler_monte_carlo(inp.volterra, 1.0, inp.volterra_steps,
                                       inp.volterra_paths, inp.mc_seed + 1)
        # before the cutoff X_i = X_{i-1} (1 + h + dW): negative only when dW < -(1 + h),
        # an 8-sigma event at 64 steps and 11 sigma at 128
        before = mv.violation_freq[mv.times <= inp.tau]
        ledger.at_most("crosscheck.volterra_violations_before_cutoff", float(np.max(before)), 0.0)
    steps = inp.grid_steps

    marking = inp.marking

    @marking
    def ex26_kernel(t, s):
        return -2.0 * np.exp(t - s)

    with ledger.op("solve_linear_fsvie_deterministic"):
        t, x = forward.solve_linear_fsvie_deterministic(lambda t: 1.0, ex26_kernel, 1.0, steps)
        err = _max_abs(x - np.array([oracles.ex26(ti, 1.0) for ti in t]))
        ledger.at_most("crosscheck.fsvie_grid_vs_ex26", err, 5e-3)
    with ledger.op("picard_fsvie_deterministic"):
        t, x, _ = forward.picard_fsvie_deterministic(lambda t: 1.0, ex26_kernel, 1.0, steps)
        err = _max_abs(x - np.array([oracles.ex26(ti, 1.0) for ti in t]))
        ledger.at_most("crosscheck.picard_grid_vs_ex26", err, 5e-3)
    with ledger.op("solve_bsvie_family_deterministic.ex3.3"):
        _, y = backward.solve_bsvie_family_deterministic(
            marking(lambda t: t), lambda t, s, y: -y, 2.0, steps
        )
        ledger.at_most("crosscheck.family_grid_vs_ex33", abs(y[0] - oracles.ex33(0.0, 2.0)), 5e-3)
    with ledger.op("solve_bsvie_family_deterministic.ex3.4"):
        _, y = backward.solve_bsvie_family_deterministic(
            marking(lambda t: 1.0), lambda t, s, y: (t - 1.0) * y, 3.0, steps
        )
        exact, _ = oracles.ex34(0.0, 3.0)
        ledger.at_most("crosscheck.family_grid_vs_ex34", abs(y[0] - exact), 1e-2)
    with ledger.op("solve_bsvie_family_deterministic.ex3.5"):
        t, y = backward.solve_bsvie_family_deterministic(
            marking(lambda t: 0.0), lambda t, s, y: s - t - y, 1.0, steps
        )
        err = _max_abs(y - np.array([oracles.ex35(s, 1.0) for s in t]))
        ledger.at_most("crosscheck.family_grid_vs_ex35", err, 2.0 / steps)


# name -> (setup, run_pass, weights of the meter's calibration parts)
WORKLOADS = {
    "suite": (suite_setup, suite_pass, {"tiny": 1.0}),
    "deep": (deep_setup, deep_pass, {"tiny": 1.0, "wide": 1.0}),
    "crosscheck": (cross_setup, cross_pass, {"wide": 1.0, "python": 1.0}),
}
