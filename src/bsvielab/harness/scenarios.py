"""Scenario registry: the counterexample gallery plus randomized theorem families.

Every entry declares the statement under test, an expected verdict (the
ordering/positivity conclusion either holds under its hypotheses, or fails the
way the closed-form analysis predicts) and a builder that runs the experiment
for a resolved configuration.  Random families are constructed to satisfy
their hypotheses *by construction* (Metzler = nonnegative off-diagonal
sampling plus a free diagonal, and so on), never by rejection, so the
hypothesis region is covered by every draw.

Gallery scenarios cross-check the solvers against their closed-form oracles
and raise if that validity check fails; the reported conclusion checks always
encode the comparison statement itself, so an expected counterexample shows
up as ``conclusion_held == False`` with a quantified worst violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import backward, cones, forward, oracles
from ..lattice import (
    DEFAULT_MAX_DEPTH,
    AdaptedProcess,
    BinaryLattice,
    NodeId,
    TerminalField,
    sign_violation,
)
from .hypotheses import SATISFIED, HypothesisReport, check_hypotheses


# -- outcome plumbing -----------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One conclusion inequality: ``value <= bound`` means the check passes."""

    name: str
    value: float
    bound: float

    @property
    def violation(self) -> float:
        return self.value - self.bound


@dataclass
class ScenarioOutcome:
    hypotheses: HypothesisReport
    checks: list[Check]
    witness: str = ""
    details: dict[str, float] = field(default_factory=dict)

    @property
    def worst_violation(self) -> float:
        """Largest check violation; a non-finite one counts as +inf, so it always fails."""
        return max(
            (c.violation if math.isfinite(c.violation) else math.inf for c in self.checks),
            default=float("-inf"),
        )

    @property
    def conclusion_held(self) -> bool:
        return self.worst_violation <= 0.0


@dataclass(frozen=True)
class RegistryEntry:
    """A scenario: its statement, expected verdict, defaults and builder.

    ``depths`` are the depths the builder accepts, ``default_depth`` among
    them; each is a distinct run.  A random family draws sub-lattice depths
    up to the one asked for, from the 3, 4 or 5 its draw needs up to its
    default depth.  ``prop2.1-random``, ``ex2.6`` and ``ex3.3``-``ex3.5``
    never read the depth and accept only 8.  ``ex2.10`` needs its cutoff
    tau = 0.5 on the grid, so an even depth, and a negative bracket, from
    depth 6.  ``ex3.8`` shows its counterexample from depth 3: below, its
    forward solution is never negative and the indicator free term empty.
    A gallery entry (``default_seed`` 0) draws nothing: seed 0, one trial.
    """

    name: str
    theorem: str
    description: str
    expected_holds: bool
    default_depth: int
    default_seed: int
    build: Callable[[int, int, int], ScenarioOutcome]  # (depth, seed, trials)
    depths: range
    default_trials: int = 1

    def accepted_depths(self) -> str:
        """The depths it accepts, as refusals and ``bsvielab list`` print them."""
        r = self.depths
        step = f" in steps of {r.step}" if r.step > 1 else ""
        return str(r[0]) if len(r) == 1 else f"in [{r.start}, {r[-1]}]{step}"


class ScenarioValidityError(RuntimeError):
    """A gallery scenario strayed from its closed-form oracle.

    The gates read ``not err <= tol``, so a NaN oracle error raises too.
    """


def _worst_trial(
    trials: int, trial: Callable[[int], tuple], label=lambda k, res: f"trial={k}"
) -> tuple[float, str, list[tuple]]:
    """Run ``trial(k)`` for k = 0..trials-1 in order and pick the worst trial.

    Each trial returns a tuple whose first entry is its slack: smaller is
    worse, and a non-finite slack is worse than any finite one.  The worst
    slack starts at 0.0 and only a strictly worse trial replaces it, so the
    earlier trial wins a tie and the first non-finite slack is kept.  Returns
    the worst slack, its witness (``label(k, result)``, "" if no trial went
    below 0.0) and every trial's tuple, for the builder's other columns.
    """
    worst, witness, results = 0.0, "", []
    for k in range(trials):
        res = trial(k)
        results.append(res)
        if math.isfinite(worst) and (res[0] < worst or not math.isfinite(res[0])):
            worst, witness = res[0], label(k, res)
    return worst, witness, results


def _ordering_slack(hi_levels, lo_levels) -> float:
    """Smallest entry of ``hi - lo`` over all levels; NaN if any difference is NaN."""
    return float(np.min([np.min(hi - lo) for hi, lo in zip(hi_levels, lo_levels)]))


# -- samplers ---------------------------------------------------------------------


def _random_metzler(rng, n: int, scale: float) -> np.ndarray:
    m = rng.uniform(0.0, scale, (n, n))
    m[np.diag_indices(n)] = rng.uniform(-scale, scale, n)
    return m


def _random_diagonal(rng, n: int, scale: float) -> np.ndarray:
    return np.diag(rng.uniform(-scale, scale, n))


def _scaled(m: np.ndarray, cap: float, weight: float) -> np.ndarray:
    """Shrink so that ``weight * ||m||_inf <= cap`` (no-op when already below)."""
    norm = float(np.abs(m).sum(axis=1).max()) if m.size else 0.0
    if weight * norm <= cap or norm == 0.0:
        return m
    return m * (cap / (weight * norm))


# -- cone scenarios ----------------------------------------------------------------


def _build_cone_equivalence(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a = rng.uniform(-1.0, 1.0, (n, m))
        lhs = cones.cone_preservation_check(a, sample_count=8, rng_seed=seed + k)
        return (-1.0 if lhs != cones.is_nonneg(a, 0.0) else 0.0,)

    _, witness, results = _worst_trial(trials, trial)
    mismatches = sum(r[0] < 0.0 for r in results)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.not_applicable(),
        checks=[Check("equivalence_mismatches", float(mismatches), 0.0)],
        witness=witness,
    )


# -- forward scenarios ---------------------------------------------------------------


def _piecewise(values: list[np.ndarray], lattice: BinaryLattice):
    def fn(t, values=values, lattice=lattice):
        k = min(int(round(t / lattice.h)), len(values) - 1)
        return values[k]

    return fn


def _injected_violation_missed(seed: int) -> bool:
    """Break a Metzler drift or diagonal diffusion in one entry and see whether the
    flow stays nonnegative for two levels (a NaN counts as staying, i.e. a miss)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    a0 = _random_metzler(rng, n, 0.5)
    a1 = np.diag(rng.uniform(-0.5, 0.5, n))
    if rng.integers(0, 2) == 0:
        a0[1, 0] = -1.0
    else:
        a1[1, 0] = 1.0
    spec = forward.FsdeSpec(n, np.eye(n)[0], a0=lambda t: a0, a1=lambda t: a1)
    x = forward.solve_fsde(spec, BinaryLattice(0.5, 8))
    return not (x.at(1).min() < 0.0 or x.at(2).min() < 0.0)


def _build_forward_positivity(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(4, depth + 1))
        a0b = float(rng.uniform(0.2, 2.0))
        a1b = float(rng.uniform(0.0, 2.0))
        h = 0.95 * forward.worst_case_step_bound(a0b, a1b)
        lat = BinaryLattice(h * N, N)
        a0s = [_random_metzler(rng, n, a0b) for _ in range(N)]
        a1s = [np.diag(rng.uniform(-a1b, a1b, n)) for _ in range(N)]
        bs = [rng.uniform(0.0, 1.0, n) for _ in range(N)]
        spec = forward.FsdeSpec(
            n, rng.uniform(0.0, 1.0, n),
            a0=_piecewise(a0s, lat), a1=_piecewise(a1s, lat), b=_piecewise(bs, lat),
        )
        return forward.solve_fsde(spec, lat).min(), _injected_violation_missed(seed + 10_000 + k)

    worst, witness, results = _worst_trial(trials, trial)
    necessity_misses = sum(r[1] for r in results)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction("metzler_y", "diagonal_z"),
        checks=[
            Check("min_component_below_zero", -worst, 0.0),
            Check("necessity_misses", float(necessity_misses), 0.0),
        ],
        witness=witness,
    )


def _build_forward_comparison(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(4, depth + 1))
        L = _random_metzler(rng, n, 0.6)
        kappa = rng.uniform(0.0, 0.3, n)
        c_sig = rng.uniform(-0.8, 0.8, n)
        alpha = max(0.0, -float(np.min(np.diag(L))))
        beta = float(np.max(np.abs(c_sig)))
        h = 0.9 * forward.worst_case_step_bound(max(alpha, 1e-9), beta)
        h = min(h, 0.5 / max(float(np.abs(L).sum(axis=1).max()) + float(np.max(kappa)), 1e-9))
        lat = BinaryLattice(h * N, N)
        eps = rng.uniform(0.0, 0.5, n)

        def bbar(x, L=L, kappa=kappa):
            return (L @ x.mT).mT + kappa * np.tanh(x)

        def sigma(t, x, nodes, c=c_sig):
            return c * np.tanh(x)

        x_lo = rng.uniform(-1.0, 1.0, n)
        x_hi = x_lo + rng.uniform(0.0, 1.0, n)
        lo = forward.solve_fsde(
            forward.FsdeSpec(n, x_lo, drift=lambda t, x, nd: bbar(x) - eps, diffusion=sigma), lat
        )
        hi = forward.solve_fsde(
            forward.FsdeSpec(n, x_hi, drift=lambda t, x, nd: bbar(x) + eps, diffusion=sigma), lat
        )
        return (_ordering_slack(hi.levels, lo.levels),)

    worst, witness, _ = _worst_trial(trials, trial)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction("metzler_y", "diagonal_z"),
        checks=[Check("ordering_slack_below_zero", -worst, 0.0)],
        witness=witness,
    )


# -- BSDE scenarios -------------------------------------------------------------------


def _build_bsde_duality(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)
    n = 2
    lat = BinaryLattice(1.0, depth)

    def trial(k):
        kind = k % 3
        if kind == 0:
            a = _random_diagonal(rng, n, 1.0)
            b = _random_diagonal(rng, n, 1.0)
        elif kind == 1:
            a = rng.uniform(-1.0, 1.0, (n, n))
            b = np.zeros((n, n))
        else:
            a = rng.uniform(-1.0, 1.0, (n, n))
            b = _random_diagonal(rng, n, 1.0)
        a = _scaled(a, 0.5, lat.h)
        b = _scaled(b, 0.9, lat.sqrt_h)
        f = rng.uniform(-1.0, 1.0, n)
        xi = rng.standard_normal((2**lat.depth, n))
        spec = backward.BsdeSpec(
            n, xi, a=lambda t, m=a: m, b=lambda t, m=b: m, forcing=lambda t, v=f: v
        )
        x = rng.uniform(0.0, 1.0, n)
        s_idx = int(rng.integers(0, 4))
        return -backward.bsde_duality_check(spec, x, s_idx, lat), s_idx

    worst, witness, _ = _worst_trial(trials, trial, lambda k, res: f"trial={k},s_index={res[1]}")
    return ScenarioOutcome(
        hypotheses=HypothesisReport.not_applicable(),
        checks=[Check("max_discrepancy", -worst, 1e-10)],
        witness=witness,
    )


def _comparison_pair_bsde(rng, n: int, lat: BinaryLattice):
    """Metzler-linear-in-y + diagonal-linear-in-z + nondecreasing bounded part."""
    h = lat.h
    a = _scaled(_random_metzler(rng, n, 0.6), 0.45, h)
    b = _scaled(_random_diagonal(rng, n, 0.8), 0.45, lat.sqrt_h)
    kappa = rng.uniform(0.0, 0.3, n)
    eps = rng.uniform(0.0, 0.5, n)

    def gbar(t, y, z, nodes):
        return (a @ y.mT).mT + (b @ z.mT).mT + kappa * np.tanh(y)

    leaves = 2**lat.depth
    xi0 = rng.standard_normal((leaves, n))
    xi1 = xi0 + rng.uniform(0.0, 1.0, (leaves, n))
    lo = backward.BsdeSpec(n, xi0, generator=lambda t, y, z, nd: gbar(t, y, z, nd) - eps)
    hi = backward.BsdeSpec(n, xi1, generator=lambda t, y, z, nd: gbar(t, y, z, nd) + eps)
    return lo, hi


def _build_bsde_comparison(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(4, depth + 1))
        lat = BinaryLattice(1.0, N)
        lo_spec, hi_spec = _comparison_pair_bsde(rng, n, lat)
        lo = backward.solve_bsde(lo_spec, lat)
        hi = backward.solve_bsde(hi_spec, lat)
        return (_ordering_slack(hi.y, lo.y),)

    worst, witness, _ = _worst_trial(trials, trial)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction("metzler_y", "diagonal_z"),
        checks=[Check("ordering_slack_below_zero", -worst, 1e-12)],
        witness=witness,
    )


# -- BSVIE scenarios -------------------------------------------------------------------


def _build_bsvie_comparison(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(4, depth + 1))
        lat = BinaryLattice(1.0, N)
        leaves = 2**N
        p = _scaled(rng.uniform(0.0, 0.4, (n, n)), 0.45, lat.h)  # entrywise nonneg
        b = _scaled(_random_diagonal(rng, n, 0.8), 0.45, lat.sqrt_h)
        kappa = rng.uniform(0.0, 0.3, n)
        eps_lo = rng.uniform(0.0, 0.4, n)
        eps_hi = rng.uniform(0.0, 0.4, n)

        def gbar(t, s, y, z, zeta, nodes):
            return (p @ y.mT).mT + (b @ z.mT).mT + kappa * np.tanh(y)

        psi0 = rng.standard_normal((N + 1, leaves, n))
        psi1 = psi0 + rng.uniform(0.0, 1.0, (N + 1, leaves, n))
        lo = backward.BsvieSpec(
            n, TerminalField(lat, n, psi0),
            generator=lambda t, s, y, z, zeta, nd: gbar(t, s, y, z, zeta, nd) - eps_lo,
            lip_y=1.0, lip_z=1.0, stacked_t=True,
        )
        hi = backward.BsvieSpec(
            n, TerminalField(lat, n, psi1),
            generator=lambda t, s, y, z, zeta, nd: gbar(t, s, y, z, zeta, nd) + eps_hi,
            lip_y=1.0, lip_z=1.0, stacked_t=True,
        )
        f_lo = backward.solve_bsvie_family(lo, lat)
        f_hi = backward.solve_bsvie_family(hi, lat)
        return (_ordering_slack(f_hi.y.levels, f_lo.y.levels),)

    worst, witness, _ = _worst_trial(trials, trial)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction("metzler_y", "diagonal_z", "monotone_selection"),
        checks=[Check("ordering_slack_below_zero", -worst, 1e-12)],
        witness=witness,
    )


def _stepfn_trial(rng, lat: BinaryLattice):
    """A linear BSVIE that is a step function in t, drawn to meet Theorem 3.6's hypotheses.

    A random partition of the grid (t = 0 joins the first piece) carries
    Metzler kernel pieces and nonnegative free-term pieces, both decreasing
    along it, and a diagonal B.  Returns the spec, the kernel pieces and B.
    """
    n = int(rng.integers(1, 4))
    N = lat.depth
    leaves = 2**N
    n_pieces = int(rng.integers(2, 5))
    cuts = sorted(rng.choice(np.arange(1, N), size=n_pieces - 1, replace=False).tolist())
    last = _scaled(_random_metzler(rng, n, 0.5), 0.4, lat.h)
    mats = [last]
    for _ in range(n_pieces - 1):
        mats.insert(0, _scaled(mats[0] + rng.uniform(0.0, 0.3, (n, n)), 0.9, lat.h))
    b = _scaled(_random_diagonal(rng, n, 0.8), 0.45, lat.sqrt_h)
    psis = [rng.uniform(0.0, 1.0, (leaves, n))]
    for _ in range(n_pieces - 1):
        psis.insert(0, psis[0] + rng.uniform(0.0, 1.0, (leaves, n)))
    piece = np.searchsorted(cuts, np.arange(N + 1))  # of grid time i: the cuts below i
    spec = backward.BsvieSpec(
        n, TerminalField(lat, n, np.stack([psis[k] for k in piece])),
        a_kernel=lambda t, s: mats[piece[min(int(round(t / lat.h)), N)]],
        b_coef=lambda s, m=b: m, uses_z=True, lip_y=1.0, lip_z=1.0,
    )
    return spec, mats, b


def _build_stepfn_positivity(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    """Theorem 3.6 on random step-function data: the step-function solver's Y is
    exactly nonnegative, equals the family sweep of the same spec, and every
    draw meets the hypotheses: the slate's four conditions hold and the
    pieces keep the step bound h*||A_k||_inf < 1, sqrt(h)*|diag B| <= 1."""
    rng = np.random.default_rng(seed)
    conditions = ("metzler_y", "diagonal_z", "kernel_t_monotone", "free_term_monotone")

    def trial(k):
        N = int(rng.integers(5, depth + 1))
        lat = BinaryLattice(1.0, N)
        spec, mats, b = _stepfn_trial(rng, lat)
        y = backward.solve_linear_bsvie_stepfn(spec, lat).y
        fam = backward.solve_bsvie_family(spec, lat)
        agree = np.max([np.max(np.abs(f - r)) for f, r in zip(fam.y.levels, y.levels)])
        slate = check_hypotheses(spec, lat).conditions
        met = (
            all(slate[c].status == SATISFIED for c in conditions)
            and all(lat.h * np.abs(m).sum(axis=1).max() < 1.0 for m in mats)
            and lat.sqrt_h * np.abs(np.diag(b)).max() <= 1.0
        )
        return y.min(), agree, met

    worst, witness, results = _worst_trial(trials, trial)
    worst_agree = float(np.max([0.0, *(r[1] for r in results)]))
    hyp_all = all(r[2] for r in results)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction(*conditions),
        checks=[
            Check("min_y_below_zero", -worst, 0.0),
            Check("family_disagreement", worst_agree, 1e-10),
            Check("hypothesis_flags_false", 0.0 if hyp_all else 1.0, 0.0),
        ],
        witness=witness,
    )


def _stacked_diag(d: np.ndarray) -> np.ndarray:
    """``np.diag(d)`` of an (n,) d, or the (rows, n, n) stack of them for a (rows, 1, n) d.

    The off-diagonal entries are +0.0 either way, so a stacked product has
    the bits of the per-row ones.
    """
    if d.ndim == 1:
        return np.diag(d)
    n = d.shape[-1]
    out = np.zeros((d.shape[0], n, n))
    out[:, range(n), range(n)] = d[:, 0, :]
    return out


def _structured_pair(rng, n: int, lat: BinaryLattice, coupling: str):
    """Drift pair h^i(t,s,y) (+ shared B(s) z or C(t) zeta) with ordered,
    t-nonincreasing difference and matching free-term difference ordering.

    The zeta-coupled variant keeps the data differences sparse and small and
    the coupling coefficient strongly time-varying: that is the regime where
    the pointwise ordering of the solutions genuinely breaks while the
    conditional time-averages stay ordered.
    """
    T = lat.horizon
    h = lat.h
    leaves = 2**lat.depth
    m0 = _random_metzler(rng, n, 0.3)
    m1 = rng.uniform(0.0, 0.2, (n, n))
    scale = 0.4 / max(h * float((np.abs(m0) + T * np.abs(m1)).sum(axis=1).max()), 1e-12)
    m0 = m0 * min(1.0, scale)
    m1 = m1 * min(1.0, scale)
    kappa = rng.uniform(0.0, 0.2, n)
    diff_scale = 0.3 if coupling == "z" else 0.05
    d0 = rng.uniform(0.0, diff_scale, n)
    d1 = rng.uniform(0.0, diff_scale, n)

    def h_lo(t, s, y, nodes):
        return ((m0 + (T - t) * m1) @ y.mT).mT + kappa * np.tanh(y)

    def h_hi(t, s, y, nodes):
        return h_lo(t, s, y, nodes) + d0 + (T - t) * d1

    psi0 = rng.standard_normal((lat.depth + 1, leaves, n))
    if coupling == "z":
        xi0 = rng.uniform(0.0, 0.5, (leaves, n))
        xi1 = rng.uniform(0.0, 0.5, (leaves, n))
    else:
        xi0 = rng.uniform(0.0, 0.3, (leaves, n)) * (rng.uniform(0, 1, (leaves, n)) < 0.3)
        xi1 = rng.uniform(0.0, 0.3, (leaves, n)) * (rng.uniform(0, 1, (leaves, n)) < 0.3)
    psi1 = psi0 + xi0[None] + (T - lat.times)[:, None, None] * xi1[None]
    if coupling == "z":
        b = _scaled(_random_diagonal(rng, n, 0.8), 0.45, lat.sqrt_h)
        kw = dict(b_coef=lambda s, m=b: m, uses_z=True, lip_z=1.0)
    else:
        c0 = rng.uniform(-1.5, 1.5, n)
        c1 = rng.uniform(-3.0, 3.0, n)
        kw = dict(
            c_coef=lambda t, c0=c0, c1=c1: _stacked_diag(c0 + c1 * t),
            uses_z=False, uses_zeta=True,
        )
    lo = backward.BsvieSpec(
        n, TerminalField(lat, n, psi0), h_fn=h_lo, lip_y=1.0, stacked_t=True, **kw
    )
    hi = backward.BsvieSpec(
        n, TerminalField(lat, n, psi1), h_fn=h_hi, lip_y=1.0, stacked_t=True, **kw
    )
    return lo, hi


def _build_structured_comparison(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(4, depth + 1))
        lat = BinaryLattice(1.0, N)
        lo, hi = _structured_pair(rng, n, lat, coupling="z")
        f_lo = backward.solve_bsvie_family(lo, lat)
        f_hi = backward.solve_bsvie_family(hi, lat)
        return (_ordering_slack(f_hi.y.levels, f_lo.y.levels),)

    worst, witness, _ = _worst_trial(trials, trial)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction(
            "metzler_y", "diagonal_z", "kernel_t_monotone",
            "difference_monotone", "free_term_monotone",
        ),
        checks=[Check("ordering_slack_below_zero", -worst, 1e-12)],
        witness=witness,
    )


def _build_weak_positivity(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(4, depth + 1))
        lat = BinaryLattice(1.0, N)
        leaves = 2**N
        m0 = _scaled(_random_metzler(rng, n, 0.4), 0.4, lat.h)
        m1 = _scaled(rng.uniform(0.0, 0.2, (n, n)), 0.4, lat.h * lat.horizon)
        c = _scaled(_random_diagonal(rng, n, 1.0), 0.9, lat.sqrt_h)
        psi = rng.uniform(0.0, 1.0, (N + 1, leaves, n))
        spec = backward.BsvieSpec(
            n, TerminalField(lat, n, psi),
            a_kernel=lambda t, s, m0=m0, m1=m1: m0 + s * m1,
            c_coef=lambda t, m=c: m,
            uses_z=False, uses_zeta=True, lip_y=1.0, stacked_t=True,
        )
        sol = backward.solve_bsvie_msolution(spec, lat)
        return backward.weak_comparison_functional(sol.y, lat).min(), sol.msolution_residual

    worst, witness, results = _worst_trial(trials, trial)
    worst_res = float(np.max([0.0, *(r[1] for r in results)]))
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction(
            "metzler_y", "diagonal_z", "kernel_t_monotone",
            "free_term_monotone", "zeta_coeff_s_free",
        ),
        checks=[
            Check("weak_functional_below_zero", -worst, 1e-12),
            Check("msolution_residual", worst_res, 1e-12),
        ],
        witness=witness,
    )


def _build_weak_comparison(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        N = int(rng.integers(5, depth + 1))
        lat = BinaryLattice(1.0, N)
        lo, hi = _structured_pair(rng, 1, lat, coupling="zeta")
        m_lo = backward.solve_bsvie_msolution(lo, lat)
        m_hi = backward.solve_bsvie_msolution(hi, lat)
        w_lo = backward.weak_comparison_functional(m_lo.y, lat)
        w_hi = backward.weak_comparison_functional(m_hi.y, lat)
        return (
            _ordering_slack(w_hi.levels, w_lo.levels),
            _ordering_slack(m_hi.y.levels, m_lo.y.levels),
            m_lo.msolution_residual, m_hi.msolution_residual,
        )

    worst_weak, witness, results = _worst_trial(trials, trial)
    worst_res = float(np.max([0.0, *(v for r in results for v in r[2:])]))
    # a NaN pointwise slack is no failure: it must not satisfy the check below
    pointwise = [r[1] for r in results if r[1] < -1e-9]
    pointwise_failures = len(pointwise)
    worst_pointwise = float(np.min([0.0, *pointwise]))
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction(
            "metzler_y", "diagonal_z", "kernel_t_monotone",
            "difference_monotone", "free_term_monotone", "zeta_coeff_s_free",
        ),
        checks=[
            Check("weak_ordering_slack_below_zero", -worst_weak, 1e-10),
            Check("pointwise_failure_missing", 1.0 if pointwise_failures == 0 else 0.0, 0.0),
            Check("msolution_residual", worst_res, 1e-12),
        ],
        witness=witness,
        details={
            "pointwise_failures": pointwise_failures,
            "worst_pointwise_slack": worst_pointwise,
        },
    )


def _build_bsvie_duality(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)
    n = 2
    lat = BinaryLattice(1.0, depth)

    def trial(k):
        m0 = _scaled(_random_diagonal(rng, n, 0.6), 0.4, lat.h)
        c = _scaled(_random_diagonal(rng, n, 1.0), 0.9, lat.sqrt_h)
        psi = rng.standard_normal((lat.depth + 1, 2**lat.depth, n))
        spec = backward.BsvieSpec(
            n, TerminalField(lat, n, psi),
            a_kernel=lambda t, s, m=m0: m, c_coef=lambda t, m=c: m,
            uses_z=False, uses_zeta=True, lip_y=0.6, stacked_t=True,
        )
        eta = AdaptedProcess.from_function(
            lat, n,
            lambda t, w: np.stack([np.abs(np.sin(w)) + 0.1, 0.5 * np.ones_like(w)], axis=1),
        )
        return (-backward.bsvie_duality_check(spec, eta, lat),)

    worst, witness, _ = _worst_trial(trials, trial)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.not_applicable(),
        checks=[Check("max_discrepancy", -worst, 1e-8)],
        witness=witness,
    )


def _build_picard_contraction(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(5, depth + 1))
        lat = BinaryLattice(1.0, N)
        leaves = 2**N
        b = _scaled(_random_diagonal(rng, n, 0.6), 0.45, lat.sqrt_h)
        eps = rng.uniform(0.1, 0.5, n)
        psibar = rng.standard_normal((N + 1, leaves, n))
        psi1 = psibar + rng.uniform(0.0, 0.5, (N + 1, leaves, n))

        def gbar(t, s, y, z, zeta, nd, b=b):
            return np.arctan(y) + (b @ z.mT).mT

        comp = backward.BsvieSpec(
            n, TerminalField(lat, n, psibar), generator=gbar, lip_y=1.0, lip_z=0.6,
            stacked_t=True,
        )
        upper = backward.BsvieSpec(
            n, TerminalField(lat, n, psi1),
            generator=lambda t, s, y, z, zeta, nd: gbar(t, s, y, z, zeta, nd) + eps,
            lip_y=1.0, lip_z=0.6, stacked_t=True,
        )
        _, hist = backward.picard_bsvie(upper, comp, lat)
        ratio = float(np.max(hist.ratios)) if hist.ratios else 0.0
        return -ratio, float(np.max(hist.max_increase))

    worst, witness, results = _worst_trial(trials, trial)
    worst_increase = float(np.max([0.0, *(r[1] for r in results)]))
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction("metzler_y", "diagonal_z", "monotone_selection"),
        checks=[
            Check("weighted_norm_ratio", -worst, 1.0 - 1e-9),
            Check("iterate_increase", worst_increase, 1e-12),
        ],
        witness=witness,
    )


def _build_msolution_structural(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(4, depth + 1))
        lat = BinaryLattice(1.0, N)
        leaves = 2**N
        psi = rng.standard_normal((N + 1, leaves, n))
        c0 = rng.uniform(-1.0, 1.0, n)
        c1 = rng.uniform(-2.0, 2.0, n)

        def gen(t, s, y, z, zeta, nd, c0=c0, c1=c1):
            return 0.3 * np.tanh(y) + zeta * (c0 + c1 * t) / (1.0 + s)

        spec = backward.BsvieSpec(
            n, TerminalField(lat, n, psi), generator=gen,
            uses_z=False, uses_zeta=True, lip_y=0.3, stacked_t=True,
        )
        return (-backward.solve_bsvie_msolution(spec, lat).msolution_residual,)

    worst, witness, _ = _worst_trial(trials, trial)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.not_applicable(),
        checks=[Check("reconstruction_residual", -worst, 1e-12)],
        witness=witness,
    )


# -- counterexample gallery ------------------------------------------------------------


def _aux_lattice(horizon: float = 1.0, depth: int = 8) -> BinaryLattice:
    """Small lattice used only for sampling hypothesis conditions of gallery data."""
    return BinaryLattice(horizon, depth)


def _build_ex26(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T, steps = 1.0, 1024
    times, x = forward.solve_linear_fsvie_deterministic(
        lambda t: 1.0, lambda t, s: -2.0 * np.exp(t - s), T, steps
    )
    oracle = np.array([oracles.ex26(t, T) for t in times])
    err = float(np.max(np.abs(x - oracle)))
    if not err <= 5e-3:
        raise ScenarioValidityError(f"fine-grid solution strayed from the closed form: {err:.2e}")
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]), a0=lambda t, s: np.array([[-2.0 * np.exp(t - s)]])
    )
    hyp = check_hypotheses(spec, _aux_lattice(T))
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("min_x_below_zero", -float(np.min(x)), 0.0)],
        witness=f"t={times[int(np.argmin(x))]:g}",
        details={"oracle_error": err, "x_at_horizon": float(x[-1]), "steps": steps},
    )


def _build_ex27(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T = 1.0
    lat = BinaryLattice(T, depth)
    spec = forward.FsvieSpec(1, lambda t: np.array([2.0 * T - t]), a1=lambda s: np.eye(1))
    x = forward.solve_linear_fsvie(spec, lat)
    # one oracle call, at the all-down leaf: the path the closed form sends lowest
    leaf = NodeId(depth, 2**depth - 1)
    oracle, _ = oracles.ex27(leaf, T, lat)
    err = abs(float(x.value(leaf)[0]) - oracle)
    if not err <= 2.0 * lat.sqrt_h:  # measured at most 1.151 sqrt(h), depths 1-16
        raise ScenarioValidityError(
            f"all-down leaf strayed from the closed form: {err:.2e} > 2 sqrt(h)"
        )
    if depth >= 2 and not oracle < 0.0:
        raise ScenarioValidityError(f"closed form at the all-down leaf is {oracle!r}, not negative")
    sv = sign_violation(x)
    hyp = check_hypotheses(spec, lat if depth <= 10 else _aux_lattice(T))
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("min_x_below_zero", -x.min(), 0.0)],
        witness=str(sv.witness) if sv.witness else "",
        details={
            "violation_probability": sv.probability,
            "violation_mass": float(sv.fraction),
            "oracle_error": err,
            "oracle_all_down_leaf": oracle,
        },
    )


def _build_ex28(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T = 1.0
    lat = BinaryLattice(T, depth)
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]),
        a1_full=lambda t, s: np.array([[(2.0 * T - s) / (2.0 * T - t)]]),
    )
    x = forward.solve_linear_fsvie(spec, lat)
    ref = forward.solve_linear_fsvie(
        forward.FsvieSpec(1, lambda t: np.array([2.0 * T - t]), a1=lambda s: np.eye(1)), lat
    )
    transform_err = float(np.max([
        np.max(np.abs((2.0 * T - lat.times[k]) * x.at(k) - ref.at(k))) for k in range(depth + 1)
    ]))
    if not transform_err <= 1e-12:
        raise ScenarioValidityError(f"scaling transform mismatch: {transform_err:.2e}")
    sv = sign_violation(x)
    hyp = check_hypotheses(spec, lat if depth <= 10 else _aux_lattice(T))
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("min_x_below_zero", -x.min(), 0.0)],
        witness=str(sv.witness) if sv.witness else "",
        details={
            "violation_probability": sv.probability,
            "transform_identity_error": transform_err,
        },
    )


def _build_ex210(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T = 1.0
    tau = 0.5
    lat = BinaryLattice(T, depth)
    level = depth
    criterion_leaves = 0
    jensen_leaves = 0
    min_val = math.inf
    witness = ""
    for idx in range(2**level):
        r = oracles.ex210(NodeId(level, idx), tau, T, lat)
        if r.bracket < 0.0:
            criterion_leaves += 1
            if not witness:
                witness = str(NodeId(level, idx))
        if r.jensen_criterion < 0.0:
            jensen_leaves += 1
        min_val = min(min_val, r.value)
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]),
        a0=lambda t, s: np.array([[1.0 if t <= tau else 0.0]]),
        a1=lambda s: np.eye(1),
    )
    solver_min = forward.solve_linear_fsvie(spec, lat).min()
    hyp = check_hypotheses(spec, lat if depth <= 10 else _aux_lattice(T))
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("min_x_below_zero", -min_val, 0.0)],
        witness=witness,
        details={
            "criterion_leaves": criterion_leaves,
            "jensen_criterion_leaves": jensen_leaves,
            "solver_min": solver_min,
        },
    )


def _psi_linear_field(lat: BinaryLattice, fn) -> TerminalField:
    return TerminalField.from_time_function(lat, 1, lambda t: np.array([fn(t)]))


def _build_ex33(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T, steps = 2.0, 1024
    times, y = backward.solve_bsvie_family_deterministic(
        lambda t: t, lambda t, s, yv: -yv, T, steps
    )
    exact0 = oracles.ex33(0.0, T)
    err0 = abs(float(y[0]) - exact0)
    if not err0 <= 5e-3:
        raise ScenarioValidityError(f"value at 0 strayed from the closed form: {err0:.2e}")
    lat = _aux_lattice(T)
    spec = backward.BsvieSpec(
        1, _psi_linear_field(lat, lambda t: t),
        a_kernel=lambda t, s: np.array([[-1.0]]), uses_z=False, lip_y=1.0,
    )
    hyp = check_hypotheses(spec, lat)
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("ordering_slack_below_zero", -float(np.min(y)), 0.0)],
        witness="t=0",
        details={"y_at_zero": float(y[0]), "oracle_error": err0, "steps": steps},
    )


def _build_ex34(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T, steps = 3.0, 8192
    times, y = backward.solve_bsvie_family_deterministic(
        lambda t: 1.0, lambda t, s, yv: (t - 1.0) * yv, T, steps
    )
    exact0, _ = oracles.ex34(0.0, T)
    err0 = abs(float(y[0]) - exact0)
    if not err0 <= 1e-2:
        raise ScenarioValidityError(f"value at 0 strayed from the quadrature oracle: {err0:.2e}")
    lat = _aux_lattice(T)
    spec = backward.BsvieSpec(
        1, _psi_linear_field(lat, lambda t: 1.0),
        a_kernel=lambda t, s: np.array([[t - 1.0]]), uses_z=False, lip_y=T,
    )
    hyp = check_hypotheses(spec, lat)
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("ordering_slack_below_zero", -float(np.min(y)), 0.0)],
        witness="t=0",
        details={"y_at_zero": float(y[0]), "oracle_error": err0, "steps": steps},
    )


def _build_ex35(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T, steps = 1.0, 1024
    h = T / steps
    times, y = backward.solve_bsvie_family_deterministic(
        lambda t: 0.0, lambda t, s, yv: s - t - yv, T, steps
    )
    oracle = np.array([oracles.ex35(s, T) for s in times])
    err = float(np.max(np.abs(y - oracle)))
    if not err <= 2.0 * h:
        raise ScenarioValidityError(f"solution strayed from the closed form: {err:.2e}")
    # equivalent form with the inner time moved into the free term
    lat = _aux_lattice(T)
    spec = backward.BsvieSpec(
        1, _psi_linear_field(lat, lambda t: 0.5 * (T - t) ** 2),
        a_kernel=lambda t, s: np.array([[-1.0]]), uses_z=False, lip_y=1.0,
    )
    hyp = check_hypotheses(spec, lat)
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("min_y_below_zero", -float(np.min(y)), h)],
        witness=f"t={times[int(np.argmin(y))]:g}",
        details={"oracle_error": err, "min_y": float(np.min(y)), "steps": steps},
    )


def _build_ex38(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    T = 1.0
    lat = BinaryLattice(T, depth)
    N = depth
    fw = forward.solve_linear_fsvie(
        forward.FsvieSpec(
            1, lambda t: np.array([1.0]),
            a1_full=lambda t, s: np.array([[(2.0 * T - s) / (2.0 * T - t)]]),
        ),
        lat,
    )
    ind = np.empty((N + 1, 2**N, 1))
    for i in range(N + 1):
        ind[i] = lat.lift((fw.at(i) < 0.0).astype(float), i, N)
    psi = TerminalField(lat, 1, ind)
    spec = backward.BsvieSpec(
        1, psi,
        generator=lambda t, s, y, z, zeta, nd: ((2.0 * T - t) / (2.0 * T - s)) * zeta,
        uses_z=False, uses_zeta=True, stacked_t=True,
    )
    sol = backward.solve_bsvie_msolution(spec, lat)
    e_int_y = sum(lat.h * float(np.mean(sol.y.at(i))) for i in range(N))
    e_int_dual = sum(
        lat.h * float(np.mean(np.where(fw.at(i) < 0.0, fw.at(i), 0.0))) for i in range(N)
    )
    pairing_err = abs(e_int_y - e_int_dual)
    if not pairing_err <= 1e-10:
        raise ScenarioValidityError(f"duality pairing mismatch: {pairing_err:.2e}")
    hyp = check_hypotheses(spec, lat if depth <= 10 else _aux_lattice(T))
    return ScenarioOutcome(
        hypotheses=hyp,
        checks=[Check("neg_expected_time_integral", -e_int_y, 0.0)],
        witness="t=0",
        details={
            "expected_time_integral": e_int_y,
            "dual_pairing": e_int_dual,
            "pairing_error": pairing_err,
            "msolution_residual": sol.msolution_residual,
        },
    )


# -- registry ---------------------------------------------------------------------------


REGISTRY: dict[str, RegistryEntry] = {}


def _register(entry: RegistryEntry) -> None:
    REGISTRY[entry.name] = entry


_register(RegistryEntry(
    "prop2.1-random", "cone-preservation-equivalence",
    "vertex test for x>=0 => Ax>=0 agrees with entrywise nonnegativity on random matrices",
    True, 8, 20240, _build_cone_equivalence, range(8, 9), default_trials=1000,
))
_register(RegistryEntry(
    "prop2.2-random", "forward-positivity",
    "Metzler drift + diagonal diffusion + nonnegative data keep the forward flow nonnegative;"
    " an injected off-diagonal violation breaks it within two levels",
    True, 12, 20241, _build_forward_positivity, range(4, 13), default_trials=200,
))
_register(RegistryEntry(
    "thm2.3-random", "forward-comparison",
    "ordered drifts around a Metzler-Jacobian midpoint with shared diagonal-Jacobian"
    " diffusion propagate ordered initial states",
    True, 10, 20242, _build_forward_comparison, range(4, 11), default_trials=100,
))
_register(RegistryEntry(
    "bsde-duality-random", "bsde-duality",
    "backward solution pairs exactly with the adjoint forward flow",
    True, 8, 20243, _build_bsde_duality, range(3, 9), default_trials=50,
))
_register(RegistryEntry(
    "thm2.5-random", "bsde-comparison",
    "ordered terminal data and generators around a Metzler/diagonal midpoint order the"
    " backward solutions at every node",
    True, 10, 20244, _build_bsde_comparison, range(4, 11), default_trials=200,
))
_register(RegistryEntry(
    "thm3.2-random", "bsvie-comparison",
    "ordered free terms and generators with a y-nondecreasing selection order the"
    " backward Volterra solutions at every node",
    True, 9, 20245, _build_bsvie_comparison, range(4, 10), default_trials=200,
))
_register(RegistryEntry(
    "thm3.6-random", "bsvie-stepfn-positivity",
    "step-function kernel data under Metzler/monotone/diagonal hypotheses yield an exactly"
    " nonnegative solution, cross-validated against the per-time sweep",
    True, 10, 20246, _build_stepfn_positivity, range(5, 11), default_trials=50,
))
_register(RegistryEntry(
    "thm3.7-random", "bsvie-structured-comparison",
    "structured drifts with an ordered, t-nonincreasing difference order the solutions"
    " pointwise",
    True, 9, 20247, _build_structured_comparison, range(4, 10), default_trials=100,
))
_register(RegistryEntry(
    "thm3.9-random", "bsvie-weak-positivity",
    "nonnegative free term with Metzler kernel and diagonal sub-diagonal coupling makes the"
    " conditional time-average of Y nonnegative",
    True, 8, 20248, _build_weak_positivity, range(4, 9), default_trials=50,
))
_register(RegistryEntry(
    "thm3.10-random", "bsvie-weak-comparison",
    "ordered structured data with sub-diagonal coupling order the conditional time-averages;"
    " pointwise ordering genuinely fails in some draws",
    True, 9, 20249, _build_weak_comparison, range(5, 10), default_trials=100,
))
_register(RegistryEntry(
    "bsvie-duality-random", "bsvie-duality",
    "M-solution pairs with the adjoint forward Volterra flow",
    True, 8, 20250, _build_bsvie_duality, range(1, 9), default_trials=25,
))
_register(RegistryEntry(
    "picard-contraction", "picard-contraction",
    "frozen-y successive scheme: nodewise decreasing iterates, weighted-norm contraction",
    True, 8, 20251, _build_picard_contraction, range(5, 9), default_trials=50,
))
_register(RegistryEntry(
    "msolution-structural", "msolution-structural",
    "martingale-representation identity of every M-solution holds to 1e-12",
    True, 8, 20252, _build_msolution_structural, range(4, 9), default_trials=30,
))
_register(RegistryEntry(
    "ex2.6", "forward-volterra-positivity",
    "negative, t-decreasing drift kernel drives a positive free term negative",
    False, 8, 0, _build_ex26, range(8, 9),
))
_register(RegistryEntry(
    "ex2.7", "forward-volterra-positivity",
    "decreasing free term with unit diffusion kernel goes negative with positive probability",
    False, 14, 0, _build_ex27, range(1, DEFAULT_MAX_DEPTH + 1),
))
_register(RegistryEntry(
    "ex2.8", "forward-volterra-positivity",
    "t-dependent diffusion kernel defeats positivity even with a constant free term",
    False, 14, 0, _build_ex28, range(1, DEFAULT_MAX_DEPTH + 1),
))
_register(RegistryEntry(
    "ex2.10", "forward-volterra-positivity",
    "indicator drift kernel (not nondecreasing in t) goes negative past the cutoff",
    False, 12, 0, _build_ex210, range(6, DEFAULT_MAX_DEPTH + 1, 2),
))
_register(RegistryEntry(
    "ex3.3", "bsvie-comparison",
    "increasing free term defeats the pointwise comparison near zero",
    False, 8, 0, _build_ex33, range(8, 9),
))
_register(RegistryEntry(
    "ex3.4", "bsvie-comparison",
    "t-increasing drift kernel defeats the pointwise comparison for long horizons",
    False, 8, 0, _build_ex34, range(8, 9),
))
_register(RegistryEntry(
    "ex3.5", "bsvie-stepfn-positivity",
    "nonincreasing rewriting of a benign equation: positivity holds",
    True, 8, 0, _build_ex35, range(8, 9),
))
_register(RegistryEntry(
    "ex3.8", "bsvie-weak-positivity",
    "two-time sub-diagonal coupling with an indicator free term makes the expected time"
    " integral negative",
    False, 12, 0, _build_ex38, range(3, DEFAULT_MAX_DEPTH + 1),
))


def scenario_names() -> list[str]:
    return sorted(REGISTRY)
