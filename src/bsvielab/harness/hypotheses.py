"""Structural hypothesis checking for forward/backward Volterra data.

Every comparison scenario carries a fixed slate of conditions; each is
reported as satisfied, violated (with a witness), or not applicable -- never
silently skipped.

One scan evaluates each kernel once per grid pair (t_i, s_j), s ascending and
then t (t >= s forward, t <= s backward): ``a0``, ``a1_full`` and a y-linear
``a_kernel`` as given, a nonlinear drift as finite-difference Jacobians at
sampled y points, in y and, for a generator, in z and zeta.  Coefficients of
one time and free terms are read at the grid times.  Each condition asks
whether these values, or their steps from t_i to t_{i+1}, lie in one cone:
nonnegative, Metzler, diagonal or zero.  The witness is the first value
outside it, at its entry furthest outside: the most negative for the
nonnegative and Metzler cones, the largest in absolute value, signed, for the
diagonal and zero cones (off the diagonal for Metzler and diagonal).  A
non-finite value raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .. import cones
from ..backward import BsvieSpec
from ..forward import FsvieSpec
from ..lattice import AdaptedProcess, BinaryLattice, TerminalField

# finite-difference probes of nonlinear drifts: sampled y points, their seed, the tolerance
SAMPLE_COUNT = 8
SEED = 0
FD_TOL = 1e-7

SATISFIED = "satisfied"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"

# fixed rendering order of the condition slate
CONDITION_ORDER = [
    "drift_kernel_nonneg",
    "metzler_y",
    "diagonal_z",
    "kernel_t_monotone",
    "free_term_monotone",
    "difference_monotone",
    "monotone_selection",
    "diffusion_t_free",
    "zeta_coeff_s_free",
]


@dataclass(frozen=True)
class ConditionReport:
    status: str
    witness: str | None = None


@dataclass
class HypothesisReport:
    """Per-condition status with a first witness for each violation."""

    conditions: dict[str, ConditionReport] = field(default_factory=dict)

    def set(self, name: str, witness: str | None) -> None:
        """Record ``name`` as violated with ``witness``, or as satisfied when it is None."""
        self.conditions[name] = ConditionReport(
            SATISFIED if witness is None else VIOLATED, witness
        )

    def finalize(self) -> "HypothesisReport":
        for name in CONDITION_ORDER:
            self.conditions.setdefault(name, ConditionReport(NOT_APPLICABLE))
        return self

    def flags_string(self) -> str:
        short = {SATISFIED: "ok", VIOLATED: "violated", NOT_APPLICABLE: "na"}
        return ";".join(f"{n}={short[self.conditions[n].status]}" for n in CONDITION_ORDER)

    @classmethod
    def not_applicable(cls) -> "HypothesisReport":
        return cls().finalize()

    @classmethod
    def by_construction(cls, *names: str) -> "HypothesisReport":
        """Conditions guaranteed by the sampling construction of a random family."""
        rep = cls()
        for n in names:
            rep.set(n, None)
        return rep.finalize()


def _outside(cone: str, items, tol: float = 0.0):
    """(key, entry, value) of the first ``(key, matrix)`` item outside ``cone`` by more
    than ``tol``, at its entry furthest outside (module docstring); None if every item is in.

    The diagonal and zero cones are the Metzler and nonnegative cones
    intersected with their negatives.  Every item is read, then all are
    tested in one stacked cone call: the Metzler and diagonal cones take the
    items as a stack of square matrices of one size; the entrywise cones take
    every entry as a 1x1 matrix, so items of any shapes stack.  A non-finite
    entry in any item raises ValueError.
    """
    keys, ms = [], []
    for key, m in items:
        keys.append(key)
        ms.append(np.asarray(m, dtype=float))
    if not ms:
        return None
    if cone in ("nonneg", "zero"):
        stack = np.concatenate([m.ravel() for m in ms]).reshape(-1, 1, 1)
        inside = cones.is_nonneg(stack, tol) & (cone == "nonneg" or cones.is_nonneg(-stack, tol))
    else:
        stack = np.stack(ms)
        inside = cones.is_metzler(stack, tol) & (cone == "metzler" or cones.is_metzler(-stack, tol))
    if inside.all():
        return None
    # the item of the first stacked matrix outside: itself, or the item its entry is in
    first = int(np.argmin(inside))
    if stack.shape[0] != len(ms):
        first = int(np.searchsorted(np.cumsum([m.size for m in ms]), first, side="right"))
    m = ms[first]
    score = m if cone in ("nonneg", "metzler") else -np.abs(m)
    if cone in ("metzler", "diagonal"):
        score = np.where(np.eye(*m.shape, dtype=bool), np.inf, score)
    e = np.unravel_index(int(np.argmin(score)), m.shape)
    return keys[first], tuple(int(i) for i in e), float(m[e])


def _pair_witness(cone: str, items, tol: float = 0.0) -> str | None:
    """The witness of the first ``((t, s), matrix)`` item outside ``cone``; None if none is."""
    hit = _outside(cone, items, tol)
    if hit is None:
        return None
    (t, s), e, v = hit
    return f"t={t:g},s={s:g},entry={e},value={v:g}"


def _grid(fn: Callable | None, times, pairs) -> dict:
    """``[fn(t_i, s_j)]`` at each grid pair (i, j), in scan order; empty when fn is None."""
    if fn is None:
        return {}
    return {(i, j): [np.asarray(fn(times[i], times[j]), dtype=float)] for i, j in pairs}


def _values(kernel: dict, times):
    """((t, s), value) for every scanned value of ``kernel``, in scan order."""
    return (((times[i], times[j]), m) for (i, j), ms in kernel.items() for m in ms)


def _t_steps(kernel: dict, times, rising: bool):
    """((t_i, s), step) from each value at t_i to the one at t_{i+1}, same s and sample:
    later minus earlier if ``rising``, earlier minus later otherwise."""
    for (i, j), ms in kernel.items():
        for m, m1 in zip(ms, kernel.get((i + 1, j), ())):
            yield (times[i], times[j]), (m1 - m if rising else m - m1)


def _on_times(coef: Callable | None, times):
    """((t, t), coef(t)) at each grid time, evaluated as the items are read."""
    return () if coef is None else (((t, t), np.asarray(coef(t), dtype=float)) for t in times)


def _fd_jacobian(f: Callable, args: tuple, arg: int, base: np.ndarray,
                 eps: float = 1e-6) -> np.ndarray:
    """Columns ``(f(*args) with args[arg] bumped by eps in one coordinate - base) / eps``."""
    x = args[arg]
    jac = np.empty((base.size, x.size))
    for c in range(x.size):
        xp = x.copy()
        xp.flat[c] += eps
        bumped = f(*args[:arg], xp, *args[arg + 1:])
        jac[:, c] = (np.asarray(bumped, dtype=float).reshape(base.size) - base) / eps
    return jac


def check_hypotheses(spec, lattice: BinaryLattice) -> HypothesisReport:
    """Evaluate the condition slate for a forward or backward Volterra spec."""
    if isinstance(spec, FsvieSpec):
        rep = _check_fsvie(spec, lattice)
    elif isinstance(spec, BsvieSpec):
        rep = _check_bsvie(spec, lattice)
    else:
        raise TypeError(f"no hypothesis slate for {type(spec).__name__}")
    return rep.finalize()


def _check_fsvie(spec: FsvieSpec, lattice: BinaryLattice) -> HypothesisReport:
    rep = HypothesisReport()
    times, N = lattice.times, lattice.depth
    pairs = [(i, j) for j in range(N + 1) for i in range(j, N + 1)]
    a0 = _grid(spec.a0, times, pairs)
    rep.set("drift_kernel_nonneg", _pair_witness("nonneg", _values(a0, times)))
    rep.set("metzler_y", _pair_witness("metzler", _values(a0, times)))
    rep.set("kernel_t_monotone", _pair_witness("nonneg", _t_steps(a0, times, rising=True)))
    # diffusion: diagonal, and independent of the outer time
    a1_full = _grid(spec.a1_full, times, pairs)
    rep.set("diagonal_z", _pair_witness(
        "diagonal", chain(_on_times(spec.a1, times), _values(a1_full, times))
    ))
    rep.set("diffusion_t_free", _pair_witness("zero", _t_steps(a1_full, times, rising=True)))
    rep.set("free_term_monotone", _free_term_witness(spec.phi, lattice))
    return rep


def _free_term_witness(phi, lattice: BinaryLattice) -> str | None:
    # nondecreasing in t and nonnegative, pathwise
    times = lattice.times
    if isinstance(phi, AdaptedProcess):
        levels = [phi.at(k) for k in range(lattice.depth + 1)]
        if _outside("nonneg", enumerate(levels)):
            return "negative free-term value"
        hit = _outside("nonneg", (
            (times[k], levels[k + 1] - lattice.lift(levels[k], k, k + 1))
            for k in range(lattice.depth)
        ))
        return None if hit is None else f"decrease across t={hit[0]:g}"
    vals = [np.asarray(phi(t), dtype=float).reshape(1, -1) for t in times]

    def steps():
        for k, v in enumerate(vals):
            yield ("value", times[k]), v
            if k:
                yield ("decrease", times[k - 1]), v - vals[k - 1]

    hit = _outside("nonneg", steps())
    return None if hit is None else f"t={hit[0][1]:g},{hit[0][0]}={hit[2]:g}"


def _psi_witness(psi: TerminalField, lattice: BinaryLattice) -> str | None:
    # nonincreasing in t and nonnegative, pathwise over leaves
    N, times = lattice.depth, lattice.times
    hit = _outside("nonneg", ((times[i], psi.slice(i) - psi.slice(i + 1)) for i in range(N)))
    if hit is not None:
        return f"t={hit[0]:g},increase={-hit[2]:g}"
    hit = _outside("nonneg", [("T", psi.slice(N))])
    return None if hit is None else f"t=T,value={hit[2]:g}"


def _probe_drift(spec: BsvieSpec, times, pairs):
    """Finite-difference Jacobians of the drift at the sampled y points of each pair:
    in y, and for a generator of dimension > 1 in z and zeta (a 1x1 coupling is
    diagonal); plus, at the first point of each pair with t < T when no ``c_coef``
    gives it, the response to a unit bump of each zeta component."""
    n = spec.dim
    ys = np.random.default_rng(SEED).uniform(-2.0, 2.0, (SAMPLE_COUNT, n))
    zero = np.zeros((1, n))
    coupled = spec.generator is not None and n > 1
    bumped = [0] + [a for a, uses in ((1, spec.uses_z), (2, spec.uses_zeta)) if uses and coupled]
    probe_zeta = spec.uses_zeta and spec.c_coef is None
    jacs, unit_zeta = ({}, {}, {}), {}
    for i, j in pairs:
        t, s = times[i], times[j]
        f = lambda y, z, zeta: spec.drift(t, s, y, z, zeta, None)
        for k, y in enumerate(ys):
            args = (y.reshape(1, n), zero if spec.uses_z else None,
                    zero if spec.uses_zeta else None)
            base = np.asarray(f(*args), dtype=float).reshape(n)
            for a in bumped:
                jacs[a].setdefault((i, j), []).append(_fd_jacobian(f, args, a, base))
            if probe_zeta and k == 0 and i + 1 < len(times):
                unit_zeta[i, j] = _fd_jacobian(f, args, 2, base, eps=1.0)
    return (*jacs, unit_zeta)


def _check_bsvie(spec: BsvieSpec, lattice: BinaryLattice) -> HypothesisReport:
    rep = HypothesisReport()
    times, N = lattice.times, lattice.depth
    pairs = [(i, j) for j in range(N + 1) for i in range(j + 1)]
    if spec.is_linear_y and spec.a_kernel is not None:  # y-independent: one probe suffices
        jac_y, jac_z, jac_zeta, unit_zeta = _grid(spec.a_kernel, times, pairs), {}, {}, {}
    else:
        jac_y, jac_z, jac_zeta, unit_zeta = _probe_drift(spec, times, pairs)
    rep.set("metzler_y", _pair_witness("metzler", _values(jac_y, times), FD_TOL))
    rep.set("kernel_t_monotone", _pair_witness(
        "nonneg", _t_steps(jac_y, times, rising=False), FD_TOL
    ))
    rep.set("diagonal_z", _pair_witness(
        "diagonal", chain(_on_times(spec.b_coef, times), _on_times(spec.c_coef, times))
    ) or _pair_witness(
        "diagonal", chain(_values(jac_z, times), _values(jac_zeta, times)), FD_TOL
    ))
    if spec.uses_zeta:
        # the zeta response at (t, s) against the one at (t, t), t ascending, then s
        hit = _outside("zero", (
            ((times[i], times[j]), unit_zeta[i, j] - unit_zeta[i, i])
            for i, j in sorted(unit_zeta) if j > i
        ), FD_TOL)
        rep.set("zeta_coeff_s_free", None if hit is None else (
            f"t={hit[0][0]:g},s={hit[0][1]:g} vs s={hit[0][0]:g}"
        ))
    rep.set("free_term_monotone", _psi_witness(spec.psi, lattice))
    return rep
