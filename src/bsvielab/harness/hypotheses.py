"""Structural hypothesis checking for forward/backward Volterra data.

Every comparison scenario carries a fixed slate of conditions; each is
reported as satisfied, violated (with a witness), or not applicable -- never
silently skipped.  Matrix conditions are evaluated on all grid time pairs;
conditions on nonlinear drifts are probed by finite differences at a batch of
sampled state points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def set(self, name: str, ok: bool, witness: str | None = None) -> None:
        self.conditions[name] = ConditionReport(
            SATISFIED if ok else VIOLATED, None if ok else witness
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
            rep.set(n, True)
        return rep.finalize()


def _fmt_pair(t: float, s: float, entry, value: float) -> str:
    return f"t={t:g},s={s:g},entry={entry},value={value:g}"


def _worst_entry(m: np.ndarray, mask_diag: bool = False):
    mm = m.copy()
    if mask_diag and mm.shape[0] == mm.shape[1]:
        np.fill_diagonal(mm, np.inf)
    r, c = np.unravel_index(int(np.argmin(mm)), mm.shape)
    return (int(r), int(c)), float(m[r, c])


def _first_non_diagonal(coef: Callable | None, times) -> str | None:
    """Witness at the first grid time where ``coef(t)`` is not diagonal; None if none is."""
    if coef is None:
        return None
    for t in times:
        m = np.asarray(coef(t), dtype=float)
        if not cones.is_diagonal(m):
            e, v = _worst_entry(np.abs(m), mask_diag=True)
            return _fmt_pair(t, t, e, v)
    return None


def _fd_jacobian(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                 eps: float = 1e-6) -> np.ndarray:
    n = y.size
    jac = np.empty((n, n))
    base = np.asarray(f(y), dtype=float).reshape(n)
    for j in range(n):
        yp = y.copy()
        yp[j] += eps
        jac[:, j] = (np.asarray(f(yp), dtype=float).reshape(n) - base) / eps
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
    times = lattice.times
    N = lattice.depth
    if spec.a0 is not None:
        ok_nn, ok_mz, wit_nn, wit_mz = True, True, None, None
        ok_mono, wit_mono = True, None
        for j in range(N + 1):
            for i in range(j, N + 1):
                m = np.asarray(spec.a0(times[i], times[j]), dtype=float)
                if ok_nn and not cones.is_nonneg(m):
                    ok_nn = False
                    e, v = _worst_entry(m)
                    wit_nn = _fmt_pair(times[i], times[j], e, v)
                if ok_mz and not cones.is_metzler(m):
                    ok_mz = False
                    e, v = _worst_entry(m, mask_diag=True)
                    wit_mz = _fmt_pair(times[i], times[j], e, v)
                if ok_mono and i + 1 <= N:
                    d = np.asarray(spec.a0(times[i + 1], times[j]), dtype=float) - m
                    if not cones.is_nonneg(d):
                        ok_mono = False
                        e, v = _worst_entry(d)
                        wit_mono = _fmt_pair(times[i], times[j], e, v)
        rep.set("drift_kernel_nonneg", ok_nn, wit_nn)
        rep.set("metzler_y", ok_mz, wit_mz)
        rep.set("kernel_t_monotone", ok_mono, wit_mono)
    else:
        rep.set("drift_kernel_nonneg", True)
        rep.set("metzler_y", True)
        rep.set("kernel_t_monotone", True)
    # diffusion: diagonal, and independent of the outer time
    if spec.a1 is not None:
        wit_d = _first_non_diagonal(spec.a1, times)
        rep.set("diagonal_z", wit_d is None, wit_d)
        rep.set("diffusion_t_free", True)
    elif spec.a1_full is not None:
        ok_d, wit_d = True, None
        ok_f, wit_f = True, None
        for j in range(N + 1):
            for i in range(j, N + 1):
                m = np.asarray(spec.a1_full(times[i], times[j]), dtype=float)
                if ok_d and not cones.is_diagonal(m):
                    e, v = _worst_entry(np.abs(m), mask_diag=True)
                    ok_d, wit_d = False, _fmt_pair(times[i], times[j], e, v)
                if ok_f and i + 1 <= N:
                    d = np.asarray(spec.a1_full(times[i + 1], times[j]), dtype=float) - m
                    if np.max(np.abs(d)) > 0.0:
                        e, v = _worst_entry(-np.abs(d))
                        ok_f, wit_f = False, _fmt_pair(times[i], times[j], e, float(d[e]))
        rep.set("diagonal_z", ok_d, wit_d)
        rep.set("diffusion_t_free", ok_f, wit_f)
    else:
        rep.set("diagonal_z", True)
        rep.set("diffusion_t_free", True)
    _check_free_term_fsvie(rep, spec, lattice)
    return rep


def _check_free_term_fsvie(rep: HypothesisReport, spec: FsvieSpec, lattice: BinaryLattice) -> None:
    # nondecreasing in t and nonnegative, pathwise
    ok, wit = True, None
    if isinstance(spec.phi, AdaptedProcess):
        levels = [spec.phi.at(k) for k in range(lattice.depth + 1)]
        if any(np.min(lv) < 0.0 for lv in levels):
            ok, wit = False, "negative free-term value"
        else:
            for k in range(lattice.depth):
                if np.min(levels[k + 1] - lattice.lift(levels[k], k, k + 1)) < -0.0:
                    ok, wit = False, f"decrease across t={lattice.times[k]:g}"
                    break
    else:
        vals = [np.atleast_1d(np.asarray(spec.phi(t), dtype=float)) for t in lattice.times]
        for k, v in enumerate(vals):
            if np.min(v) < 0.0:
                ok, wit = False, f"t={lattice.times[k]:g},value={float(np.min(v)):g}"
                break
            if k > 0 and np.min(v - vals[k - 1]) < 0.0:
                ok, wit = False, (
                    f"t={lattice.times[k - 1]:g},decrease={float(np.min(v - vals[k - 1])):g}"
                )
                break
    rep.set("free_term_monotone", ok, wit)


def _psi_monotone(psi: TerminalField, lattice: BinaryLattice) -> tuple[bool, str | None]:
    # nonincreasing in t and nonnegative, pathwise over leaves
    for i in range(lattice.depth):
        d = psi.slice(i) - psi.slice(i + 1)
        if np.min(d) < 0.0:
            return False, f"t={lattice.times[i]:g},increase={-float(np.min(d)):g}"
    if np.min(psi.slice(lattice.depth)) < 0.0:
        return False, f"t=T,value={float(np.min(psi.slice(lattice.depth))):g}"
    return True, None


def _check_bsvie(spec: BsvieSpec, lattice: BinaryLattice) -> HypothesisReport:
    rep = HypothesisReport()
    rng = np.random.default_rng(SEED)
    times = lattice.times
    N = lattice.depth
    n = spec.dim
    ys = rng.uniform(-2.0, 2.0, (SAMPLE_COUNT, n))

    def y_jacobian(t, s, y):
        if spec.a_kernel is not None and spec.h_fn is None and spec.generator is None:
            return np.asarray(spec.a_kernel(t, s), dtype=float)
        fn = lambda yy: spec.drift(
            t, s, yy.reshape(1, n),
            np.zeros((1, n)) if spec.uses_z else None,
            np.zeros((1, n)) if spec.uses_zeta else None, None,
        )
        return _fd_jacobian(fn, y)

    ok_mz, wit_mz, ok_mono, wit_mono = True, None, True, None
    for j in range(N + 1):
        for i in range(0, j + 1):
            for y in ys:
                jac = y_jacobian(times[i], times[j], y)
                if ok_mz and not cones.is_metzler(jac, tol=FD_TOL):
                    e, v = _worst_entry(jac, mask_diag=True)
                    ok_mz, wit_mz = False, _fmt_pair(times[i], times[j], e, v)
                if ok_mono and i + 1 <= j:
                    d = jac - y_jacobian(times[i + 1], times[j], y)
                    if not cones.is_nonneg(d, tol=FD_TOL):
                        e, v = _worst_entry(d)
                        ok_mono, wit_mono = False, _fmt_pair(times[i], times[j], e, v)
                if spec.a_kernel is not None and spec.h_fn is None and spec.generator is None:
                    break  # kernel is y-independent; one probe suffices
    rep.set("metzler_y", ok_mz, wit_mz)
    rep.set("kernel_t_monotone", ok_mono, wit_mono)

    wit_d = _first_non_diagonal(spec.b_coef, times) or _first_non_diagonal(spec.c_coef, times)
    rep.set("diagonal_z", wit_d is None, wit_d)

    if spec.uses_zeta:
        if spec.c_coef is not None:
            rep.set("zeta_coeff_s_free", True)
        else:
            ok_s, wit_s = True, None
            zeta0 = np.zeros((1, n))
            for i in range(N):
                probes = []
                for j in range(i, N + 1):
                    col = np.zeros((1, n))
                    col[0, 0] = 1.0
                    base = spec.drift(times[i], times[j], ys[:1], None, zeta0, None)
                    bump = spec.drift(times[i], times[j], ys[:1], None, col, None)
                    probes.append(np.asarray(bump - base, dtype=float).ravel())
                for j0, p in enumerate(probes[1:], start=1):
                    if np.max(np.abs(p - probes[0])) > FD_TOL:
                        ok_s, wit_s = False, (
                            f"t={times[i]:g},s={times[i + j0]:g} vs s={times[i]:g}"
                        )
                        break
                if not ok_s:
                    break
            rep.set("zeta_coeff_s_free", ok_s, wit_s)
    ok_p, wit_p = _psi_monotone(spec.psi, lattice)
    rep.set("free_term_monotone", ok_p, wit_p)
    return rep
