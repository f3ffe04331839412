"""Closed-form and quadrature reference solutions for the counterexample gallery.

Each oracle evaluates the explicit solution of one gallery equation, either as
a deterministic function of time or pathwise along a lattice node using the
tree's own piecewise-constant Brownian path (so a solver-versus-oracle gap
measures scheme error only, not path error).  Function names match the
scenario registry keys (``ex2.6`` -> :func:`ex26`, ...).

Deterministic integrals use adaptive Simpson quadrature with a requested
tolerance of 1e-10 so the oracle error sits far below any solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .lattice import BinaryLattice, NodeId


# -- quadrature ----------------------------------------------------------------

_SIMPSON_MAX_DEPTH = 48


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Adaptive Simpson rule; returns (value, achieved error bound).

    NonConvergenceError when an interval still misses its tolerance after
    ``_SIMPSON_MAX_DEPTH`` halvings.
    """

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        err = (left + right - whole) / 15.0
        if abs(err) <= eps:
            return left + right + err, abs(err)
        if depth >= _SIMPSON_MAX_DEPTH:
            raise NonConvergenceError("adaptive quadrature did not reach tolerance")
        lv, le = recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth + 1)
        rv, re = recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth + 1)
        return lv + rv, le + re

    if a == b:
        return 0.0, 0.0
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


# -- deterministic gallery formulas ---------------------------------------------


def ex26(t: float, horizon: float | None = None) -> float:
    """Solution 2 e^{-t} - 1 of  X(t) = 1 - 2 e^t int_0^t e^{-s} X(s) ds.

    Strictly negative for t > ln 2 even though the free term is +1: the drift
    kernel -2 e^{t-s} is negative and decreasing in t.
    """
    if horizon is not None and not 0.0 <= t <= horizon:
        raise ValueError("t outside [0, horizon]")
    return 2.0 * math.exp(-t) - 1.0


def ex33(t: float, horizon: float) -> float:
    """Solution e^{t-T}(T+1) - 1 of  Y(t) = t - int_t^T Y(s) ds  (Z = 0).

    Negative exactly for t < T - ln(T+1): an increasing free term defeats the
    pointwise comparison even with a benign drift.
    """
    if not 0.0 <= t <= horizon:
        raise ValueError("t outside [0, horizon]")
    return math.exp(t - horizon) * (horizon + 1.0) - 1.0


def ex35(s: float, horizon: float) -> float:
    """Solution e^{s-T} + T - s - 1 of  Y(t) = int_t^T (s - t - Y(s)) ds; >= 0 on [0, T]."""
    if not 0.0 <= s <= horizon:
        raise ValueError("s outside [0, horizon]")
    return math.exp(s - horizon) + horizon - s - 1.0


def ex34(t: float, horizon: float) -> tuple[float, float]:
    """Solution 1 + (t-1) int_t^T e^{(tau^2 - t^2)/2 - (tau - t)} dtau of

        Y(t) = 1 + int_t^T (t - 1) Y(s) ds       (Z = 0).

    Returns (value, quadrature error bound).  At t = T the integral is empty
    and at t = 1 the prefactor vanishes, so both give exactly 1; for a long
    horizon the t = 0 value goes negative although the free term is +1.
    """
    if not 0.0 <= t <= horizon:
        raise ValueError("t outside [0, horizon]")
    if t == horizon:
        return 1.0, 0.0
    val, err = adaptive_simpson(
        lambda tau: math.exp(0.5 * (tau * tau - t * t) - (tau - t)), t, horizon, 1e-10
    )
    return 1.0 + (t - 1.0) * val, abs(t - 1.0) * err


# -- pathwise gallery formulas ----------------------------------------------------


def ex27(node: NodeId, horizon: float, lattice: BinaryLattice) -> tuple[float, float]:
    """Pathwise solution of  X(t) = 2T - t + int_0^t X dW  at a lattice node.

    Evaluates  e^{-t/2 + W(t)} (2T - int_0^t e^{s/2 - W(s)} ds)  with the
    node's piecewise-constant W and trapezoidal quadrature on each step.
    Returns (value, quadrature error bound).  At t = 0 this is 2T; paths with
    deeply negative W blow the integral past 2T and push the value negative.
    """
    w = lattice.brownian_path(node)
    t = lattice.times[node.level]
    integral, bound = _frozen_w_trapezoid(lattice, w, node.level, sign=-1.0)
    pref = math.exp(-0.5 * t + w[-1])
    return pref * (2.0 * horizon - integral), pref * bound


@dataclass(frozen=True)
class Ex210Value:
    """Pathwise evaluation of the indicator-drift-kernel equation.

    ``value`` is the piecewise closed form; ``bracket`` is
    e^{tau/2 + W(tau)} - int_0^tau e^{s/2 + W(s)} ds, whose strict negativity
    is exactly the event {X(t) < 0 for t > tau}; ``jensen_criterion`` is the
    convexity-weakened sufficient statistic
    int_0^tau s dW(s) - (ln tau - tau/4), negative only on a strictly smaller
    event.
    """

    value: float
    bracket: float
    jensen_criterion: float


def ex210(node: NodeId, tau: float, horizon: float, lattice: BinaryLattice) -> Ex210Value:
    """Pathwise solution of  X = 1 + ind(t <= tau) int_0^t X ds + int_0^t X dW.

    Before tau the solution is the exponential e^{t/2 + W(t)} and is positive;
    from tau on it is that exponential's value at tau minus the accumulated
    drift mass, propagated by a driftless exponential, and its sign equals the
    sign of ``bracket``.
    """
    if not 0.0 < tau < horizon:
        raise ValueError("need 0 < tau < horizon")
    w = lattice.brownian_path(node)
    t = lattice.times[node.level]
    k_tau = int(round(tau / lattice.h))
    if abs(lattice.times[min(k_tau, lattice.depth)] - tau) > 1e-12:
        raise ValueError("tau must be a grid time")
    k = node.level
    if t < tau:
        value = math.exp(0.5 * t + w[-1])
        bracket = math.nan
    else:
        w_tau = w[k_tau]
        integral, _ = _frozen_w_trapezoid(lattice, w[: k_tau + 1], k_tau, sign=+1.0)
        bracket = math.exp(0.5 * tau + w_tau) - integral
        value = math.exp(-0.5 * (t - tau) + (w[-1] - w_tau)) * bracket
    steps = min(k, k_tau)
    stoch = float(np.dot(lattice.times[:steps], np.diff(w[: steps + 1])))
    jensen = stoch - (math.log(tau) - 0.25 * tau) if k >= k_tau else math.nan
    return Ex210Value(value, bracket, jensen)


def _frozen_w_trapezoid(
    lattice: BinaryLattice, w: np.ndarray, upto: int, sign: float
) -> tuple[float, float]:
    """Trapezoid of e^{s/2 + sign*W(s)} with W frozen at the left value per step.

    Returns (integral, error bound); the bound uses |f''| = f/4 for the
    frozen-W in-step integrand.
    """
    h = lattice.h
    total = 0.0
    bound = 0.0
    for j in range(upto):
        wj = sign * w[j]
        lo = math.exp(0.5 * lattice.times[j] + wj)
        hi = math.exp(0.5 * lattice.times[j + 1] + wj)
        total += 0.5 * h * (lo + hi)
        bound += (h**3 / 12.0) * 0.25 * max(lo, hi)
    return total, bound
