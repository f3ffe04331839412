"""Forward solvers: linear/nonlinear SDEs and linear Volterra equations.

Lattice solvers use the explicit one-step update

    X(child) = X(node) + drift * h + diffusion * dW,      dW = +/- sqrt(h),

which is deterministic given the lattice, so solutions are exact functions of
the tree.  The one-step matrix of the linear update, ``I + A0 h +/- A1
sqrt(h)``, is entrywise nonnegative whenever A0 is Metzler, A1 is diagonal and
the step is small enough; products of such matrices keep nonnegative vectors
nonnegative exactly, even in floating point.

Volterra equations are solved by the explicit recursion along each node's
ancestor path.  Deterministic scalar reductions (zero diffusion, deterministic
data) run on a plain time grid instead of the tree, which allows much finer
steps than the tree depth cap.

A Gaussian-increment Euler Monte Carlo is included as a continuous-increment
cross-check of lattice results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DivergenceError, NonConvergenceError, ResourceBudgetError
from .lattice import (
    AdaptedProcess,
    BinaryLattice,
    LevelNodes,
    _first_non_finite,
    branch,
    check_count,
    row_sums,
    split_children,
    time_grid,
    volterra_sum,
)

DEFAULT_MC_BUDGET = 2**31  # work units: paths * steps (SDE) or paths * steps^2 (Volterra)
_MC_CHUNK = 1 << 14
_MC_BLOCK = 16  # steps per block of a Volterra chunk's block-triangular product
SUBSTITUTION_TOL = 1e-12  # successive substitution stops below this difference norm
GRID_MAX_SWEEPS = 80  # the fine grid's steps + 1 sweep bound is too far to wait for
_GRID_ROUND = 24  # grid Picard sweeps applied to one kernel slab while it is in cache


@dataclass
class FsdeSpec:
    """Forward SDE data:  dX = drift dt + diffusion dW,  X(0) = x0.

    Either supply ``drift``/``diffusion`` as callables ``f(t, x, nodes)`` acting
    on a stacked state array of shape ``(m, n)`` (``nodes`` is a
    :class:`~bsvielab.lattice.LevelNodes`-like handle on the lattice), or
    supply the linear form

        dX = (A0(t) X + b(t)) dt + A1(t) X dW

    through matrix callables ``a0``, ``a1`` and vector callable ``b``.

    On the lattice, ``x`` is a node-contiguous ``(m, n)`` level (Fortran
    order, see :mod:`bsvielab.lattice`); in Monte Carlo it is an ``(m, n)``
    view of the simulator's own state rows, which has the same order, and
    ``nodes`` is ``None``.  A callable must not write into ``x``.  It may
    return a scalar, an ``(n,)`` row or an ``(m, n)`` array in any memory
    order, which is only read; the order changes no value.  The linear form's
    products are taken as ``(A @ x.mT).mT``, the same bits as ``x @ A.T``.
    """

    dim: int
    x0: np.ndarray
    drift: Callable | None = None
    diffusion: Callable | None = None
    a0: Callable | None = None
    a1: Callable | None = None
    b: Callable | None = None

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},)")
        linear = self.a0 is not None or self.a1 is not None or self.b is not None
        general = self.drift is not None or self.diffusion is not None
        if linear and general:
            raise ValueError("give either the linear form or drift/diffusion callables")
        if not linear and not general:
            raise ValueError("no dynamics supplied")
        self.is_linear = linear

    def drift_at(self, t: float, x: np.ndarray, nodes=None) -> np.ndarray:
        if self.is_linear:
            out = (self.a0(t) @ x.mT).mT if self.a0 is not None else np.zeros_like(x)
            if self.b is not None:
                out = out + np.asarray(self.b(t), dtype=float)
            return out
        if self.drift is None:
            return np.zeros_like(x)
        return np.asarray(self.drift(t, x, nodes), dtype=float)

    def diffusion_at(self, t: float, x: np.ndarray, nodes=None) -> np.ndarray:
        if self.is_linear:
            return (self.a1(t) @ x.mT).mT if self.a1 is not None else np.zeros_like(x)
        if self.diffusion is None:
            return np.zeros_like(x)
        return np.asarray(self.diffusion(t, x, nodes), dtype=float)


@dataclass
class FsvieSpec:
    """Linear forward Volterra data:

        X(t) = phi(t) + int_0^t A0(t,s) X(s) ds + int_0^t A1 X(s) dW(s).

    ``phi`` is a deterministic callable ``t -> (n,)`` or an
    :class:`~bsvielab.lattice.AdaptedProcess`.  The diffusion kernel is either
    the separated form ``a1(s)`` (the only form for which positivity theory
    applies) or the full form ``a1_full(t, s)`` admitted for counterexamples.
    """

    dim: int
    phi: Callable | AdaptedProcess
    a0: Callable | None = None
    a1: Callable | None = None
    a1_full: Callable | None = None

    def __post_init__(self):
        if self.a1 is not None and self.a1_full is not None:
            raise ValueError("give the diffusion kernel in one form only")

    def a1_at(self, t: float, s: float) -> np.ndarray | None:
        if self.a1 is not None:
            return np.asarray(self.a1(s), dtype=float)
        if self.a1_full is not None:
            return np.asarray(self.a1_full(t, s), dtype=float)
        return None


# -- step bounds -------------------------------------------------------------


def worst_case_step_bound(a0_bound: float, a1_bound: float) -> float:
    """Largest h with ``1 - h*a0_bound - sqrt(h)*a1_bound >= 0``.

    This is the exact condition for the summed one-step matrix
    ``I + A0 h + A1 dW`` itself to stay entrywise nonnegative when the drift
    and diffusion bounds bite simultaneously; it is never larger than either
    per-factor bound, ``1/a0_bound`` (which keeps ``I + h A0`` nonnegative)
    or ``1/a1_bound**2`` (which keeps ``I +/- sqrt(h) A1`` nonnegative).
    Randomized positivity trials draw their step below this bound.
    """
    if a0_bound < 0 or a1_bound < 0:
        raise ValueError("bounds must be nonnegative")
    if a0_bound == 0 and a1_bound == 0:
        return math.inf
    if a0_bound == 0:
        return 1.0 / a1_bound**2
    u = (-a1_bound + math.sqrt(a1_bound**2 + 4.0 * a0_bound)) / (2.0 * a0_bound)
    return u * u


# -- SDE solvers -------------------------------------------------------------


def _check_state(x: np.ndarray, level: int) -> None:
    """Raise DivergenceError naming ``level`` and the first node with a non-finite entry."""
    node = _first_non_finite(x)
    if node is not None:
        raise DivergenceError(f"non-finite state at level {level}, node {node}")


def solve_fsde(spec: FsdeSpec, lattice: BinaryLattice) -> AdaptedProcess:
    """Explicit Euler on the lattice from time 0 to the horizon."""
    n = spec.dim
    h, sq = lattice.h, lattice.sqrt_h
    levels = [np.tile(spec.x0, (1, 1))]
    for k in range(lattice.depth):
        x = levels[k]
        t = lattice.times[k]
        nodes = LevelNodes(lattice, k)
        mu = spec.drift_at(t, x, nodes)
        sg = spec.diffusion_at(t, x, nodes)
        nxt = branch(x + mu * h, sg * sq)
        _check_state(nxt, k + 1)
        levels.append(nxt)
    return AdaptedProcess(lattice, n, levels)


class FundamentalMatrix:
    """Matrix-valued adapted solution Phi(t, t_s) with Phi(t_s, t_s) = I.

    ``at(level)`` returns an array of shape ``(2**level, n, n)``; each column
    is evolved by the same explicit one-step update as the vector solver.
    """

    def __init__(self, lattice: BinaryLattice, start: int, levels: list[np.ndarray]):
        self.lattice = lattice
        self.start = start
        self._levels = levels

    def at(self, level: int) -> np.ndarray:
        if level < self.start:
            raise ValueError("fundamental matrix starts at its anchor time")
        return self._levels[level - self.start]


def fundamental_matrix(
    a0: Callable | None, a1: Callable | None, start_index: int, lattice: BinaryLattice, dim: int
) -> FundamentalMatrix:
    """Evolve the identity through the homogeneous linear one-step updates."""
    if not 0 <= start_index < lattice.depth:
        raise ValueError("start index must lie before the horizon")
    h, sq = lattice.h, lattice.sqrt_h
    eye = np.eye(dim)
    levels = [np.tile(eye, (2**start_index, 1, 1))]
    for k in range(start_index, lattice.depth):
        t = lattice.times[k]
        m0 = np.asarray(a0(t), dtype=float) if a0 is not None else np.zeros((dim, dim))
        m1 = np.asarray(a1(t), dtype=float) if a1 is not None else np.zeros((dim, dim))
        up = eye + h * m0 + sq * m1
        dn = eye + h * m0 - sq * m1
        cur = levels[-1]
        nxt = np.empty((2 * cur.shape[0], dim, dim))
        for step, child in zip((up, dn), split_children(nxt)):
            np.matmul(step, cur, out=child)
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError(f"non-finite fundamental matrix at level {k + 1}")
        levels.append(nxt)
    return FundamentalMatrix(lattice, start_index, levels)


# -- linear Volterra solvers -------------------------------------------------


def solve_linear_fsvie(spec: FsvieSpec, lattice: BinaryLattice) -> AdaptedProcess:
    """Exact lattice recursion for the linear Volterra equation.

    Level k reads the free term and the kernels' outer time at t_k.
    """
    n = spec.dim
    times = lattice.times
    has_a1 = spec.a1 is not None or spec.a1_full is not None
    levels: list[np.ndarray] = []
    for k in range(lattice.depth + 1):
        t = times[k]

        def drift(j):
            return np.asarray(spec.a0(t, times[j]), dtype=float).reshape(n, n)

        def diffusion(j):
            return spec.a1_at(t, times[j]).reshape(n, n)

        acc = volterra_sum(
            lattice, _phi_at(spec, lattice, k), levels, k,
            drift if spec.a0 is not None else None, diffusion if has_a1 else None,
        )
        _check_state(acc, k)
        levels.append(acc)
    return AdaptedProcess(lattice, n, levels)


def _phi_at(spec: FsvieSpec, lattice: BinaryLattice, level: int) -> np.ndarray:
    """The free term at grid time ``t_level``, as a ``volterra_sum`` start.

    A callable phi gives one ``(1, n)`` row for every node, so the sum is
    built out from the root; an adapted phi gives its level-``level`` slice.
    """
    if isinstance(spec.phi, AdaptedProcess):
        return spec.phi.at(level)
    v = np.atleast_1d(np.asarray(spec.phi(lattice.times[level]), dtype=float))
    return v.reshape(1, spec.dim)


def picard_fsvie(spec: FsvieSpec, lattice: BinaryLattice) -> tuple[AdaptedProcess, list[float]]:
    """Successive substitution X^k = phi + K X^{k-1} for the pure-drift equation.

    Requires a zero diffusion kernel.  When the drift kernel is entrywise
    nonnegative and phi >= 0, every iterate (and therefore the limit) is
    built from sums and products of nonnegative numbers, so X >= phi >= 0
    holds exactly.  Returns the limit together with the successive difference
    norms in the discrete L^2 grid norm; the sweeps stop once a norm is below
    SUBSTITUTION_TOL.  A sweep with a non-finite difference norm raises
    DivergenceError naming the first non-finite node.

    The lattice operator is strictly lower-triangular in time: level k reads
    levels j < k only, so level k is final after sweep k.  Sweep s therefore
    recomputes levels s..N alone; the levels below s would be recomputed
    bitwise unchanged and add exactly 0.0 to the norm.  Sweep N + 1
    recomputes nothing and returns the norm 0.0, so the substitution ends by
    sweep N + 1 on a depth-N lattice.
    """
    if spec.a1 is not None or spec.a1_full is not None:
        raise ValueError("successive substitution requires a zero diffusion kernel")
    n = spec.dim
    times = lattice.times
    h = lattice.h
    grid = range(lattice.depth + 1)
    blocks = None
    if spec.a0 is not None:
        blocks = [
            [np.asarray(spec.a0(times[k], times[j]), dtype=float).reshape(n, n) for j in range(k)]
            for k in grid
        ]
    phi_levels = [_phi_at(spec, lattice, k) for k in grid]
    _check_state(phi_levels[0], 0)  # level 0 is final from the start and never recomputed
    # the initial iterate is phi at every node, lifted from level 0 (one row) or copied
    # (an adapted phi's own level); later sweeps start from phi_levels
    cur = [lattice.lift(p, p.shape[0].bit_length() - 1, k) for k, p in enumerate(phi_levels)]
    norms: list[float] = []
    for s in range(1, lattice.depth + 2):
        nxt = []
        for k in grid[s:]:
            drift = None if blocks is None else blocks[k].__getitem__
            nxt.append(volterra_sum(lattice, phi_levels[k], cur, k, drift, None))
        diff = math.sqrt(
            sum(h * float(np.mean(row_sums((a - b) ** 2))) for a, b in zip(nxt, cur[s:]))
        )
        norms.append(diff)
        cur[s:] = nxt
        if not math.isfinite(diff):
            for k in grid:
                _check_state(cur[k], k)
            raise DivergenceError(f"difference norm overflowed at sweep {s}")
        if diff < SUBSTITUTION_TOL:
            break
    return AdaptedProcess(lattice, n, cur), norms


# -- deterministic scalar grid solvers ---------------------------------------


def solve_linear_fsvie_deterministic(
    phi: Callable[[float], float],
    a0: Callable[[float, np.ndarray], np.ndarray],
    horizon: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar deterministic Volterra recursion on a fine time grid.

    ``a0(t, s_array)`` must broadcast over the past-time array; a value of
    another shape (a scalar or ``(1,)`` for a constant kernel) is broadcast
    to its shape.  This is the zero-diffusion reduction of the lattice
    recursion with one node per level, so the depth cap does not apply.
    ``horizon`` must be finite and positive and ``steps`` an int >= 1
    (ValueError otherwise); a non-finite state raises DivergenceError naming
    the first such step, step 0 included.
    """
    times, h = time_grid(horizon, steps)
    x = np.empty(len(times))
    x[0] = phi(times[0])
    if not math.isfinite(x[0]):
        raise DivergenceError("non-finite state at step 0")
    for i in range(1, len(times)):
        row = np.asarray(a0(times[i], times[:i]), dtype=float)
        if row.shape != (i,):  # a constant kernel, as picard_fsvie_deterministic takes it
            row = np.broadcast_to(row, (1, i))[0].copy()
        x[i] = phi(times[i]) + h * float(row @ x[:i])
        if not math.isfinite(x[i]):
            raise DivergenceError(f"non-finite state at step {i}")
    return times, x


def picard_fsvie_deterministic(
    phi: Callable[[float], float],
    a0: Callable[[float, np.ndarray], np.ndarray],
    horizon: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Successive substitution on the deterministic grid; returns (t, x, norms).

    A sweep is ``x <- phi + h * (L @ x)``, with ``L`` the strictly lower
    triangular Volterra matrix of ``a0``, and makes one matrix-vector product
    per slab of ``_MC_BLOCK`` rows of ``L`` (the slabs of ``_kernel_slabs``;
    row 0 has no past).  Only the order of summation inside each row's dot
    differs from a per-row dot, so x and the norms can differ from a
    row-by-row sweep by a few ULPs.

    The sweeps run in rounds of up to ``_GRID_ROUND``.  A round walks the
    rows once: it builds one slab, applies every sweep of the round to it
    while it is in cache (sweep k's rows of the slab need only sweep k-1's
    rows above them) and drops it, so memory is O(``_GRID_ROUND`` * steps),
    not the O(steps**2) of a stored ``L``.  ``a0(t_i, t_0..t_{i-1})`` is
    called once per row i = 1..steps and round, i ascending, so ``a0`` must
    be a pure function of (t, s).  The difference norms are then taken in
    sweep order.

    Stops at the first difference norm below SUBSTITUTION_TOL and raises
    NonConvergenceError after GRID_MAX_SWEEPS sweeps.  ``horizon`` must be
    finite and positive and ``steps`` an int >= 1 (ValueError otherwise).

    A sweep with a non-finite difference norm raises DivergenceError naming
    the first non-finite grid step.  A slab's zero padding times a
    non-finite later entry is NaN, so the failing sweep is replayed row by
    row (see ``_first_non_finite_step``) to find that step.
    """
    times, h = time_grid(horizon, steps)
    steps = len(times) - 1
    phi_vals = np.array([phi(t) for t in times], dtype=float).reshape(steps + 1)

    def row(i):
        return a0(times[i], times[:i])

    xs = np.empty((_GRID_ROUND + 1, steps + 1))  # xs[k]: sweep k of the round
    xs[0] = phi_vals
    norms: list[float] = []
    while len(norms) < GRID_MAX_SWEEPS:
        r = min(_GRID_ROUND, GRID_MAX_SWEEPS - len(norms))
        xs[1:r + 1, 0] = phi_vals[0] + h * 0.0  # row 0 has no past
        i0 = 1
        for slab in _kernel_slabs(row, steps, 1):
            i1 = i0 + len(slab)
            for k in range(1, r + 1):
                xs[k, i0:i1] = phi_vals[i0:i1] + h * (slab @ xs[k - 1, : i1 - 1])
            i0 = i1
        for k in range(1, r + 1):
            diff = math.sqrt(h * float(np.sum((xs[k] - xs[k - 1]) ** 2)))
            norms.append(diff)
            if not math.isfinite(diff):
                bad = _first_non_finite_step(phi_vals, h, row, xs[k - 1])
                raise DivergenceError(
                    f"non-finite state at step {bad}" if bad is not None
                    else f"difference norm overflowed at sweep {len(norms)}"
                )
            if diff < SUBSTITUTION_TOL:
                return times, xs[k].copy(), norms
        xs[0] = xs[r]
    raise NonConvergenceError(f"not below {SUBSTITUTION_TOL} after {GRID_MAX_SWEEPS} sweeps")


def _first_non_finite_step(
    phi_vals: np.ndarray, h: float, row: Callable[[int], np.ndarray], cur: np.ndarray
) -> int | None:
    """The first step i whose sweep value ``phi_i + h * (row_i . cur)`` is not
    finite, or None.

    Row by row, each a dot over the step's own past ``row(i) . cur[:i]``
    (``row(i)`` read as ``_kernel_slabs`` reads it), so no padded zero meets
    a later entry of ``cur``; rows past the first bad step are not built.
    """
    if not math.isfinite(phi_vals[0]):
        return 0
    past = np.empty((1, len(cur) - 1))
    for i in range(1, len(cur)):
        past[:, :i] = row(i)
        if not math.isfinite(phi_vals[i] + h * float(past[0, :i] @ cur[:i])):
            return i
    return None


# -- Monte Carlo -------------------------------------------------------------


@dataclass
class McResult:
    """Per-time mean path and strict sign-violation frequency with its SE."""

    times: np.ndarray
    mean: np.ndarray  # (steps + 1, n)
    violation_freq: np.ndarray  # (steps + 1,)
    violation_se: np.ndarray  # binomial standard error per time
    paths: int


def euler_monte_carlo(
    spec: FsdeSpec | FsvieSpec,
    horizon: float,
    steps: int,
    paths: int,
    seed: int,
) -> McResult:
    """Gaussian-increment Euler simulation, reproducible for a fixed seed.

    Paths are processed in fixed-size chunks; chunk ``c`` draws from a
    counter-based generator keyed by ``(seed, c)``, so results do not depend
    on how chunks are scheduled.  Each chunk streams: it reduces every time
    slice to the per-time path sums and the count of paths with a negative or
    non-finite component (a NaN never passes as nonnegative), and the chunks'
    statistics are added up.  An SDE chunk holds the current state as
    component rows ``(n, m)`` in owned buffers: two state buffers that swap
    every step, one for the diffusion term and one for the draws; each step
    is computed in place.  A Volterra chunk draws one step's increments into
    one owned row, keeps a time-major history of X(t_j) (and, for a
    full-form diffusion kernel, of X(t_j) dW_j), adds the past before each
    block of ``_MC_BLOCK`` steps in one matrix product and the in-block terms
    step by step, and carries a separated diffusion kernel as a running Ito
    sum with no history; the kernel slabs are built once per call.  Volterra
    specs cost ``paths * steps**2`` work units, SDE specs ``paths * steps``;
    exceeding ``DEFAULT_MC_BUDGET`` raises.

    ``horizon`` must be finite and positive, ``steps`` and ``paths`` positive
    ints.
    """
    times, _ = time_grid(horizon, steps)
    steps, paths = len(times) - 1, check_count("paths", paths)  # ints from here on
    is_volterra = isinstance(spec, FsvieSpec)
    work = paths * steps * (steps if is_volterra else 1)
    if work > DEFAULT_MC_BUDGET:
        raise ResourceBudgetError(f"requested work {work} exceeds budget {DEFAULT_MC_BUDGET}")
    n = spec.dim
    if is_volterra:
        if isinstance(spec.phi, AdaptedProcess):
            raise ValueError("Monte Carlo needs a deterministic free term")
        kernels = _volterra_kernels(spec, times)
    stats = np.zeros((steps + 1, n + 1))
    done = 0
    chunk_idx = 0
    while done < paths:
        m = min(_MC_CHUNK, paths - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_idx], dtype=np.uint64))
        )
        if is_volterra:
            stats += _mc_volterra_chunk(spec, kernels, times, m, rng)
        else:
            stats += _mc_sde_chunk(spec, times, m, rng)
        done += m
        chunk_idx += 1
    freq = stats[:, n] / paths
    se = np.sqrt(np.clip(freq * (1.0 - freq), 0.0, None) / paths)
    return McResult(times, stats[:, :n] / paths, freq, se, paths)


def _path_stats(x: np.ndarray, out: np.ndarray) -> None:
    """Write the path sums of ``x`` (n, paths), one component per row, and
    its count of paths with a negative or non-finite component into ``out``
    (n + 1,).

    A reduction over the short component axis would be several times slower
    than one per row.
    """
    ok = np.ones(x.shape[1], dtype=bool)
    for c, row in enumerate(x):
        out[c] = row.sum()
        ok &= row >= 0.0  # false for NaN and -inf
        if not math.isfinite(out[c]):  # only then can the row hold +inf
            ok &= row < math.inf
    out[-1] = x.shape[1] - np.count_nonzero(ok)


def _mc_sde_chunk(spec: FsdeSpec, times: np.ndarray, m: int, rng) -> np.ndarray:
    """Per-time statistics ``(steps + 1, n + 1)`` of ``m`` Euler paths (see ``_path_stats``).

    The state is stored as component rows, ``(n, m)``, in two owned buffers
    that swap every step, beside one owned buffer for the diffusion term and
    one for the draws.  The coefficients are evaluated on the ``(m, n)``
    view ``x.T`` with ``nodes=None``; a callable must not write into that
    view, and its result (a scalar, an ``(n,)`` row or ``(m, n)``) is only
    read.  Each step computes ``(x + h*drift) + diffusion*dW`` in place.
    """
    steps = len(times) - 1
    n = spec.dim
    h = times[-1] / steps
    sq = math.sqrt(h)
    x = np.tile(spec.x0[:, None], m)
    nxt, buf = np.empty((2, n, m))
    dw = np.empty(m)
    stats = np.empty((steps + 1, n + 1))
    _path_stats(x, stats[0])
    for k in range(steps):
        rng.standard_normal(m, out=dw)
        dw *= sq
        # each coefficient is dropped once read, so at most one is alive
        mu = spec.drift_at(times[k], x.T)
        np.multiply(np.broadcast_to(mu, (m, n)).T, h, out=nxt)
        del mu
        nxt += x
        sg = spec.diffusion_at(times[k], x.T)
        np.multiply(np.broadcast_to(sg, (m, n)).T, dw, out=buf)
        del sg
        nxt += buf
        x, nxt = nxt, x
        _path_stats(x, stats[k + 1])
    return stats


class _VolterraKernels(NamedTuple):
    """The Monte Carlo kernel store of one ``euler_monte_carlo`` call.

    ``drift`` (``h * A0(t_i, t_j)``) and ``diffusion`` (the full form
    ``A1(t_i, t_j)``) are block slabs of the strictly lower block-triangular
    Volterra matrix (see ``_kernel_slabs``).  A separated diffusion kernel is
    kept as its values ``A1(t_j)``, j = 0..steps-1, an ``(steps, n, n)``
    array.  ``None`` marks an absent kernel.
    """

    drift: list[np.ndarray] | None
    diffusion: list[np.ndarray] | None
    separated: np.ndarray | None


def _kernel_slabs(row: Callable[[int], np.ndarray], steps: int, n: int) -> Iterator[np.ndarray]:
    """The rows i = 1..steps of a strictly lower block-triangular Volterra
    matrix, cut into slabs of ``_MC_BLOCK`` steps and yielded one at a time.

    ``row(i)`` is the ``(n, i*n)`` matrix row of step i, its blocks j < i
    side by side (anything that broadcasts to that shape); it is called once
    per step, i ascending, as each slab is built.  The slab of steps
    i0..i1-1 is ``((i1-i0)*n, (i1-1)*n)`` and zero where j >= i.  The
    Volterra Monte Carlo chunk keeps every slab; the grid Picard sweep
    streams them, one per round of sweeps.
    """
    for i0 in range(1, steps + 1, _MC_BLOCK):
        i1 = min(i0 + _MC_BLOCK, steps + 1)
        slab = np.zeros(((i1 - i0) * n, (i1 - 1) * n))
        for i in range(i0, i1):
            slab[(i - i0) * n:(i - i0 + 1) * n, : i * n] = row(i)
        yield slab


def _volterra_kernels(spec: FsvieSpec, times: np.ndarray) -> _VolterraKernels:
    """Build the kernel store once per call: a block kernel is read once per
    pair (i, j), i ascending, then j, and a separated ``a1`` once per inner
    time."""
    steps = len(times) - 1
    h = times[-1] / steps
    n = spec.dim

    def rows(block):
        return lambda i: np.concatenate([block(times[i], times[j]) for j in range(i)], axis=1)

    drift = diffusion = separated = None
    if spec.a0 is not None:
        drift = list(_kernel_slabs(
            rows(lambda t, s: np.asarray(spec.a0(t, s), dtype=float).reshape(n, n)), steps, n
        ))
        for slab in drift:
            slab *= h
    if spec.a1 is not None:  # A1(s) does not depend on t_i
        separated = np.array([
            np.asarray(spec.a1(times[j]), dtype=float).reshape(n, n) for j in range(steps)
        ])
    elif spec.a1_full is not None:
        diffusion = list(
            _kernel_slabs(rows(lambda t, s: spec.a1_at(t, s).reshape(n, n)), steps, n)
        )
    return _VolterraKernels(drift, diffusion, separated)


def _mc_volterra_chunk(
    spec: FsvieSpec, kernels: _VolterraKernels, times: np.ndarray, m: int, rng
) -> np.ndarray:
    """Per-time statistics ``(steps + 1, n + 1)`` of ``m`` Euler paths (see ``_path_stats``).

    The history is time-major, ``(steps*n, m)``: the n component rows of
    X(t_j) sit at rows ``j*n..(j+1)*n``, so step j writes one contiguous
    slice.  At the first step i0 of each block, one matrix product of the
    block's slab with the history rows of t_0..t_{i0-1} adds in all the
    past known before the block; each step i of the block then adds its
    in-block terms j = i0..i-1 alone.  A full-form diffusion kernel runs the
    same products against a history of X(t_j) dW_j; a separated one needs no
    history, only the running Ito sum of A1(t_j) X(t_j) dW_j.

    The chunk draws one step's increments dW_j into one owned row of ``m``
    just before step j reads them, in the order of one ``(steps, m)`` draw,
    so the history is its only ``O(steps * m)`` array.  A block's products
    of the past are dropped before the next block's are made.
    """
    steps = len(times) - 1
    n = spec.dim
    sq = math.sqrt(times[-1] / steps)
    dw = np.empty(m)
    xs = np.empty((steps * n, m))
    xdw = np.empty((steps * n, m)) if kernels.diffusion is not None else None
    ito = np.zeros((n, m)) if kernels.separated is not None else None
    terms = [(slabs, hist) for slabs, hist in ((kernels.drift, xs), (kernels.diffusion, xdw))
             if slabs is not None]
    stats = np.empty((steps + 1, n + 1))
    x = xs[:n]
    x[...] = np.atleast_1d(spec.phi(0.0)).astype(float)[:, None]
    _path_stats(x, stats[0])
    before: list[np.ndarray] = []
    for i in range(1, steps + 1):
        j = i - 1  # the newest history row
        rng.standard_normal(m, out=dw)  # dW_j
        dw *= sq
        if xdw is not None:
            np.multiply(x, dw, out=xdw[j * n:i * n])
        if ito is not None:
            ito += kernels.separated[j] @ (x * dw)
        b, r = divmod(j, _MC_BLOCK)
        i0 = i - r
        if r == 0:  # first step of a block: the past before the block in one product
            before.clear()  # the last block's products go before the next ones are made
            before.extend(slabs[b][:, : i0 * n] @ hist[: i0 * n] for slabs, hist in terms)
        x = xs[i * n:(i + 1) * n] if i < steps else np.empty((n, m))
        x[...] = np.atleast_1d(spec.phi(times[i])).astype(float)[:, None]
        rows = slice(r * n, (r + 1) * n)
        for (slabs, hist), past in zip(terms, before):
            x += past[rows]
            if r:
                x += slabs[b][rows, i0 * n:i * n] @ hist[i0 * n:i * n]
        if ito is not None:
            x += ito
        _path_stats(x, stats[i])
    return stats
