"""Exact discrete probability space: a binary scenario tree for one Brownian motion.

A depth-``N`` :class:`BinaryLattice` discretizes one scalar Brownian motion on
``[0, T]`` with increments of exactly ``+/- sqrt(h)``, ``h = T/N``, each with
probability 1/2.  Conditional expectations, stochastic integrals and the
martingale representation are then exact finite sums, so positivity and
comparison statements can be asserted as exact inequalities instead of
statistical ones.

Storage convention: level ``k`` holds ``2**k`` nodes in a dense array indexed
by the path bitmask.  The children of node ``i`` at level ``k`` are ``2*i``
(up move, ``+sqrt(h)``) and ``2*i + 1`` (down move, ``-sqrt(h)``) at level
``k + 1``; the ancestor of node ``i`` at level ``j <= k`` is ``i >> (k - j)``.
Only :func:`split_children`, :func:`branch`, ``lift``, ``step_signs``,
``brownian_path``, ``TwoParamProcess.lifted`` and :class:`NodeId` read this
layout; all other code goes through them.  Adaptedness is structural: a value
stored at level ``k`` can only depend on the path to that node.

Storage order: the node axis is the contiguous one.  A ``(2**k, n)`` level
is Fortran-ordered, and a stack ``(rows, 2**k, n)`` of levels has the memory
of a C-ordered ``(rows, n, 2**k)`` array (see :func:`node_empty`), so the
up and down children that :func:`split_children` takes are stride-2 runs of
one component, not short rows of n entries.  Every level the library makes
has this order: the allocating helpers (``branch``, ``lift``, the
``TwoParamProcess`` level arrays and ``lifted``, :func:`children_mean` and
:func:`children_slope`) make node-contiguous arrays, elementwise ufuncs keep
the order of their operands, and a product with an ``(n, n)`` matrix is
taken as ``(A @ y.mT).mT``, which equals ``y @ A.mT`` bit for bit.  The
one exception is a backward step summed with a generator value of another
order, which takes that order.  Children of any order are read along the
nodes, and the order changes no value: a caller's C-ordered input gives
the same bits.

All node probabilities are dyadic rationals and are reported as exact
:class:`fractions.Fraction` objects alongside floating approximations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError

DEFAULT_MAX_DEPTH = 16


def _first_non_finite(y: np.ndarray) -> int | tuple[int, int] | None:
    """The first row of ``y`` with a NaN or +/-inf entry, or None when all are finite.

    For a stack ``(trials, m, n)`` it is ``(trial, row)``: the first trial
    with such an entry and that trial's first such row.
    """
    if np.isfinite(y).all():  # the per-row reduction below is ~30x slower on two columns
        return None
    first = int(np.argmax(~np.isfinite(y).all(axis=-1)))  # C order: trial by trial
    return first if y.ndim == 2 else divmod(first, y.shape[-2])


def _check_finite(y: np.ndarray, what: str) -> None:
    """Raise DivergenceError naming the level (from the 2**level nodes, ``shape[-2]``) and node.

    For a stack ``(trials, 2**level, n)`` the message is the one the first
    trial with a non-finite entry raises alone, plus ``trial=k``.
    """
    where = _first_non_finite(y)
    if where is not None:
        level = y.shape[-2].bit_length() - 1
        trial, node = (None, where) if y.ndim == 2 else where
        msg = f"{what}: non-finite value at level {level}, node {node}"
        raise DivergenceError(msg if trial is None else f"{msg}, trial={trial}")


def row_sums(q: np.ndarray) -> np.ndarray:
    """``q.sum(axis=-1)`` of a float ``(..., m, n)`` array, bit for bit, by column adds below 8 columns.

    numpy sums a row of fewer than 8 entries one entry at a time from +0.0,
    and a longer row pairwise.  The first case is the column add
    ``q[..., 0] + 0.0 + q[..., 1] + ...``, which skips numpy's slow short-axis
    reduction; the ``+ 0.0`` makes an all ``-0.0`` row sum to +0.0, as numpy's
    does.  The pairwise case has other bits, so it stays with numpy.  A
    stack of ``(m, n)`` slices gets the sums of each slice.
    """
    if q.shape[-1] >= 8:
        return q.sum(axis=-1)
    acc = q[..., 0] + 0.0
    for c in range(1, q.shape[-1]):
        acc += q[..., c]
    return acc


def row_any(b: np.ndarray) -> np.ndarray:
    """``np.any(b, axis=1)`` of a boolean ``(m, n)`` array as a column OR (exact in any order)."""
    acc = b[:, 0].copy()
    for c in range(1, b.shape[1]):
        acc |= b[:, c]
    return acc


def check_count(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer >= 1.

    A bool is refused; numpy integers are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return int(value)


def time_grid(horizon: float, steps: int) -> tuple[np.ndarray, float]:
    """The uniform grid ``t_0..t_steps`` on ``[0, horizon]`` and its step ``horizon / steps``.

    ``horizon`` must be finite and positive and ``steps`` an int >= 1 (see
    :func:`check_count`); otherwise ValueError naming the argument.
    """
    steps = check_count("steps", steps)
    _check_horizon(horizon)
    return np.linspace(0.0, horizon, steps + 1), horizon / steps


def _check_horizon(horizon) -> None:
    """ValueError unless ``horizon`` is a finite positive real number."""
    if not (isinstance(horizon, numbers.Real) and math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")


class IncompleteProcessError(ValueError):
    """Raised when an operation needs node values that were not supplied."""


@dataclass(frozen=True)
class NodeId:
    """A tree node: ``level`` in [0, N] and path ``index`` in [0, 2**level)."""

    level: int
    index: int

    @property
    def path(self) -> str:
        """The node's path from the root as a string of 'u'/'d' moves."""
        return "".join(
            "u" if (self.index >> (self.level - 1 - j)) & 1 == 0 else "d"
            for j in range(self.level)
        )

    def __str__(self) -> str:  # compact, used in reports
        return f"L{self.level}:{self.path or 'root'}"


class BinaryLattice:
    """Binary scenario tree on [0, T] with depth N <= DEFAULT_MAX_DEPTH and step h = T/N."""

    def __init__(self, horizon: float, depth: int):
        _check_horizon(horizon)
        depth = check_count("depth", depth)
        if depth > DEFAULT_MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {DEFAULT_MAX_DEPTH}], got {depth}")
        self.horizon = float(horizon)
        self.depth = depth
        self.h = self.horizon / self.depth
        self.sqrt_h = float(np.sqrt(self.h))
        self.times = np.linspace(0.0, self.horizon, self.depth + 1)
        self._w_levels: list[np.ndarray] = [np.zeros(1)]
        for k in range(self.depth):
            self._w_levels.append(branch(self._w_levels[k], self.sqrt_h))

    # -- basic structure ---------------------------------------------------

    def step_signs(self, level: int, step: int) -> np.ndarray:
        """Sign (+1 up / -1 down) of increment ``step`` along the paths of ``level`` nodes."""
        if not 0 <= step < level <= self.depth:
            raise ValueError("need 0 <= step < level <= depth")
        idx = np.arange(2**level)
        bits = (idx >> (level - 1 - step)) & 1
        return 1.0 - 2.0 * bits

    def brownian_level(self, level: int) -> np.ndarray:
        """W(t_level) at every node of ``level`` (shape ``(2**level,)``)."""
        return self._w_levels[level]

    def brownian_path(self, node: NodeId) -> np.ndarray:
        """W(t_0..t_level) along the ancestors of ``node`` (shape ``(level + 1,)``)."""
        return np.array(
            [self._w_levels[j][node.index >> (node.level - j)] for j in range(node.level + 1)]
        )

    def lift(self, values: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
        """Broadcast level-``from_level`` values to their descendants at ``to_level``."""
        if to_level < from_level:
            raise ValueError("to_level must be >= from_level")
        return _repeat_nodes(values, 2 ** (to_level - from_level))


@dataclass(frozen=True)
class LevelNodes:
    """Handle on one lattice level, passed to coefficient/generator callables.

    Lets adapted coefficients read the Brownian values of the nodes they are
    evaluated on, without giving them a way to peek forward.
    """

    lattice: BinaryLattice
    level: int

    @property
    def w(self) -> np.ndarray:
        return self.lattice.brownian_level(self.level)


# -- one level to the next -------------------------------------------------


def split_children(values: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The up and down children of a level-(k+1) slice, as writable views.

    ``axis`` is the node axis: 0 for one slice, 1 for a stack of slices.
    """
    if axis == 0:
        return values[0::2], values[1::2]
    lead = (slice(None),) * axis
    return values[lead + (slice(0, None, 2),)], values[lead + (slice(1, None, 2),)]


def node_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array of ``shape`` ``(..., 2**k, n)`` with a contiguous node axis.

    A ``(2**k, n)`` slice is Fortran-ordered; a stack ``(rows, 2**k, n)``
    has the memory of a C-ordered ``(rows, n, 2**k)`` array.  A 1-D shape
    is one node axis.
    """
    if len(shape) == 2:
        return np.empty(shape, order="F")
    if len(shape) < 2:
        return np.empty(shape)
    return np.empty(shape[:-2] + (shape[-1], shape[-2])).swapaxes(-1, -2)


def children_mean(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """``0.5 * (up + down)``, the one-step conditional mean, node-contiguous.

    Children of a level or a stack are added along the nodes of their
    node-major views, whatever their order (a caller's C-ordered leaves
    included), so no converted copy is made; the same bits as the
    expression.  1-D children are the expression.
    """
    if up.ndim < 2:
        return 0.5 * (up + down)
    out = np.add(up.mT, down.mT, order="C")
    out *= 0.5
    return out.mT


def children_slope(up: np.ndarray, down: np.ndarray, sqrt_h: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``(up - down) / (2 sqrt(h))``, the representation integrand, node-contiguous.

    Written into ``out`` when given (node-contiguous).  Children of a level
    or a stack are subtracted along the nodes, as in :func:`children_mean`;
    the same bits as the expression.  1-D children are the expression.
    """
    if up.ndim < 2:
        return (up - down) / (2.0 * sqrt_h)
    if out is None:
        out = np.subtract(up.mT, down.mT, order="C").mT
    else:
        np.subtract(up.mT, down.mT, out=out.mT)
    out /= 2.0 * sqrt_h
    return out


def _repeat_nodes(values: np.ndarray, copies: int) -> np.ndarray:
    """``np.repeat(values, copies, axis=0)`` of an ``(m, n)`` slice, node-contiguous.

    One or two copies of a 2-D slice are written as one strided copy each,
    up to 2x faster than numpy's repeat of single entries along the nodes;
    more copies, and a 1-D node array, go through that repeat.
    """
    if copies > 2 or values.ndim != 2:
        return values.T.repeat(copies, axis=-1).T
    out = np.empty((values.shape[1], copies * values.shape[0]))
    for q in range(copies):
        out[:, q::copies] = values.T
    return out.T


def branch(acc: np.ndarray, v: np.ndarray | float) -> np.ndarray:
    """The level-(k+1) slice with ``acc + v`` at each up child and ``acc - v`` at each down.

    ``v`` is a scalar or has the shape of the level-k slice ``acc``; the
    halves are written in place into a node-contiguous array, so no
    full-size temporary is kept.
    """
    out = np.empty((2 * acc.shape[0],) + acc.shape[1:], order="F")  # node_empty of a slice
    up, down = split_children(out)
    np.add(acc, v, out=up)
    np.subtract(acc, v, out=down)
    return out


# -- conditional expectation ------------------------------------------------


def conditional_expectation(child_values: np.ndarray) -> np.ndarray:
    """One-step conditional expectation: exact average of the two children.

    ``child_values`` holds a level-(k+1) slice; the result is the level-k
    slice ``(X_up + X_down) / 2``.
    """
    v = np.asarray(child_values, dtype=float)
    if v.shape[0] % 2 != 0:
        raise IncompleteProcessError("child slice must pair up/down values")
    return children_mean(*split_children(v))


def condition_to(values: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Iterated conditional expectation from ``from_level`` down to ``to_level``."""
    if to_level > from_level:
        raise ValueError("to_level must be <= from_level")
    v = np.asarray(values, dtype=float)
    for _ in range(from_level - to_level):
        v = conditional_expectation(v)
    return v


# -- adapted processes ------------------------------------------------------


class AdaptedProcess:
    """An R^n-valued process with one value per tree node, levels 0..N.

    ``levels[k]`` has shape ``(2**k, n)``.  Adaptedness holds by construction:
    the storage shape cannot express a dependence on the future.  A stack of
    independent processes, one per trial, has ``(trials, 2**k, n)`` levels
    (a trial-stacked solve returns one); the methods then reduce over the
    whole stack.
    """

    def __init__(self, lattice: BinaryLattice, dim: int, levels: Sequence[np.ndarray]):
        if len(levels) != lattice.depth + 1:
            raise IncompleteProcessError(
                f"need {lattice.depth + 1} level slices, got {len(levels)}"
            )
        self.lattice = lattice
        self.dim = int(dim)
        self.levels: list[np.ndarray] = []
        lead = None
        for k, lv in enumerate(levels):
            arr = np.asarray(lv, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            lead = arr.shape[:-2] if lead is None else lead
            if arr.shape != lead + (2**k, self.dim) or len(lead) > 1:
                raise IncompleteProcessError(
                    f"level {k} slice has shape {arr.shape}, expected {lead + (2**k, self.dim)}"
                )
            self.levels.append(arr)

    @classmethod
    def from_function(
        cls, lattice: BinaryLattice, dim: int, fn: Callable[[float, np.ndarray], np.ndarray]
    ) -> "AdaptedProcess":
        """Build from ``fn(t, w) -> (m, n)`` evaluated on every level (w is the path value).

        ``fn`` returns ``(2**k, dim)`` at level k, or ``(2**k,)`` when dim is 1;
        any other shape (a transposed ``(dim, 2**k)`` value, say) raises
        ValueError naming the level and the shape.  A non-finite value raises
        ValueError naming its level and node.
        """
        levels = []
        for k in range(lattice.depth + 1):
            vals = np.asarray(fn(lattice.times[k], lattice.brownian_level(k)), dtype=float)
            if vals.shape != (2**k, dim) and not (dim == 1 and vals.shape == (2**k,)):
                raise ValueError(
                    f"value of shape {vals.shape} at level {k} is not ({2**k}, {dim})"
                    + (f" or ({2**k},)" if dim == 1 else "")
                )
            vals = vals.reshape(2**k, dim)
            node = _first_non_finite(vals)
            if node is not None:
                raise ValueError(f"non-finite value at level {k}, node {node}")
            levels.append(vals)
        return cls(lattice, dim, levels)

    def at(self, level: int) -> np.ndarray:
        return self.levels[level]

    def value(self, node: NodeId) -> np.ndarray:
        return self.levels[node.level][node.index]

    def min(self) -> float:
        """Smallest entry over all levels; NaN if any entry is NaN."""
        return float(np.min([lv.min() for lv in self.levels]))

    def max_abs(self) -> float:
        """Largest absolute entry over all levels; NaN if any entry is NaN."""
        return float(np.max([np.abs(lv).max() for lv in self.levels]))

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess(
            self.lattice,
            self.dim,
            [a - b for a, b in zip(self.levels, other.levels)],
        )


class TerminalField:
    """Time-indexed field of leaf-measurable vectors: psi(t_i) known at the horizon.

    ``values`` has shape ``(N + 1, 2**N, n)``; slice ``i`` is psi(t_i) as a
    function of the full path, with no adaptedness requirement.  A stack of
    fields, one per trial, has shape ``(trials, N + 1, 2**N, n)``: a leading
    trial axis, which :meth:`slice` keeps.  ``solve_bsvie_family`` solves
    such a stack as independent equations, one per trial.
    """

    def __init__(self, lattice: BinaryLattice, dim: int, values: np.ndarray):
        self.lattice = lattice
        self.dim = int(dim)
        arr = np.asarray(values, dtype=float)
        want = (lattice.depth + 1, 2**lattice.depth, self.dim)
        if arr.shape[-3:] != want or arr.ndim > 4:
            raise IncompleteProcessError(f"terminal field has shape {arr.shape}, expected {want}"
                                         f" or (trials, *{want})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("terminal field has non-finite entries")
        self.values = arr

    @classmethod
    def from_time_function(
        cls, lattice: BinaryLattice, dim: int, fn: Callable[[float], np.ndarray]
    ) -> "TerminalField":
        """Deterministic free term: psi(t_i) constant across leaves."""
        leaves = 2**lattice.depth
        vals = np.empty((lattice.depth + 1, leaves, dim))
        for i, t in enumerate(lattice.times):
            vals[i, :, :] = np.atleast_1d(np.asarray(fn(t), dtype=float)).reshape(1, dim)
        return cls(lattice, dim, vals)

    def slice(self, i: int) -> np.ndarray:
        """psi(t_i): ``(2**N, n)``, or ``(trials, 2**N, n)`` for a stack."""
        return self.values[..., i, :, :]


class TwoParamProcess:
    """Z(t_i, s_j) values: slice (i, j) lives on the level-j nodes.

    The triangle ``j >= i`` carries the integrand of the backward stochastic
    integral (diagonal included); the strict triangle ``j < i`` carries the
    martingale-representation part pinned down for M-solutions.

    Upper arrays by inner time: level j keeps a node-contiguous ``(j + 1,
    2**j, dim)`` array (see :func:`node_empty`) for the slices i <= j,
    allocated at the first write, and a flag per set slice; a slice and a
    set range (:meth:`rows`) are views, written in place however a sweep
    blocks its rows.  Lower lists by outer time: row i keeps its slices
    j < i as the list given to :meth:`set_below`, kept as given.

    With ``trials`` every upper array has a leading trial axis, ``(trials,
    j + 1, 2**j, dim)``, and so has each slice and range; such a stack has
    no lower lists.
    """

    def __init__(self, lattice: BinaryLattice, dim: int, trials: int | None = None):
        self.lattice = lattice
        self.dim = int(dim)
        self._lead = () if trials is None else (trials,)
        self._upper: list[np.ndarray | None] = [None] * lattice.depth
        self._is_set = [bytearray(j + 1) for j in range(lattice.depth)]
        self._below: list[list[np.ndarray] | None] = [None] * (lattice.depth + 1)

    def write_rows(self, j: int, lo: int, hi: int) -> np.ndarray:
        """Slices (lo, j)..(hi - 1, j), ``hi <= j + 1``, none of them set yet, to be written.

        Returns them as a writable ``(hi - lo, 2**j, dim)`` view and marks
        them set; the caller fills every entry, as the view is not
        initialised.
        """
        if not 0 <= lo < hi <= j + 1 <= self.lattice.depth:
            raise ValueError(f"rows {lo}..{hi - 1} of level {j} are outside the triangle i <= j")
        if 1 in self._is_set[j][lo:hi]:
            raise ValueError(f"a slice of rows {lo}..{hi - 1} of level {j} is already set")
        self._is_set[j][lo:hi] = b"\x01" * (hi - lo)
        if self._upper[j] is None:
            self._upper[j] = node_empty(self._lead + (j + 1, 2**j, self.dim))
        return self._upper[j][..., lo:hi, :, :]

    def rows(self, j: int, lo: int, hi: int) -> np.ndarray:
        """Slices (lo, j)..(hi - 1, j), ``hi <= j + 1``, as a ``(hi - lo, 2**j, dim)`` view; each must be set."""
        if not 0 <= lo < hi <= j + 1 <= self.lattice.depth or 0 in self._is_set[j][lo:hi]:
            raise IncompleteProcessError(f"Z({lo}..{hi - 1},{j}) slices not populated")
        return self._upper[j][..., lo:hi, :, :]

    def set_below(self, i: int, zs: list[np.ndarray]) -> None:
        """Keep ``zs`` as row i's slices (i, 0)..(i, i - 1), uncopied and unconverted.

        ValueError for a row outside 1..N, a row already set, or unless each
        ``zs[j]``, j < i, is a float64 ``(2**j, dim)`` ndarray.
        """
        if not 1 <= i <= self.lattice.depth:
            raise ValueError(f"row {i} is outside 1 <= i <= N")
        if self._below[i] is not None:
            raise ValueError(f"the slices below the diagonal of row {i} are already set")
        if len(zs) != i or any(type(v) is not np.ndarray or v.dtype != np.float64
                               or v.shape != (2**j, self.dim) for j, v in enumerate(zs)):
            raise ValueError(
                f"row {i} takes {i} float64 slices, slice j of shape (2**j, {self.dim})")
        self._below[i] = zs

    def get(self, i: int, j: int) -> np.ndarray:
        if not self.has(i, j):
            raise IncompleteProcessError(f"Z({i},{j}) slice not populated")
        return self._upper[j][..., i, :, :] if i <= j else self._below[i][j]

    def has(self, i: int, j: int) -> bool:
        if not (0 <= i <= self.lattice.depth and 0 <= j < self.lattice.depth):
            return False
        return bool(self._is_set[j][i]) if i <= j else self._below[i] is not None

    def pairs(self) -> list[tuple[int, int]]:
        depth = self.lattice.depth
        return [(i, j) for i in range(depth + 1) for j in range(depth) if self.has(i, j)]

    def lifted(self, i: int, lo: int, hi: int, level: int) -> np.ndarray:
        """Slices (i, lo)..(i, hi - 1), ``lo < hi <= i``, each lifted to ``level``, as one ``(hi - lo, 2**level, dim)`` stack.

        Row i must be set (IncompleteProcessError otherwise).  Lifting copies
        each level-j value to its ``2**(level - j)`` descendants, as
        ``BinaryLattice.lift``.  The stack is node-contiguous.
        """
        if not 0 <= lo < hi <= i <= self.lattice.depth or self._below[i] is None:
            raise IncompleteProcessError(f"Z({i},{lo}..{hi - 1}) slices not populated")
        zs = self._below[i]
        if hi - lo == 1:
            # one slice is one repeat, without the stacking copies
            return _repeat_nodes(zs[lo], 2 ** (level - lo))[None]
        # each slice's components, node runs in (slice, component) order: views of the
        # node-contiguous slices, so the concatenation is the only copy before the repeat
        parts = [zs[j].T.ravel() for j in range(lo, hi)]
        levels = np.arange(lo, hi)
        copies = np.repeat(2 ** (level - levels), self.dim * 2**levels)  # one count per node
        return np.concatenate(parts).repeat(copies).reshape(
            hi - lo, self.dim, 2**level
        ).swapaxes(1, 2)


# -- stochastic integral and martingale representation ----------------------


def ito_integral(integrand: AdaptedProcess) -> AdaptedProcess:
    """Pathwise stochastic integral: I(0) = 0, I(child) = I(node) + f(node) * dW.

    The integrand is read on levels 0..N-1; the result is adapted and a
    martingale by construction.  A non-finite value raises DivergenceError
    naming the first level and node where it appears.
    """
    lat = integrand.lattice
    n = integrand.dim
    levels = []
    for acc in _branch_walk(np.zeros((1, n)), integrand.levels, lat.sqrt_h, lat.depth):
        _check_finite(acc, "ito_integral")
        levels.append(acc)
    return AdaptedProcess(lat, n, levels)


def _branch_walk(acc: np.ndarray, z: Sequence[np.ndarray], sqrt_h: float, level: int):
    """Yield ``acc + sum_{k<j} z[k] dW_k`` for j = 0..level, each ``branch``-ed from the last."""
    yield acc
    for j in range(level):
        acc = branch(acc, z[j] * sqrt_h)
        yield acc


def volterra_sum(
    lattice: BinaryLattice,
    start: np.ndarray,
    xs: Sequence[np.ndarray],
    level: int,
    drift: Callable[[int], np.ndarray] | None,
    diffusion: Callable[[int], np.ndarray] | None,
) -> np.ndarray:
    """The level-``level`` slice of ``start`` plus the Volterra sum over the past:

        start + sum_{j < level} [h X_j A0_j^T + X_j A1_j^T dW_j]   (at ``level``),

    where ``X_j = xs[j]`` has shape ``(2**j, n)``, ``A0_j = drift(j)`` and
    ``A1_j = diffusion(j)`` are the ``(n, n)`` blocks at inner time t_j, and
    dW_j is the step-j increment along each level-``level`` path.  A kernel
    given as ``None`` is absent.  ``start`` is not changed.  At every node
    the terms are added for j = 0, 1, ... with the drift term before the
    diffusion term, and the kernels are called in that order (``drift(j)``
    before ``diffusion(j)``, j ascending); every caller relies on this order
    for bitwise-reproducible results.

    The shape of ``start`` picks the path:

    - one row ``(1, n)``, the same value at every node: the sum is built out
      from the root.  Level j gets its drift term, then goes to level j + 1
      as ``acc +/- (X_j A1_j^T) sqrt(h)`` into the up/down children (or a
      one-level ``lift`` when there is no diffusion kernel).  O(2**level) work.
    - ``2**level`` rows, a value per node: every term j is lifted to
      ``level`` and added there.  O(level * 2**level) work.

    Both give the same bits.  Each node receives the same addends in the
    same order, ``lift`` is exact, and ``v * (-sqrt(h)) == -(v * sqrt(h))``
    and ``a + (-b) == a - b`` hold exactly in IEEE arithmetic.  A per-node
    start cannot be built from the root: it would have to be added last,
    which changes the rounding.
    """
    h, sq = lattice.h, lattice.sqrt_h
    acc = node_empty(start.shape)
    acc[...] = start
    if acc.shape[0] == 1:
        for j in range(level):
            xj = xs[j]
            if drift is not None:
                acc = acc + h * (drift(j) @ xj.mT).mT
            if diffusion is None:
                acc = lattice.lift(acc, j, j + 1)
                continue
            acc = branch(acc, (diffusion(j) @ xj.mT).mT * sq)
        return acc
    if acc.shape[0] != 2**level:
        raise IncompleteProcessError(
            f"start has {acc.shape[0]} rows, expected 1 or {2**level}"
        )
    for j in range(level):
        xj = xs[j]
        if drift is not None:
            acc += h * lattice.lift((drift(j) @ xj.mT).mT, j, level)
        if diffusion is not None:
            incr = sq * lattice.step_signs(level, j)
            acc += lattice.lift((diffusion(j) @ xj.mT).mT, j, level) * incr[:, None]
    return acc


def martingale_representation(
    lattice: BinaryLattice, xi: np.ndarray, level: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exact predictable representation of a level-``level`` field.

    Returns ``(mean, z)`` with ``z[j]`` of shape ``(2**j, n)`` for
    ``j = 0..level-1`` such that, node by node,

        xi = mean + sum_j z[j] * dW_j                     (exactly).

    The construction is the backward filtration of conditional expectations:
    ``z[j] = (V_up - V_down) / (2 sqrt(h))`` where V is the conditional
    expectation of xi at level j+1.
    """
    v = np.asarray(xi, dtype=float)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if v.shape[0] != 2**level:
        raise IncompleteProcessError(f"field has {v.shape[0]} nodes, expected {2 ** level}")
    z: list[np.ndarray] = [np.empty(0)] * level
    for j in range(level - 1, -1, -1):
        up, down = split_children(v)
        z[j] = children_slope(up, down, lattice.sqrt_h)
        v = children_mean(up, down)
    return v[0], z


def reconstruct_from_representation(
    lattice: BinaryLattice, mean: np.ndarray, z: list[np.ndarray], level: int
) -> np.ndarray:
    """Evaluate mean + sum_j z[j] dW_j at every level-``level`` node."""
    for acc in _branch_walk(np.array(mean, dtype=float).reshape(1, -1), z, lattice.sqrt_h, level):
        pass  # only the last level is kept
    return acc


# -- sign violations ---------------------------------------------------------


@dataclass(frozen=True)
class SignViolation:
    """Where a process goes negative: exact dyadic mass and one witness node.

    ``probability`` is the largest per-level mass of nodes with a negative
    (or non-finite) component; ``fraction`` is the same number as an exact
    dyadic rational.  ``per_level`` holds the exact mass per level.
    """

    probability: float
    fraction: Fraction
    witness: NodeId | None
    per_level: list[Fraction] = field(default_factory=list)


def sign_violation(x: AdaptedProcess) -> SignViolation:
    """Scan a process for strictly negative values, level by level.

    A non-finite entry (NaN or +/-inf) counts as a violation: a value that
    cannot be shown nonnegative never passes.
    """
    per_level: list[Fraction] = []
    witness: NodeId | None = None
    best = Fraction(0)
    for k, lv in enumerate(x.levels):
        bad = ~(np.isfinite(lv) & (lv >= 0.0))
        neg = row_any(bad)
        count = int(np.count_nonzero(neg))
        frac = Fraction(count, 2**k)
        per_level.append(frac)
        if count and witness is None:
            witness = NodeId(k, int(np.argmax(neg)))
        if frac > best:
            best = frac
    return SignViolation(float(best), best, witness, per_level)
