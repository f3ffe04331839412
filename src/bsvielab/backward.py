"""Backward solvers on the lattice: BSDEs, backward Volterra equations,
adapted M-solutions, duality checks and the weak comparison functional.

The one-step scheme is implicit in y and explicit in z:

    Z(node) = (Y_up - Y_down) / (2 sqrt(h)),
    Y(node) solves  y = E[Y_next | node] + h * g(t, y, Z(node)).

For linear drifts the inner solve is a Jacobi splitting that maps nonnegative
data to nonnegative iterates exactly, which is what turns the positivity and
comparison statements into exact inequalities instead of tolerance checks.
Every implicit step goes through ``_linear_step`` (linear data) or
``_fixed_point`` (generator data).  ``_linear_step`` has one convention, that
of the Volterra drift: it solves (I - h A) y = E[next] + h B Z + extra.  The
BSDE form dY = (A Y + B Z - f) dt + Z dW hands it -A and -B, which is exact
(negation changes no other bit).  Its Jacobi solve iterates through
``_fixed_point`` too, so the positivity argument and the one stopping rule
live in one place: stop at the first iterate whose largest entrywise change
is below FP_TOL, within FP_MAX_ITER iterations.  A NaN change is never
below FP_TOL, so a NaN never converges; it ends in DivergenceError instead.

Backward Volterra equations carry a time-indexed free term psi(t_i) (known at
the horizon, not necessarily adapted) and a two-time-parameter integrand
Z(t_i, s_j).  Each grid time t_i has its own backward recursion (row t_i);
drift evaluations at inner times s_j > t_i read the already-solved diagonal
values Y(t_j).  Row t_j is final at level j, so one sweep over the levels
j = N-1..0 that advances every open row i <= j together, in a stack, solves
the equation exactly on the lattice.  For M-solutions the part of Z below the
diagonal is pinned down by the exact martingale representation of Y.  Row
t_i reads Z(t_j, t_i) only for j > i, and row j is final before any row
below it steps at level j, so the same single sweep attaches the
representation of Y(t_j) as soon as row j finishes: later rows read it as
their sub-diagonal argument and no re-solve is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, NonConvergenceError
from .lattice import (
    AdaptedProcess,
    BinaryLattice,
    LevelNodes,
    TerminalField,
    TwoParamProcess,
    _check_finite,
    branch,
    children_mean,
    children_slope,
    condition_to,
    conditional_expectation,
    martingale_representation,
    node_empty,
    reconstruct_from_representation,
    row_sums,
    split_children,
    time_grid,
    volterra_sum,
)

FP_TOL = 1e-13
FP_MAX_ITER = 50
PICARD_TOL = 1e-10  # frozen-y scheme: weighted difference norm that ends it
PICARD_MAX_ITER = 50
# cap on the float entries (2**N * dim per row and trial) of a family sweep block's
# stacked rows: a depth <= 10, dim <= 3 solve is one block, a depth-16 one goes row
# by row; the comparison families cap their trial stacks' free terms by it too
_ROW_BLOCK_ELEMS = 2**16


# -- implicit one-step helpers ------------------------------------------------


def _blend(up: np.ndarray, down: np.ndarray, b: np.ndarray | None, sqrt_h: float) -> np.ndarray:
    """E[next] + h * B Z, written as the exact two-child blend.

    With Z = (up - down) / (2 sqrt(h)) this equals
    0.5*(I + sqrt(h) B) up + 0.5*(I - sqrt(h) B) down, a convex combination
    with nonnegative diagonal weights whenever B is diagonal and
    sqrt(h)*|B| <= 1.
    """
    if b is None:
        return children_mean(up, down)
    m = sqrt_h * np.asarray(b, dtype=float)
    wu = 0.5 * (np.eye(b.shape[0]) + m)
    wd = 0.5 * (np.eye(b.shape[0]) - m)
    return (wu @ up.mT).mT + (wd @ down.mT).mT


def _linear_step(up: np.ndarray, down: np.ndarray, a: np.ndarray, b: np.ndarray | None,
                 h: float, sq: float, extra: np.ndarray | None = None) -> np.ndarray:
    """Solve (I - h A) y = blend_B(up, down) + extra for every node by Jacobi iteration.

    Starting from y = 0, every iterate is a sum of products of the right-hand
    side with the weights 1/d and h*offdiag(A), d = 1 - h*diag(A); when A is
    Metzler, B diagonal and the right-hand side nonnegative, those are all
    nonnegative and so is the result, exactly in floating point.  The
    iteration runs through ``_fixed_point``, so it shares its stopping rule.
    """
    rhs = _blend(up, down, b, sq)
    if extra is not None:
        rhs = rhs + extra
    d = 1.0 - h * np.diag(a)
    if np.any(d <= 0.0):
        raise NonConvergenceError("implicit step requires h*|diag coefficient| < 1")
    p = h * a
    np.fill_diagonal(p, 0.0)
    return _fixed_point(lambda y: (rhs + (p @ y.mT).mT) / d, np.zeros_like(rhs),
                        "Jacobi inner solve")


def _fixed_point(step: Callable[[np.ndarray], np.ndarray], start: np.ndarray,
                 what: str) -> np.ndarray:
    """Iterate y <- step(y) from ``start``; return the first iterate within FP_TOL of the last.

    The stopping rule is ``max |new - cur| < FP_TOL`` over every entry, tested
    after each of at most FP_MAX_ITER steps.  A NaN anywhere in the difference
    makes the maximum NaN, and NaN < FP_TOL is false, so a NaN never converges:
    the cap is reached and a non-finite iterate raises DivergenceError naming
    its node.  Otherwise NonConvergenceError quotes the measured contraction,
    the last change over the one before it, computed only on that failure path.

    Axes before the last two (node, component) are trial axes: each trial,
    numbered in C order, is an independent problem.  ``step`` must map every
    trial's slice as it maps that slice alone, bit for bit.  Each trial
    stops by the rule above on its own entries and keeps its first iterate
    within FP_TOL; the stack iterates until every trial has stopped, and a
    trial's later iterates are discarded.  When the cap is reached, the
    lowest trial still open raises the error it raises alone, plus
    ``trial=k``.  A start with no trial axis runs the loop of one problem.
    """
    lead = start.shape[:-2]
    if not lead:
        cur, change = start, math.inf
        for _ in range(FP_MAX_ITER):
            new = step(cur)
            last, change = change, np.maximum.reduce(np.abs(new - cur), axis=None)
            if change < FP_TOL:
                return new
            cur = new
        _check_finite(cur, what)
        raise NonConvergenceError(_non_convergence(what, change, last))
    out = np.empty_like(start)
    open_ = np.ones(lead, dtype=bool)
    cur, change = start, np.full(lead, math.inf)
    for _ in range(FP_MAX_ITER):
        new = step(cur)
        last, change = change, np.max(np.abs(new - cur), axis=(-2, -1))
        done = open_ & (change < FP_TOL)
        if done.any():
            out[done] = new[done]
            open_ &= ~done
            if not open_.any():
                return out
        cur = new
    # the loop over trials would have raised for the lowest open trial first
    k = int(np.flatnonzero(open_)[0])
    # trials below k hold their first iterate within FP_TOL, which is finite
    held = np.where(open_[..., None, None], cur, out).reshape((-1,) + start.shape[-2:])
    _check_finite(held[:k + 1], what)
    raise NonConvergenceError(
        f"{_non_convergence(what, change.flat[k], last.flat[k])}, trial={k}")


def _non_convergence(what: str, change, last) -> str:
    return (f"{what} not below {FP_TOL} in {FP_MAX_ITER} iterations; "
            f"last change / previous change = {float(change) / float(last):.3g} -- reduce the step")


# -- BSDEs ---------------------------------------------------------------------


@dataclass
class BsdeSpec:
    """Backward SDE data.

    Linear form (the positivity/duality workhorse):

        dY = (A(t) Y + B(t) Z - f(t)) dt + Z dW,     Y(T) = xi,

    through matrix callables ``a``, ``b`` and vector callable ``forcing``.
    Each level's implicit step is ``_linear_step`` on -A(t) and -B(t).
    General form: standard-shape generator ``g(t, y, z, nodes) -> (m, n)``
    for  Y(t) = xi + int_t^T g ds - int_t^T Z dW,  vectorized over the nodes
    of one level.  The ``(m, n)`` arrays handed to the callables (``y``,
    ``z``) are node-contiguous (Fortran order, see :mod:`bsvielab.lattice`);
    a callable may return any memory order, which changes no value.  A
    generator value in another order gives the y-level it is summed into
    that order, and mixed orders make the sums slower; ufuncs and
    ``(A @ y.mT).mT`` keep the order of their arguments.
    """

    dim: int
    terminal: np.ndarray
    generator: Callable | None = None
    a: Callable | None = None
    b: Callable | None = None
    forcing: Callable | None = None

    def __post_init__(self):
        linear = self.a is not None or self.b is not None or self.forcing is not None
        if linear and self.generator is not None:
            raise ValueError("give either the linear form or a generator, not both")
        if not linear and self.generator is None:
            raise ValueError("no generator supplied")
        self.is_linear = linear

    def terminal_field(self, lattice: BinaryLattice) -> np.ndarray:
        """The terminal value on the leaves, ``(2**N, dim)``, or ``(trials, 2**N, dim)``.

        ``terminal`` is a scalar or a ``(dim,)`` vector, the same at every
        leaf, or a ``(2**N, dim)`` field, also ``(2**N,)`` when dim is 1;
        any other shape (a transposed ``(dim, 2**N)`` field, say) raises
        ValueError.

        A ``(trials, 2**N, dim)`` field is a stack of independent BSDEs, one
        per trial along the leading axis, which :func:`solve_bsde` solves
        together.  The callables then get ``(trials, 2**k, dim)`` arrays
        and must return the stack of their per-trial values, bit for bit:
        a generator broadcasts per-trial coefficients, ``(trials, dim, dim)``
        matrices and ``(trials, 1, dim)`` vectors, against them.  The linear
        form's ``a``, ``b`` and ``forcing`` are shared by every trial.
        """
        xi = np.asarray(self.terminal, dtype=float)
        leaves = 2**lattice.depth
        if xi.ndim == 0 or xi.shape == (self.dim,):
            return np.full((leaves, self.dim), xi)
        if xi.shape[-2:] == (leaves, self.dim) and xi.ndim <= 3:
            return xi
        if self.dim == 1 and xi.shape == (leaves,):
            return xi.reshape(leaves, self.dim)
        raise ValueError(
            f"terminal of shape {xi.shape} is none of (), ({self.dim},), ({leaves}, {self.dim})"
            + (f", ({leaves},)" if self.dim == 1 else "") + f" or (trials, {leaves}, {self.dim})"
        )


@dataclass
class BsdeSolution:
    """Backward solution of :func:`solve_bsde`: Y on levels 0..N, Z on levels 0..N-1."""

    y: list[np.ndarray]
    z: list[np.ndarray]


def solve_bsde(spec: BsdeSpec, lattice: BinaryLattice) -> BsdeSolution:
    """Backward induction with the implicit-in-y, explicit-in-z one-step scheme.

    A stack of terminal fields (see :meth:`BsdeSpec.terminal_field`) is
    solved as independent BSDEs: every level carries the leading trial
    axis, and each trial's levels are, bit for bit, those of its own solve.
    """
    n = spec.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    y = [None] * N + [spec.terminal_field(lattice)]
    z = [None] * N
    nodes_axis = y[N].ndim - 2
    for k in range(N - 1, -1, -1):
        # y[N] is the caller's terminal field: every level below it is node-contiguous
        up, down = split_children(y[k + 1], axis=nodes_axis)
        zk = children_slope(up, down, sq)
        z[k] = zk
        t = lattice.times[k]
        if spec.is_linear:
            a_k = np.asarray(spec.a(t), dtype=float) if spec.a is not None else np.zeros((n, n))
            b_k = np.asarray(spec.b(t), dtype=float) if spec.b is not None else None
            f_k = h * np.asarray(spec.forcing(t), dtype=float) if spec.forcing is not None else None
            # (I + h A) y = E[next] - h B Z + h f
            y[k] = _linear_step(up, down, -a_k, None if b_k is None else -b_k, h, sq, f_k)
        else:
            e = children_mean(up, down)
            nodes = LevelNodes(lattice, k)
            y[k] = _fixed_point(
                lambda cur: e + h * np.asarray(spec.generator(t, cur, zk, nodes), dtype=float),
                e, "implicit y-step",
            )
    return BsdeSolution(y, z)


def bsde_duality_check(
    spec: BsdeSpec, x: np.ndarray, s_index: int, lattice: BinaryLattice
) -> float:
    """Pairing error of the backward solution against its adjoint forward flow.

    The adjoint follows  dX = -A^T X dt - B^T X dW  with the semi-implicit
    one-step  X_next = (I -/+ sqrt(h) B^T)(I + h A^T)^{-1} X  and the forcing
    accumulated against (I + h A^T)^{-1} X, the unique choice for which the
    one-step product rule telescopes without a remainder.  Returns the maximum
    over level-``s_index`` nodes of

        | <x, Y(t_s)>  -  E_s[ <X(T), xi> + sum_k h <X_hat(t_k), f(t_k)> ] |.
    """
    if not spec.is_linear:
        raise ValueError("duality check needs the linear form")
    n = spec.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    sol = solve_bsde(spec, lattice)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    X = lattice.lift(xv[None], 0, s_index)
    pair = np.zeros((2**s_index, 1))
    eye = np.eye(n)
    for k in range(s_index, N):
        t = lattice.times[k]
        a_k = np.asarray(spec.a(t), dtype=float) if spec.a is not None else np.zeros((n, n))
        b_k = np.asarray(spec.b(t), dtype=float) if spec.b is not None else np.zeros((n, n))
        x_hat = np.linalg.solve(eye + h * a_k.T, X.T).T
        if spec.forcing is not None:
            f_k = np.asarray(spec.forcing(t), dtype=float)
            pair = pair + h * (x_hat @ f_k)[:, None]
        X = branch(x_hat, -(sq * (b_k.T @ x_hat.mT).mT))  # (-B^T X) dW, dW = +/-sqrt(h)
        pair = lattice.lift(pair, k, k + 1)
    xi = spec.terminal_field(lattice)  # the caller's order: multiplied along the nodes
    leaf_val = row_sums((X.mT * xi.mT).mT)[:, None] + pair
    cond = condition_to(leaf_val, N, s_index)
    # a matrix-vector product's bits depend on the matrix's memory order (BLAS row
    # dots for C order, column updates for F order): a C-ordered copy keeps row dots
    lhs = np.ascontiguousarray(sol.y[s_index]) @ xv
    return float(np.max(np.abs(lhs - cond[:, 0])))


# -- backward Volterra equations ----------------------------------------------


@dataclass
class BsvieSpec:
    """Backward Volterra data:

        Y(t) = psi(t) + int_t^T g(t, s, Y(s), Z(t,s), Z(s,t)) ds
                      - int_t^T Z(t,s) dW(s).

    Supply either a generic ``generator(t, s, y, z, zeta, nodes)`` (vectorized
    over the level-``s`` nodes; ``z``/``zeta`` are ``None`` when the declared
    flags say the generator ignores them) or the structured pieces

        drift = A(t,s) y  +  h_fn(t,s,y)  +  B(s) z  +  C(t) zeta,

    any subset of which may be present.  ``uses_z``/``uses_zeta`` declare the
    actual dependencies and must be consistent with the structured pieces.
    The discrete convention for the sub-diagonal argument is zeta(t_i, t_i) = 0
    (the diagonal carries no mass in the continuum).

    ``stacked_t`` declares that the callables also take a stack of outer
    times: t as a float array of shape ``(rows, 1, 1)``, with ``z`` and
    ``zeta`` carrying a leading row axis ``(rows, 2**j, n)`` (``y`` stays the
    shared ``(2**j, n)`` level).  Each callable must then return, bit for bit,
    the stack of its scalar-t results: ``a_kernel``/``c_coef`` a
    ``(rows, n, n)`` stack or one matrix for all rows, ``h_fn``/``generator``
    a value that broadcasts to ``(rows, 2**j, n)``.  Use ``.mT``, not ``.T``,
    on a matrix that may be stacked.  The family sweep then makes one drift
    call per level for its explicit steps instead of one per row; ``b_coef``
    and ``s`` stay scalar.

    The ``(2**j, n)`` arrays handed to the callables (``y``, ``z``,
    ``zeta``, each slice of a stack) are node-contiguous: Fortran order per
    slice, and the memory of a C-ordered ``(rows, n, 2**j)`` array for a
    stack (see :mod:`bsvielab.lattice`).  A callable may return any memory
    order; the order changes no value.  A generator value in another order
    gives the step it is summed into that order, and mixed orders make the
    sums slower; ufuncs and ``(A @ y.mT).mT`` keep the order of their
    arguments.  The structured pieces' products are taken as
    ``(A @ y.mT).mT``, the same bits as ``y @ A.mT``.

    A ``psi`` with a leading trial axis, ``(trials, N + 1, 2**N, n)``, makes
    the spec a stack of independent equations, which ``solve_bsvie_family``
    solves in one sweep; it needs ``stacked_t``.  The trial axis then leads
    every array handed to the callables, before the row axis: ``y`` is
    ``(trials, 1, 2**j, n)`` and ``z`` ``(trials, rows, 2**j, n)``.  A
    generator broadcasts its per-trial coefficients against them, as
    ``(trials, 1, n, n)`` matrices and ``(trials, 1, 1, n)`` vectors, and
    must return each trial's values bit for bit; the structured pieces are
    shared by every trial.
    """

    dim: int
    psi: TerminalField
    generator: Callable | None = None
    a_kernel: Callable | None = None
    h_fn: Callable | None = None
    b_coef: Callable | None = None
    c_coef: Callable | None = None
    uses_z: bool = True
    uses_zeta: bool = False
    lip_y: float = 0.0
    lip_z: float = 0.0
    stacked_t: bool = False

    def __post_init__(self):
        structured = any(
            f is not None for f in (self.a_kernel, self.h_fn, self.b_coef, self.c_coef)
        )
        if structured and self.generator is not None:
            raise ValueError("give either a generator or structured pieces, not both")
        if structured:
            if self.uses_z != (self.b_coef is not None):
                raise ValueError("uses_z inconsistent with the structured pieces")
            if self.uses_zeta != (self.c_coef is not None):
                raise ValueError("uses_zeta inconsistent with the structured pieces")

    @property
    def is_linear_y(self) -> bool:
        return self.generator is None and self.h_fn is None

    def drift(self, t: float, s: float, y: np.ndarray, z: np.ndarray | None,
              zeta: np.ndarray | None, nodes: LevelNodes) -> np.ndarray:
        """Sum of the present pieces, in the order A y, h_fn, B z, C zeta.

        The sum is the one accumulated from ``np.zeros_like(y)``: the first
        piece goes through ``_from_zero``, so a -0.0 in it becomes +0.0 and a
        piece of another shape is broadcast to y's.  With a stacked t (see
        ``stacked_t``) every piece is the stack of its per-row values.
        """
        if self.generator is not None:
            return np.asarray(self.generator(t, s, y, z, zeta, nodes), dtype=float)
        out = None
        if self.a_kernel is not None:
            out = _from_zero(y, (np.asarray(self.a_kernel(t, s), dtype=float) @ y.mT).mT)
        if self.h_fn is not None:
            term = np.asarray(self.h_fn(t, s, y, nodes), dtype=float)
            out = _from_zero(y, term) if out is None else out + term
        if self.b_coef is not None and z is not None:
            term = (np.asarray(self.b_coef(s), dtype=float) @ z.mT).mT
            out = _from_zero(y, term) if out is None else out + term
        if self.c_coef is not None and zeta is not None:
            term = (np.asarray(self.c_coef(t), dtype=float) @ zeta.mT).mT
            out = _from_zero(y, term) if out is None else out + term
        return np.zeros_like(y) if out is None else out


def _from_zero(y: np.ndarray, term: np.ndarray) -> np.ndarray:
    """``np.zeros_like(y) + term`` without the zeros when term already has the sum's shape.

    That is when term's trailing axes are y's shape (a stack of y-shaped
    slices included) and the dtypes agree.
    """
    if term.dtype == y.dtype and term.shape[-y.ndim:] == y.shape:
        return term + 0.0
    return np.zeros_like(y) + term


@dataclass
class BsvieSolution:
    """Adapted solution: Y per node, Z(t_i, s_j) slices on ``j >= i``.

    M-solutions additionally carry the ``j < i`` slices produced by the exact
    martingale representation of Y, and ``msolution_residual`` is the largest
    pathwise error of  Y(t_i) = E Y(t_i) + sum_{j<i} Z(t_i,s_j) dW_j; for a
    stack of trials it is the list of every trial's error.
    """

    y: AdaptedProcess
    z: TwoParamProcess
    msolution_residual: float | list[float] | None = None


def solve_bsvie_family(
    spec: BsvieSpec,
    lattice: BinaryLattice,
    frozen_y: Sequence[np.ndarray] | None = None,
    _msolution: bool = False,
) -> BsvieSolution:
    """One backward recursion per grid time, swept level by level; exact on the lattice.

    Row t_i is the BSDE recursion from the horizon down to level i with
    terminal psi(t_i); its explicit steps at inner times t_j > t_i read the
    already-solved values Y(t_j), and its diagonal step at level i is
    implicit in y.  ``frozen_y`` replaces the y-argument everywhere, so every
    step is explicit (used by the monotone successive scheme).
    ``_msolution`` (set by :func:`solve_bsvie_msolution`) hands the martingale
    representation of each finished row Y(t_i), as returned, to ``z.set_below``
    as the slices Z(t_i, s_j), j < i, which later rows read as their ``zeta``;
    a spec that uses ``zeta`` is solved only that way.

    The rows are swept in descending blocks of at most
    ``_ROW_BLOCK_ELEMS // (2**N * dim)`` rows (at least one).  Inside a block
    each level j = N-1..lo is one stacked step over the block's open rows
    i <= j: one child split, one conditional mean, the Z slices written
    straight into ``z``, row j's diagonal step, then one explicit update of
    the rows i < j (of all rows i <= j with ``frozen_y``).  Row j is final at
    level j, before the rows below it read Y(t_j) or Z(t_j, .).  The explicit
    update is one ``spec.drift`` call when ``spec.stacked_t`` is set and one
    call per row otherwise.  Every value is the one the row-by-row recursion
    computes, bit for bit.

    A non-finite value raises DivergenceError naming where it arose.  Each
    explicit update is checked as it is made: the first level with a
    non-finite value is named with its highest such row and the node.  A
    diagonal step names its level and node.

    A free term with a leading trial axis (see :class:`TerminalField`) is a
    stack of independent equations, solved in one sweep; the trial axis sits
    outside the row axis.  The callables get ``z`` as ``(trials, rows, 2**j,
    n)`` (one row in a diagonal step) and ``y`` as ``(trials, 1, 2**j, n)``,
    and must return the stack of their per-trial values, bit for bit: a
    generator broadcasts per-trial coefficients, ``(trials, 1, n, n)``
    matrices and ``(trials, 1, 1, n)`` vectors, against them, while
    structured pieces are shared by every trial.  The row blocks then hold
    at most ``_ROW_BLOCK_ELEMS // (trials * 2**N * dim)`` rows: one element
    budget for the whole stack.  The returned Y levels and Z slices carry
    the trial axis, and every trial's values are those of its own solve.  A
    stack needs ``stacked_t`` (ValueError).  Its ``frozen_y`` levels carry
    the trial axis too, ``(trials, 2**j, n)``, and reach the callables as
    ``(trials, 1, 2**j, n)``.  As an M-solution, each finished row of the
    stack is represented trial by trial, ``zeta`` reaches the explicit
    updates as ``(trials, rows, 2**j, n)`` and the diagonal steps as the
    shared ``(2**j, n)`` zeros, and ``msolution_residual`` is the list of
    every trial's residual.  A failing step raises for the lowest trial
    that fails there, with the message that trial raises alone plus
    ``trial=k``.
    """
    n = spec.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    times = lattice.times
    psi = spec.psi.values
    trials = psi.shape[0] if psi.ndim == 4 else None
    y_levels: list[np.ndarray | None] = [None] * (N + 1)
    z = TwoParamProcess(lattice, n, trials)
    residuals: list[np.ndarray] = []
    frozen = frozen_y is not None
    if _msolution and frozen:
        # row j's representation would be needed by the update that makes row j
        raise ValueError("an M-solution sweep takes no frozen y-argument")
    if spec.uses_zeta and not _msolution:
        raise ValueError("generator depends on Z(s,t): solve as an M-solution")
    if trials is not None and not spec.stacked_t:
        raise ValueError("a stack of trials is solved only with stacked_t")
    # row j of a block: a stack keeps its row axis, so the callables see one layout
    last = -1 if trials is None else np.s_[:, -1:]
    level_nodes = [LevelNodes(lattice, j) for j in range(N)]
    y_args = frozen_y if frozen else y_levels
    what = "frozen-y sweep" if frozen else "explicit step"

    def finish(i: int, y_i: np.ndarray) -> None:
        y_levels[i] = y_i
        if _msolution and i > 0:
            mean, zs = martingale_representation(lattice, y_i, i)
            z.set_below(i, zs)
            recon = reconstruct_from_representation(lattice, mean, zs, i)
            residuals.append(np.max(np.abs(recon - y_i), axis=(-2, -1)))

    def diagonal_step(j: int, up: np.ndarray, down: np.ndarray, e: np.ndarray,
                      mu: np.ndarray) -> np.ndarray:
        t_j = times[j]
        z_arg = mu if spec.uses_z else None
        # the discrete convention zeta(t_j, t_j) = 0
        zeta_jj = np.zeros((2**j, n), order="F") if spec.uses_zeta else None
        if spec.is_linear_y:
            a_jj = (
                np.asarray(spec.a_kernel(t_j, t_j), dtype=float)
                if spec.a_kernel is not None
                else np.zeros((n, n))
            )
            b_jj = None if spec.b_coef is None else np.asarray(spec.b_coef(t_j), dtype=float)
            c_tj = None if spec.c_coef is None else np.asarray(spec.c_coef(t_j), dtype=float)
            # (I - h A(t_j,t_j)) y = E[next] + h B Z + h C zeta
            return _linear_step(up, down, a_jj, b_jj, h, sq,
                                None if c_tj is None else h * (c_tj @ zeta_jj.mT).mT)
        nodes = level_nodes[j]
        return _fixed_point(
            lambda cur: e + h * spec.drift(t_j, t_j, cur, z_arg, zeta_jj, nodes),
            e, "diagonal y-step",
        )

    def explicit_update(lo: int, j: int, e: np.ndarray, mu: np.ndarray) -> np.ndarray:
        # rows i = lo..lo+k-1 at level j: e + h * drift(t_i, t_j, Y(t_j), Z(t_i,t_j), Z(t_j,t_i))
        k = e.shape[-3]
        t_j = times[j]
        nodes = level_nodes[j]
        y_j = y_args[j] if trials is None else y_args[j][:, None]
        z_arg = mu if spec.uses_z else None
        # Z(t_j, t_i) lifted to level j; an M-solution sweep has finished row j
        zeta_arg = z.lifted(j, lo, lo + k, j) if spec.uses_zeta else None
        if spec.stacked_t:
            lam = e + h * spec.drift(times[lo:lo + k, None, None], t_j, y_j, z_arg, zeta_arg,
                                     nodes)
        else:
            rows = [
                e[r] + h * spec.drift(times[lo + r], t_j, y_j, None if z_arg is None else z_arg[r],
                                      None if zeta_arg is None else zeta_arg[r], nodes)
                for r in range(k)
            ]
            # a node-contiguous stack: the rows' transposes stacked, turned back
            lam = rows[0][None] if k == 1 else np.stack([row.T for row in rows]).swapaxes(1, 2)
        if not np.isfinite(lam).all():
            if trials is not None:
                # up to the lowest trial with a non-finite value: it raises, as it would alone
                lam = lam[:int(np.argmax(~np.isfinite(lam).all(axis=(1, 2, 3)))) + 1]
            for r in range(k - 1, -1, -1):
                _check_finite(lam[..., r, :, :], f"{what} of row {lo + r}")
        return lam

    # a node-contiguous copy of psi(T): the components' node runs, turned back
    finish(N, np.array(spec.psi.slice(N).mT, order="C").mT)
    block = max(1, _ROW_BLOCK_ELEMS // ((trials or 1) * 2**N * n))
    for hi in range(N - 1, -1, -block):
        lo = max(0, hi - block + 1)
        # the caller's psi rows: the first step reads them, every later lam is node-contiguous
        lam = psi[..., lo:hi + 1, :, :]
        for j in range(N - 1, lo - 1, -1):
            top = min(hi, j)  # rows lo..top are open at level j
            lam = lam[..., :top - lo + 1, :, :]
            up, down = split_children(lam, axis=lam.ndim - 2)
            e = children_mean(up, down)
            mu = children_slope(up, down, sq, out=z.write_rows(j, lo, top + 1))
            if frozen:
                lam = explicit_update(lo, j, e, mu)
                if top == j:
                    # row j of every trial, copied node-contiguous
                    finish(j, np.array(lam[..., -1, :, :].mT, order="C").mT)
            elif top == j:
                y_j = diagonal_step(j, up[last], down[last], e[last], mu[last])
                finish(j, y_j if trials is None else y_j[:, 0])
                if j > lo:
                    lam = explicit_update(lo, j, e[..., :-1, :, :], mu[..., :-1, :, :])
            else:
                lam = explicit_update(lo, j, e, mu)
    y = AdaptedProcess(lattice, n, y_levels)
    if not _msolution:
        return BsvieSolution(y, z, None)
    # np.max, unlike the builtin, propagates a NaN residual
    residual = np.max(residuals, axis=0)
    return BsvieSolution(y, z, float(residual) if trials is None else residual.tolist())


def solve_bsvie_msolution(spec: BsvieSpec, lattice: BinaryLattice) -> BsvieSolution:
    """Adapted M-solution in one backward sweep.

    The sub-diagonal slices Z(t_i, s_j), j < i, are the exact martingale
    representation of Y(t_i).  The coupling is strictly triangular in time:
    row t_i reads Z(s, t_i) only at s = t_j > t_i, whose rows the sweep has
    already finished and represented, so one family sweep that attaches each
    row's representation as soon as the row is solved is the exact fixed
    point.  ``msolution_residual`` is the largest pathwise error
    of the reconstruction  Y(t_i) = E Y(t_i) + sum_{j<i} Z(t_i,s_j) dW_j.

    A free term with a leading trial axis is a stack of independent
    M-solutions, solved in one sweep as :func:`solve_bsvie_family` solves
    a stack: every trial's Y levels, Z slices on both sides of the diagonal
    and residual (``msolution_residual`` is then the list of them) are
    those of its own solve, bit for bit.
    """
    if spec.uses_z:
        raise ValueError("M-solution form must not depend on Z(t,s) in the drift")
    return solve_bsvie_family(spec, lattice, _msolution=True)


def solve_bsvie_family_deterministic(
    psi: Callable[[float], float],
    g: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    horizon: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar deterministic reduction on a fine grid (Z = 0 throughout).

    ``g(t, s_array, y_array)`` must broadcast over the inner-time arrays; a
    value of another shape (a scalar or ``(1,)`` for a constant generator)
    is broadcast to their shape.
    Solves  Y_i = psi(t_i) + h * sum_{j >= i} g(t_i, t_j, Y_j)  with the
    diagonal term implicit, exactly like the lattice sweep with one node per
    level but without the depth cap.  ``horizon`` must be finite and positive
    and ``steps`` an int >= 1 (ValueError otherwise).

    The diagonal fixed point passes ``g`` two one-element buffers, rewritten
    before every call, so ``g`` must not keep its array arguments after the
    call.
    """
    times, h = time_grid(horizon, steps)
    steps = len(times) - 1
    s_diag, y_diag = np.empty(1), np.empty(1)
    y = np.empty(steps + 1)
    y[steps] = psi(times[steps])
    for i in range(steps - 1, -1, -1):
        # drift sum over j = i..steps-1, matching the lattice sweep; add.reduce
        # is np.sum's pairwise sum without its dispatch
        s = times[i + 1: steps]
        drift = np.asarray(g(times[i], s, y[i + 1: steps]), dtype=float)
        if drift.shape != s.shape:  # a constant generator: sum steps - i - 1 terms, not one
            drift = np.broadcast_to(drift, s.shape).copy()
        tail = psi(times[i]) + h * float(np.add.reduce(drift))
        cur = y[i + 1]
        # scalar twin of _fixed_point: abs() on a float is ~70x cheaper than np.max(np.abs())
        for _ in range(FP_MAX_ITER):
            s_diag[0] = times[i]  # both rewritten: g may write into its arguments
            y_diag[0] = cur
            d = g(times[i], s_diag, y_diag)
            new = tail + h * float(d[0] if getattr(d, "ndim", 0) else d)  # a scalar has no [0]
            if abs(new - cur) < FP_TOL:
                cur = new
                break
            cur = new
        else:
            if not math.isfinite(cur):
                raise DivergenceError(f"diagonal step: non-finite value at grid step {i}")
            raise NonConvergenceError("diagonal step did not converge; reduce the step")
        y[i] = cur
    return times, y


# -- monotone successive scheme -------------------------------------------------


@dataclass
class PicardHistory:
    """Diagnostics of the frozen-y successive scheme.

    ``diff_norms[k]`` is the weighted norm of iterate k minus iterate k-1
    (iterate 0 is the solution of the upper spec), ``ratios`` the successive
    quotients of those norms, ``max_increase[k]`` the largest nodewise increase
    from iterate k-1 to k (<= 0 up to roundoff when the comparator is
    nondecreasing in y and dominated by the upper data).  A scheme run on a
    trial stack keeps one history per trial, each ending where its trial
    stopped.
    """

    beta: float
    diff_norms: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    max_increase: list[float] = field(default_factory=list)
    iterations: int = 0


def default_beta(lip: float, horizon: float) -> float:
    """Weighted-norm rate 4*(1+L)^2*T: four times the stability constant."""
    return 4.0 * (1.0 + lip) ** 2 * horizon


def _weighted_diff_norm(
    lattice: BinaryLattice,
    y_new: Sequence[np.ndarray],
    y_old: Sequence[np.ndarray],
    z_new: TwoParamProcess,
    z_old: TwoParamProcess,
    beta: float,
) -> np.ndarray:
    """sqrt(sum_i w_i (E|dY_i|^2 + h sum_{j >= i} E|dZ_ij|^2)), w_i = h exp(beta t_i).

    Each expectation is the pairwise sum of q, the per-node squared norms,
    divided by the node count: the sum and the division of ``np.mean``, so
    the value is bitwise the one of ``np.mean`` without its wrapper.  The
    dZ expectations of a level are made at once, ``np.add.reduce(q,
    axis=-1)`` over its ``(j + 1, 2**j)`` stack being each row's pairwise
    sum; the total is still accumulated in (i, j) order.  Returns a 0-d
    array, or for levels with a leading trial axis the array of every
    trial's norm, each accumulated in that order.
    """
    N = lattice.depth
    h = lattice.h
    dz_means = []
    for j in range(N):
        dz = z_new.rows(j, 0, j + 1) - z_old.rows(j, 0, j + 1)
        q = row_sums(dz * dz)
        dz_means.append(np.add.reduce(q, axis=-1) / q.shape[-1])
    total = 0.0
    for i in range(N + 1):
        w = h * math.exp(beta * lattice.times[i])
        dy = y_new[i] - y_old[i]
        q = row_sums(dy * dy)
        total = total + w * (np.add.reduce(q, axis=-1) / q.shape[-1])
        for j in range(i, N):
            total = total + w * h * dz_means[j][..., i]
    return np.sqrt(total)


def picard_bsvie(
    upper: BsvieSpec, comparator: BsvieSpec, lattice: BinaryLattice
) -> tuple[BsvieSolution, PicardHistory | list[PicardHistory]]:
    """Frozen-y successive scheme started from the upper solution.

    Iterate 0 solves ``upper``; iterate k solves the comparator equation with
    the y-argument frozen at iterate k-1.  When the comparator drift is
    nondecreasing in y with a diagonal z-coefficient and is dominated by the
    upper drift (and the comparator free term by the upper one), the iterates
    decrease nodewise and converge to the comparator solution; the weighted
    norm of successive differences, with the rate ``default_beta`` of the
    comparator's Lipschitz constants, contracts.  Convergence is declared at
    the first self-consistent pair of map outputs (norm below PICARD_TOL), so
    a y-independent comparator converges after one effective iteration;
    PICARD_MAX_ITER iterations without it raise NonConvergenceError.

    Free terms with a leading trial axis (both specs, the same trials; see
    :func:`solve_bsvie_family`) make a stack of independent schemes, run as
    one: each iterate is one stacked frozen-y sweep.  Each trial stops by the
    rule above on its own norm, and the stack sweeps until its last trial
    stops; a trial's sweeps after it stopped are discarded, though a
    non-finite value in them raises too.  Returns the stack of every trial's
    final iterate and the list of the trials' histories, each bit for bit
    the one of its own scheme.  A failing sweep raises for the lowest trial
    that fails there; at PICARD_MAX_ITER the lowest open trial raises its
    own message plus ``trial=k``.
    """
    lead = upper.psi.values.shape[:-3]
    if comparator.psi.values.shape[:-3] != lead:
        raise ValueError("the upper and comparator specs must be stacks of the same trials")
    beta = default_beta(max(comparator.lip_y, comparator.lip_z), lattice.horizon)
    hists = [PicardHistory(beta=beta) for _ in range(lead[0] if lead else 1)]
    open_ = list(range(len(hists)))
    held = None
    sol = solve_bsvie_family(upper, lattice)
    for k in range(1, PICARD_MAX_ITER + 1):
        # the frozen-y sweep only reads the previous levels, so they are not copied
        new_sol = solve_bsvie_family(comparator, lattice, frozen_y=sol.y.levels)
        new_y, prev_y = new_sol.y.levels, sol.y.levels
        norms = np.ravel(
            _weighted_diff_norm(lattice, new_y, prev_y, new_sol.z, sol.z, beta)).tolist()
        increases = np.ravel(np.max([np.max(n_lv - p_lv, axis=(-2, -1))
                                     for n_lv, p_lv in zip(new_y, prev_y)], axis=0)).tolist()
        stopped = []
        for t in open_:
            hist, norm = hists[t], norms[t]
            hist.diff_norms.append(norm)
            if len(hist.diff_norms) > 1 and hist.diff_norms[-2] > 0:
                hist.ratios.append(norm / hist.diff_norms[-2])
            hist.max_increase.append(increases[t])
            if k >= 2 and norm < PICARD_TOL:
                hist.iterations = k - 1
                stopped.append(t)
        sol = new_sol
        if stopped:
            if not lead:
                return sol, hists[0]
            held = _hold_trials(held, sol, stopped)
            open_ = [t for t in open_ if t not in stopped]
            if not open_:
                return held, hists
    ratios = hists[open_[0]].ratios
    msg = (f"successive scheme not below {PICARD_TOL} after {PICARD_MAX_ITER} iterations "
           f"(last ratio {ratios[-1] if ratios else float('nan'):.3g})")
    raise NonConvergenceError(f"{msg}, trial={open_[0]}" if lead else msg)


def _hold_trials(held: BsvieSolution | None, sol: BsvieSolution,
                 trials: list[int]) -> BsvieSolution:
    """Copy the Y levels and Z slices of ``trials`` of the stacked ``sol`` into ``held``.

    ``held`` None: a stack of ``sol``'s shapes and layout is made first, and
    is complete once every trial has been copied into it.
    """
    lat, N = sol.y.lattice, sol.y.lattice.depth
    if held is None:
        z = TwoParamProcess(lat, sol.y.dim, len(sol.y.levels[0]))
        for j in range(N):
            z.write_rows(j, 0, j + 1)
        held = BsvieSolution(
            AdaptedProcess(lat, sol.y.dim, [np.empty_like(lv) for lv in sol.y.levels]), z)
    for lv, new in zip(held.y.levels, sol.y.levels):
        lv[trials] = new[trials]
    for j in range(N):
        held.z.rows(j, 0, j + 1)[trials] = sol.z.rows(j, 0, j + 1)[trials]
    return held


# -- weak comparison functional --------------------------------------------------


def weak_comparison_functional(y: AdaptedProcess, lattice: BinaryLattice) -> AdaptedProcess:
    """node -> E[ sum_{level <= j < N} Y(t_j) h | node ], by one backward sweep.

    The left Riemann sum of the remaining time integral of Y: the constant
    process 1 gives exactly T - t at every level-t node, and the horizon slice
    itself contributes nothing (it carries no time mass).  A process with
    ``(trials, 2**k, n)`` levels gives the stack of every trial's
    functional; a non-finite value names the lowest trial with one at the
    first level where one appears.
    """
    h = lattice.h
    levels: list[np.ndarray | None] = [None] * (lattice.depth + 1)
    levels[lattice.depth] = np.zeros_like(y.at(lattice.depth))
    for k in range(lattice.depth - 1, -1, -1):
        levels[k] = h * y.at(k) + conditional_expectation(levels[k + 1])
        _check_finite(levels[k], "weak comparison functional")
    return AdaptedProcess(lattice, y.dim, levels)


# -- duality for the Volterra form ------------------------------------------------


def bsvie_duality_check(
    spec: BsvieSpec,
    eta: AdaptedProcess,
    lattice: BinaryLattice,
) -> float:
    """|E sum_t h <psi(t), X(t)>  -  E sum_t h <phi(t), Y(t)>| for the adjoint pair.

    Y is the M-solution of the linear backward equation with drift
    A(t,s) Y(s) + C(t) Z(s,t); X solves the adjoint forward Volterra equation

        X(t) = phi(t) + int_0^t A(s,t)^T X(s) ds + int_0^t C(s)^T X(s) dW(s),

    phi(t) = int_0^t eta(s) ds, discretized with the drift diagonal taken
    implicitly.  Both time pairings are left Riemann sums (grid times t_0 ..
    t_{N-1}), matching the backward drift quadrature; with that convention the
    two pairings agree exactly on the lattice.
    """
    if spec.generator is not None or spec.h_fn is not None or spec.b_coef is not None:
        raise ValueError("duality check needs the linear form A(t,s) y + C(t) zeta")
    n = spec.dim
    N = lattice.depth
    h = lattice.h
    times = lattice.times
    msol = solve_bsvie_msolution(spec, lattice)
    a = spec.a_kernel if spec.a_kernel is not None else (lambda t, s: np.zeros((n, n)))
    c = spec.c_coef
    eye = np.eye(n)
    xs: list[np.ndarray] = []
    phis: list[np.ndarray] = []
    phi_acc = np.zeros((1, n))
    for j in range(N):
        if j > 0:
            phi_acc = lattice.lift(phi_acc + h * eta.at(j - 1), j - 1, j)
        phis.append(phi_acc)
        rhs = volterra_sum(
            lattice, phi_acc, xs, j,
            lambda i: np.asarray(a(times[i], times[j]), dtype=float).T,
            None if c is None else lambda i: np.asarray(c(times[i]), dtype=float).T,
        )
        a_jj = np.asarray(a(times[j], times[j]), dtype=float)
        xs.append(np.linalg.solve(eye - h * a_jj.T, rhs.T).T)
    lhs = 0.0
    rhs_pair = 0.0
    for j in range(N):
        x_leaf = lattice.lift(xs[j], j, N)
        lhs += h * float(np.mean(row_sums(spec.psi.slice(j) * x_leaf)))
        rhs_pair += h * float(np.mean(row_sums(phis[j] * msol.y.at(j))))
    return abs(lhs - rhs_pair)


# -- step-function linear backward Volterra ----------------------------------------


def _step_pieces(spec: BsvieSpec, lattice: BinaryLattice) -> list[tuple[int, int, list]]:
    """The maximal runs lo..hi of grid times on which the data are constant in t.

    Row i joins the run of row lo when psi(t_i) and A(t_i, s_j) for every
    j >= i equal row lo's exactly: row i's equation reads no other data.
    Returns ``(lo, hi, kernel)`` per run, ascending, where ``kernel[j]`` is
    A(t_lo, s_j) for j >= lo (None below); a missing kernel is the zero matrix.
    Any data has runs, if only of one row each.
    """
    n, N, times = spec.dim, lattice.depth, lattice.times
    zero = np.zeros((n, n))
    pieces: list[tuple[int, int, list]] = []
    for i in range(N + 1):
        kernel = [None] * i + [
            zero if spec.a_kernel is None
            else np.asarray(spec.a_kernel(times[i], times[j]), dtype=float)
            for j in range(i, N + 1)
        ]
        if pieces:
            lo, _, head = pieces[-1]
            if np.array_equal(spec.psi.slice(i), spec.psi.slice(lo)) and all(
                np.array_equal(kernel[j], head[j]) for j in range(i, N + 1)
            ):
                pieces[-1] = (lo, i, head)
                continue
        pieces.append((i, i, kernel))
    return pieces


def solve_linear_bsvie_stepfn(spec: BsvieSpec, lattice: BinaryLattice) -> BsvieSolution:
    """Interval-by-interval nested backward induction for the linear drift
    A(t,s) y + B(s) z with a kernel and free term piecewise constant in t.

    The intervals are the runs of :func:`_step_pieces`, read off the data.
    The last interval is a plain linear backward recursion.  Each earlier
    interval k reuses the interval-(k+1) sweep: above its right endpoint the
    two sweeps differ by a correction D driven by the kernel increment
    (A_k - A_{k+1}) Y and the free-term increment psi_k - psi_{k+1}, computed
    by its own explicit recursion; below the endpoint the sweep continues with
    implicit steps.  Every operation preserves exact nonnegativity when the
    hypotheses hold (Metzler, t-nonincreasing kernel; diagonal B;
    nonincreasing, nonnegative free term), so such data yields Y >= 0 with no
    tolerance.  The hypotheses are not checked here (``check_hypotheses`` does
    that): counterexample data must run.  ValueError for a spec with a
    generator, ``h_fn``, ``c_coef`` or ``uses_zeta``.
    """
    if (spec.generator is not None or spec.h_fn is not None or spec.c_coef is not None
            or spec.uses_zeta):
        raise ValueError("the step-function solver needs the linear form A(t,s) y + B(s) z")
    pieces = _step_pieces(spec, lattice)
    n = spec.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    times = lattice.times
    M = len(pieces)
    b = spec.b_coef if spec.b_coef is not None else (lambda s: np.zeros((n, n)))

    y_levels: list[np.ndarray | None] = [None] * (N + 1)
    z = TwoParamProcess(lattice, n)
    # lam[j] holds the current interval's sweep value at level j (j >= lower end)
    lam: list[np.ndarray | None] = [None] * (N + 1)
    z_rows: list[np.ndarray | None] = [None] * N

    for k in range(M - 1, -1, -1):
        lo, hi, a_k = pieces[k]
        if k == M - 1:
            lam[N] = np.array(spec.psi.slice(lo), order="F")
            sweep_from = N - 1
        else:
            # correction sweep above the right endpoint: the previous
            # interval's values are defined on levels hi+1..N only
            lo_next, _, a_next = pieces[k + 1]
            d_cur = np.subtract(spec.psi.slice(lo), spec.psi.slice(lo_next),
                                out=node_empty((2**N, n)))
            new_lam: list[np.ndarray | None] = [None] * (N + 1)
            new_lam[N] = lam[N] + d_cur
            new_rows: list[np.ndarray | None] = [None] * N
            for j in range(N - 1, hi, -1):
                up, down = split_children(d_cur)
                dz = children_slope(up, down, sq)
                d_cur = _blend(up, down, np.asarray(b(times[j]), dtype=float), sq)
                d_cur = d_cur + h * ((a_k[j] - a_next[j]) @ y_levels[j].mT).mT
                new_lam[j] = lam[j] + d_cur
                new_rows[j] = z_rows[j] + dz
            lam, z_rows = new_lam, new_rows
            sweep_from = hi
        for j in range(sweep_from, lo - 1, -1):
            up, down = split_children(lam[j + 1])
            z_rows[j] = children_slope(up, down, sq)
            lam[j] = _linear_step(up, down, a_k[j], np.asarray(b(times[j]), dtype=float), h, sq)
        y_levels[lo:hi + 1] = lam[lo:hi + 1]
        for j in range(lo, N):
            # Z(t_i, s_j) is the same for every row i of the interval
            z.write_rows(j, lo, min(hi, j) + 1)[...] = z_rows[j]

    return BsvieSolution(AdaptedProcess(lattice, n, y_levels), z, None)
