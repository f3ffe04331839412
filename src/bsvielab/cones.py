"""Matrix cone algebra: entrywise-nonnegative, Metzler, and diagonal cones.

Every positivity and comparison hypothesis in this library is a membership
statement in one of three cones of real matrices:

* nonnegative      -- all entries >= 0,
* Metzler          -- all off-diagonal entries >= 0 (diagonal unconstrained),
* diagonal         -- all off-diagonal entries == 0.

The Metzler cone decomposes as (nonnegative) + (diagonal), and the diagonal
cone is the Metzler cone intersected with its negative, so it has no test of
its own.  For 1x1 matrices the Metzler and diagonal cones are all of R.
Membership is structural, so the default tolerance is 0; the tests take a
tolerance for matrices that come out of floating-point arithmetic.
"""

from __future__ import annotations

import numpy as np


class ConeLogicError(RuntimeError):
    """Internal inconsistency between the exact vertex test and sampling."""


def _as_matrix(a) -> np.ndarray:
    """``a`` as a float matrix, or a stack ``(..., m, n)`` of matrices; finite."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 2:
        raise ValueError(f"expected a 2-d matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"square matrix required, got shape {m.shape[-2:]}")


def _verdict(inside: np.ndarray):
    """A bool for one matrix, the boolean array of the leading axes for a stack."""
    return bool(inside) if inside.ndim == 0 else inside


def is_nonneg(a, tol: float = 0.0):
    """True iff every entry of ``a`` is >= -tol.

    A stack ``(..., m, n)`` gets one answer per matrix, as a boolean array.
    """
    m = _as_matrix(a)
    return _verdict(np.all(m >= -tol, axis=(-2, -1)))


def is_metzler(a, tol: float = 0.0):
    """True iff every off-diagonal entry of the square matrix ``a`` is >= -tol.

    Diagonal entries are unconstrained; any 1x1 matrix is Metzler.  A stack
    ``(..., n, n)`` gets one answer per matrix, as a boolean array.
    """
    m = _as_matrix(a)
    _require_square(m)
    return _verdict(np.all((m >= -tol) | np.eye(m.shape[-1], dtype=bool), axis=(-2, -1)))


def cone_preservation_check(a, sample_count: int, rng_seed: int) -> bool:
    """Exact test that ``x >= 0`` implies ``a @ x >= 0``.

    The exact answer is the vertex test on the basis vectors e_j, which is
    equivalent to entrywise nonnegativity of the columns.  As a guard, the
    routine additionally samples ``sample_count`` random nonnegative vectors;
    a sampled violation while the vertex test passes is impossible in exact
    arithmetic and aborts with :class:`ConeLogicError`.
    """
    m = _as_matrix(a)
    vertex_ok = bool(np.all(m >= 0.0))
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(0.0, 1.0, size=(max(int(sample_count), 0), m.shape[1]))
    images = xs @ m.T
    if vertex_ok and images.size and not np.all(images >= 0.0):
        raise ConeLogicError(
            "sampled x >= 0 with a negative image although every column is nonnegative"
        )
    return vertex_ok
