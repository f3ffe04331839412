import copy
import dataclasses
import itertools
import math
import re
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsvielab import backward, forward
from bsvielab.errors import DivergenceError, NonConvergenceError
from bsvielab.harness import scenarios
from bsvielab.harness.hypotheses import SATISFIED, VIOLATED, check_hypotheses
from bsvielab.harness.scenarios import REGISTRY, _stacked_diag
from bsvielab.lattice import (
    AdaptedProcess,
    BinaryLattice,
    LevelNodes,
    TerminalField,
    TwoParamProcess,
    _check_finite,
    children_slope,
    condition_to,
    martingale_representation,
    node_empty,
    reconstruct_from_representation,
    split_children,
)

from structured_pair_reference import structured_pair


def random_metzler(rng, n, scale):
    m = rng.uniform(0.0, scale, (n, n))
    m[np.diag_indices(n)] = rng.uniform(-scale, scale, n)
    return m


def deterministic_psi(lat, fn):
    return TerminalField.from_time_function(lat, 1, lambda t: np.array([fn(t)]))


# -- backward SDE -----------------------------------------------------------------


def test_bsde_zero_generator_is_conditional_expectation():
    lat = BinaryLattice(1.0, 7)
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((128, 2))
    sol = backward.solve_bsde(
        backward.BsdeSpec(2, xi, generator=lambda t, y, z, nd: 0.0 * y), lat
    )
    for k in range(8):
        assert np.max(np.abs(sol.y[k] - condition_to(xi, 7, k))) <= 1e-13
    mean, zs = martingale_representation(lat, xi, 7)
    for k in range(7):
        assert np.max(np.abs(sol.z[k] - zs[k])) <= 1e-13


@pytest.mark.parametrize("dim, terminal, expected", [
    (2, 1.5, np.full((8, 2), 1.5)),
    (2, np.array([1.0, -2.0]), np.tile([1.0, -2.0], (8, 1))),
    (2, np.arange(16.0).reshape(8, 2), np.arange(16.0).reshape(8, 2)),
    (1, np.arange(8.0), np.arange(8.0).reshape(8, 1)),
    (1, 3.0, np.full((8, 1), 3.0)),
])
def test_bsde_terminal_field_broadcasts_the_accepted_shapes(dim, terminal, expected):
    got = backward.BsdeSpec(dim, terminal, generator=lambda t, y, z, nd: y).terminal_field(
        BinaryLattice(1.0, 3))
    assert got.shape == (8, dim) and np.array_equal(got, expected)


@pytest.mark.parametrize("dim, terminal", [
    (2, np.vstack([np.zeros(8), np.ones(8)])),  # transposed (dim, 2**N): not reshaped
    (2, np.zeros(16)),                          # flat (2**N * dim,)
    (2, np.zeros((1, 2))),
    (1, np.zeros(4)),
    (2, np.zeros((8, 2, 1))),
])
def test_bsde_terminal_field_refuses_other_shapes(dim, terminal):
    spec = backward.BsdeSpec(dim, terminal, generator=lambda t, y, z, nd: y)
    with pytest.raises(ValueError, match=r"^terminal of shape .* is none of \(\), "):
        spec.terminal_field(BinaryLattice(1.0, 3))


def test_bsde_scalar_exponential_decay():
    lat = BinaryLattice(1.0, 10)
    sol = backward.solve_bsde(
        backward.BsdeSpec(1, np.ones((1024, 1)), generator=lambda t, y, z, nd: -y),
        lat,
    )
    assert abs(sol.y[0][0, 0] - math.exp(-1.0)) <= 0.5 * lat.h  # measured 0.18 h


def test_bsde_linear_positivity_is_exact():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(4, 9))
        lat = BinaryLattice(1.0, N)
        neg_a = random_metzler(rng, n, 0.6)  # -A Metzler
        a = -neg_a
        if lat.h * float(np.abs(a).sum(axis=1).max()) > 0.9:
            a *= 0.9 / (lat.h * float(np.abs(a).sum(axis=1).max()))
        b = np.diag(rng.uniform(-0.9, 0.9, n)) / max(lat.sqrt_h, 1.0)
        f = rng.uniform(0.0, 1.0, n)
        xi = rng.uniform(0.0, 2.0, (2**N, n))
        sol = backward.solve_bsde(
            backward.BsdeSpec(n, xi, a=lambda t, m=a: m, b=lambda t, m=b: m,
                              forcing=lambda t, v=f: v),
            lat,
        )
        assert min(float(np.min(sol.y[k])) for k in range(N + 1)) >= 0.0


def test_bsde_nonconvergence_reports_step_hint():
    lat = BinaryLattice(1.0, 2)  # h = 0.5: y <- e - 5y changes by a factor -5 a step
    spec = backward.BsdeSpec(1, np.ones((4, 1)), generator=lambda t, y, z, nd: -10.0 * y)
    with pytest.raises(NonConvergenceError, match="previous change = 5 -- reduce the step$"):
        backward.solve_bsde(spec, lat)


def test_jacobi_nonconvergence_is_named():
    # d = 1 > 0 passes the guard, but the splitting's spectral radius is 5
    a, ones = np.array([[0.0, 10.0], [10.0, 0.0]]), np.ones((2, 2))
    with pytest.raises(NonConvergenceError, match="Jacobi inner solve"):
        backward._linear_step(ones, ones, a, None, 0.5, math.sqrt(0.5))
    # the right-hand side (1, 1) is an eigenvector of h*A: each change is 5 times the last
    with pytest.raises(NonConvergenceError, match=r"last change / previous change = 5 "):
        backward._linear_step(ones, ones, a, None, 0.5, math.sqrt(0.5))


def test_nonconvergence_quotes_the_measured_contraction_of_an_undeclared_generator():
    # no Lipschitz constant is declared: the message measures the map, h * 1.5 at h = 1
    lat = BinaryLattice(1.0, 1)
    bsde = backward.BsdeSpec(1, np.ones((2, 1)), generator=lambda t, y, z, nd: -1.5 * y)
    with pytest.raises(NonConvergenceError,
                       match=r"^implicit y-step .* previous change = 1\.5 -- reduce the step$"):
        backward.solve_bsde(bsde, lat)
    bsvie = backward.BsvieSpec(
        1, TerminalField(lat, 1, np.ones((2, 2, 1))),
        generator=lambda t, s, y, z, zeta, nd: -1.5 * y, uses_z=False,
    )
    with pytest.raises(NonConvergenceError,
                       match=r"^diagonal y-step .* previous change = 1\.5 -- reduce the step$"):
        backward.solve_bsvie_family(bsvie, lat)
    # a map that contracts too slowly for FP_MAX_ITER steps reads below 1
    slow = backward.BsdeSpec(1, np.ones((2, 1)), generator=lambda t, y, z, nd: -0.95 * y)
    with pytest.raises(NonConvergenceError, match=r"previous change = 0\.95 "):
        backward.solve_bsde(slow, lat)


def test_implicit_step_refuses_a_nonpositive_jacobi_diagonal():
    # (I + h A) y = ... with h = 0.5 and A = -3 has the diagonal 1 - 1.5 < 0
    lat = BinaryLattice(1.0, 2)
    spec = backward.BsdeSpec(1, np.ones((4, 1)), a=lambda t: [[-3.0]])
    with pytest.raises(
        NonConvergenceError, match=r"^implicit step requires h\*\|diag coefficient\| < 1$"
    ):
        backward.solve_bsde(spec, lat)


def _nan_at_last_node(y):
    out = np.zeros_like(y)
    out[-1] = np.nan
    return out


def _nan_bsde_generator(lat):
    gen = lambda t, y, z, nd: _nan_at_last_node(y)
    backward.solve_bsde(backward.BsdeSpec(1, np.ones((16, 1)), generator=gen), lat)


def _nan_family_generator(lat):
    gen = lambda t, s, y, z, zeta, nd: _nan_at_last_node(y)
    psi = deterministic_psi(lat, lambda t: 1.0)
    backward.solve_bsvie_family(backward.BsvieSpec(1, psi, generator=gen, uses_z=False), lat)


def _nan_linear_bsde_coefficient(lat):
    spec = backward.BsdeSpec(1, np.ones((16, 1)), a=lambda t: np.array([[np.nan]]))
    backward.solve_bsde(spec, lat)


def _nan_deterministic_generator(lat):
    g = lambda t, s, yv: np.full_like(yv, np.nan)
    backward.solve_bsvie_family_deterministic(lambda t: 1.0, g, lat.horizon, 8)


@pytest.mark.parametrize(
    "solve, where",
    [
        pytest.param(_nan_bsde_generator, "level 3, node 7", id="bsde-generator"),
        pytest.param(_nan_family_generator, "level 3, node 7", id="family-generator"),
        pytest.param(_nan_linear_bsde_coefficient, "level 3, node 0", id="bsde-linear-a"),
        pytest.param(_nan_deterministic_generator, "grid step 7", id="deterministic-g"),
    ],
)
def test_non_finite_implicit_step_raises_divergence_naming_the_node(solve, where):
    # a NaN never meets the stopping rule; it must not read as "reduce the step"
    with pytest.raises(DivergenceError, match=f"non-finite value at {where}$"):
        solve(BinaryLattice(1.0, 4))


def test_frozen_y_sweep_raises_divergence_naming_the_node():
    # the Picard sweep takes only explicit steps; a NaN drift must not reach the result
    lat = BinaryLattice(1.0, 4)
    gen = lambda t, s, y, z, zeta, nd: _nan_at_last_node(y)
    spec = backward.BsvieSpec(1, deterministic_psi(lat, lambda t: 1.0), generator=gen,
                              uses_z=False)
    frozen = [np.ones((2**k, 1)) for k in range(lat.depth + 1)]
    with pytest.raises(DivergenceError, match="non-finite value at level 3, node 7$"):
        backward.solve_bsvie_family(spec, lat, frozen_y=frozen)


@pytest.mark.parametrize("frozen", [False, True], ids=["plain", "frozen-y"])
def test_family_names_the_level_where_an_explicit_step_made_a_nan(frozen):
    # row t_1 takes explicit steps j = 5..2 before its diagonal step; the NaN
    # arises at j = 4 and used to be reported at level 1, the row's end
    lat = BinaryLattice(1.0, 6)
    t = lat.times

    def a_kernel(ti, sj):
        return np.array([[math.nan if (ti, sj) == (t[1], t[4]) else 0.3]])

    spec = backward.BsvieSpec(1, deterministic_psi(lat, lambda s: 1.0), a_kernel=a_kernel,
                              uses_z=False)
    kw = {"frozen_y": [np.ones((2**k, 1)) for k in range(7)]} if frozen else {}
    with pytest.raises(DivergenceError, match="of row 1: non-finite value at level 4, node 0$"):
        backward.solve_bsvie_family(spec, lat, **kw)


# -- BSDE duality -------------------------------------------------------------------


def test_bsde_duality_trivial_coefficients():
    lat = BinaryLattice(1.0, 8)
    rng = np.random.default_rng(2)
    xi = rng.standard_normal((256, 2))
    spec = backward.BsdeSpec(2, xi, a=lambda t: np.zeros((2, 2)), b=lambda t: np.zeros((2, 2)))
    assert backward.bsde_duality_check(spec, np.array([1.0, -0.5]), 0, lat) <= 1e-13


@pytest.mark.parametrize("kind", ["diagonal", "full_a_zero_b", "full_a_diag_b"])
def test_bsde_duality_random_specs(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    n = 2
    lat = BinaryLattice(1.0, 8)
    for trial in range(20):
        if kind == "diagonal":
            a = np.diag(rng.uniform(-1.0, 1.0, n))
            b = np.diag(rng.uniform(-1.0, 1.0, n))
        elif kind == "full_a_zero_b":
            a = rng.uniform(-1.0, 1.0, (n, n))
            b = np.zeros((n, n))
        else:
            a = rng.uniform(-1.0, 1.0, (n, n))
            b = np.diag(rng.uniform(-1.0, 1.0, n))
        f = rng.uniform(-1.0, 1.0, n)
        xi = rng.standard_normal((256, n))
        spec = backward.BsdeSpec(
            n, xi, a=lambda t, m=a: m, b=lambda t, m=b: m, forcing=lambda t, v=f: v
        )
        x = rng.uniform(0.0, 1.0, n)
        s_idx = int(rng.integers(0, 4))
        assert backward.bsde_duality_check(spec, x, s_idx, lat) <= 1e-10


# The two functions below are solve_bsde and bsde_duality_check as they were written
# before the node layout moved behind lattice.branch/split_children; the library
# must keep their bits.


def _reference_linear_step(up, down, a, b, h, sq, sign, extra=None):
    """The implicit linear step with its products written row-major (``y @ p.T``), as
    before the levels were stored node-contiguous; only the stopping rule is shared."""
    rhs = 0.5 * (up + down)
    if b is not None:
        m = sign * sq * np.asarray(b, dtype=float)
        wu = 0.5 * (np.eye(b.shape[0]) + m)
        wd = 0.5 * (np.eye(b.shape[0]) - m)
        rhs = up @ wu.T + down @ wd.T
    if extra is not None:
        rhs = rhs + extra
    a = np.asarray(a, dtype=float)
    d = 1.0 - sign * h * np.diag(a)
    p = sign * h * a
    np.fill_diagonal(p, 0.0)
    return backward._fixed_point(
        lambda y: (rhs + y @ p.T) / d, np.zeros_like(rhs), "Jacobi inner solve"
    )


def _reference_solve_bsde(spec, lattice, from_index=0):
    n = spec.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    y = [None] * (N + 1)
    z = [None] * N
    y[N] = spec.terminal_field(lattice)
    for k in range(N - 1, from_index - 1, -1):
        nxt = y[k + 1]
        up, down = nxt[0::2], nxt[1::2]
        zk = (up - down) / (2.0 * sq)
        z[k] = zk
        t = lattice.times[k]
        if spec.is_linear:
            a_k = np.asarray(spec.a(t), dtype=float) if spec.a is not None else np.zeros((n, n))
            b_k = np.asarray(spec.b(t), dtype=float) if spec.b is not None else None
            f_k = h * np.asarray(spec.forcing(t), dtype=float) if spec.forcing is not None else None
            y[k] = _reference_linear_step(up, down, a_k, b_k, h, sq, -1.0, f_k)
        else:
            e = 0.5 * (up + down)
            nodes = LevelNodes(lattice, k)
            y[k] = backward._fixed_point(
                lambda cur: e + h * np.asarray(spec.generator(t, cur, zk, nodes), dtype=float),
                e, "implicit y-step",
            )
    return y, z


def _reference_bsde_duality(spec, x, s_index, lattice):
    n = spec.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    y, _ = _reference_solve_bsde(spec, lattice, from_index=s_index)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    X = np.tile(xv, (2**s_index, 1))
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
        up = x_hat - sq * (x_hat @ b_k)
        down = x_hat + sq * (x_hat @ b_k)
        X_next = np.empty((2 ** (k + 1), n))
        X_next[0::2], X_next[1::2] = up, down
        p_next = np.empty((2 ** (k + 1), 1))
        p_next[0::2] = p_next[1::2] = pair
        X, pair = X_next, p_next
    xi = spec.terminal_field(lattice)
    leaf_val = np.sum(X * xi, axis=1, keepdims=True) + pair
    cond = leaf_val
    for _ in range(N - s_index):
        cond = 0.5 * (cond[0::2] + cond[1::2])
    lhs = y[s_index] @ xv
    return float(np.max(np.abs(lhs - cond[:, 0])))


def _with_signed_zeros(rng, m, zero_diagonal):
    """``m`` with about a quarter of its entries set to 0.0 or -0.0, and its whole
    diagonal too when ``zero_diagonal``: solve_bsde negates A and B, and the
    reference multiplies by sign = -1, so signed zeros are where the two could part."""
    zeros = rng.choice([0.0, -0.0], m.shape)
    m = np.where(rng.random(m.shape) < 0.25, zeros, m)
    if zero_diagonal:
        np.fill_diagonal(m, np.diag(zeros))
    return m


def _assert_bsde_matches_the_reference(depth, n, seed, linear, absent=""):
    """``absent`` names the linear coefficients ("a", "b") the spec leaves out."""
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(1.0, depth)
    xi = rng.standard_normal((2**depth, n))
    if linear:
        scale = min(1.0, 0.5 / (n * lat.h))  # keeps the Jacobi solve contracting
        pieces = [(_with_signed_zeros(rng, scale * rng.uniform(-1.0, 1.0, (n, n)), k % 3 == 1),
                   _with_signed_zeros(rng, rng.uniform(-1.0, 1.0, (n, n)), k % 3 == 2),
                   rng.uniform(-1.0, 1.0, n)) for k in range(depth)]
        at = lambda t: pieces[min(int(round(t / lat.h)), depth - 1)]
        spec = backward.BsdeSpec(n, xi, a=None if "a" in absent else lambda t: at(t)[0],
                                 b=None if "b" in absent else lambda t: at(t)[1],
                                 forcing=lambda t: at(t)[2])
    else:
        c = rng.uniform(-1.0, 1.0, n)
        spec = backward.BsdeSpec(
            n, xi,
            generator=lambda t, y, z, nd: 0.5 * np.tanh(y) * c + 0.5 * np.sin(z)
            + t * nd.w[:, None],
        )
    sol = backward.solve_bsde(spec, lat)
    ref_y, ref_z = _reference_solve_bsde(spec, lat)
    assert [v.tobytes() for v in sol.y] == [v.tobytes() for v in ref_y]
    assert [v.tobytes() for v in sol.z] == [v.tobytes() for v in ref_z]
    if linear:
        x = rng.uniform(-1.0, 1.0, n)
        for s_index in sorted({0, depth // 2, depth - 1}):
            got = backward.bsde_duality_check(spec, x, s_index, lat)
            assert got == _reference_bsde_duality(spec, x, s_index, lat), s_index


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["", "a", "b", "ab"]))
@example(6, 2, 5, True, "a")
@example(6, 2, 5, True, "b")
@example(6, 2, 5, True, "ab")
def test_bsde_and_its_duality_are_bitwise_equal_to_the_reference(depth, n, seed, linear, absent):
    _assert_bsde_matches_the_reference(depth, n, seed, linear, absent)


@pytest.mark.parametrize("linear", [True, False])
def test_deep_bsde_and_its_duality_are_bitwise_equal_to_the_reference(linear):
    _assert_bsde_matches_the_reference(16, 2, 16, linear)


# -- backward Volterra: family solver ---------------------------------------------------


def test_family_reduces_to_single_bsde_for_t_free_data():
    lat = BinaryLattice(1.0, 9)
    rng = np.random.default_rng(3)
    xi = rng.standard_normal((512, 1))
    psi = TerminalField(lat, 1, np.tile(xi[None], (10, 1, 1)))
    gen2 = lambda t, y, z, nd: np.arctan(y) + 0.2 * z
    fam = backward.solve_bsvie_family(
        backward.BsvieSpec(
            1, psi, generator=lambda t, s, y, z, zeta, nd: np.arctan(y) + 0.2 * z,
            lip_y=1.0, lip_z=0.2,
        ),
        lat,
    )
    bsde = backward.solve_bsde(
        backward.BsdeSpec(1, xi, generator=gen2), lat
    )
    worst = max(np.max(np.abs(fam.y.at(k) - bsde.y[k])) for k in range(10))
    assert worst <= 1e-12
    # the diagonal-inclusive Z slices match the single equation's integrand
    for k in range(9):
        assert np.max(np.abs(fam.z.get(0, k) - bsde.z[k])) <= 1e-12


def test_family_increasing_free_term_goes_negative():
    T, steps = 1.0, 2**10
    times, y = backward.solve_bsvie_family_deterministic(
        lambda t: t, lambda t, s, yv: -yv, T, steps
    )
    exact = math.exp(-T) * (T + 1.0) - 1.0
    assert abs(y[0] - exact) <= 5e-3
    tstar = T - math.log(T + 1.0)
    h = T / steps
    inside = times <= tstar - 5.0 * h  # standoff: the scheme error is O(h)
    assert np.all(y[inside] < 0.0)
    assert y[0] < 0.0


def test_family_shifted_drift_stays_above_minus_h():
    T, steps = 1.0, 2**10
    h = T / steps
    times, y = backward.solve_bsvie_family_deterministic(
        lambda t: 0.0, lambda t, s, yv: s - t - yv, T, steps
    )
    assert float(np.min(y)) >= -h
    oracle = np.exp(times - T) + T - times - 1.0
    assert float(np.max(np.abs(y - oracle))) <= 2.0 * h  # measured 0.45 h


def test_family_lattice_matches_deterministic_grid():
    T, N = 1.0, 9
    lat = BinaryLattice(T, N)
    psi = deterministic_psi(lat, lambda t: t)
    fam = backward.solve_bsvie_family(
        backward.BsvieSpec(1, psi, a_kernel=lambda t, s: np.array([[-1.0]]),
                           uses_z=False, lip_y=1.0),
        lat,
    )
    times, y = backward.solve_bsvie_family_deterministic(
        lambda t: t, lambda t, s, yv: -yv, T, N
    )
    worst = max(abs(fam.y.at(i)[0, 0] - y[i]) for i in range(N + 1))
    assert worst <= 1e-13


# Reference: the grid family solver with its np.sum drift tail, kept verbatim.


def _reference_family_deterministic(psi, g, horizon, steps):
    times = np.linspace(0.0, horizon, steps + 1)
    h = horizon / steps
    y = np.empty(steps + 1)
    y[steps] = psi(times[steps])
    for i in range(steps - 1, -1, -1):
        tail = psi(times[i]) + h * float(
            np.sum(np.asarray(g(times[i], times[i + 1: steps], y[i + 1: steps]), dtype=float))
        )
        cur = y[i + 1]
        for _ in range(backward.FP_MAX_ITER):
            new = tail + h * float(g(times[i], np.asarray([times[i]]), np.asarray([cur]))[0])
            if abs(new - cur) < backward.FP_TOL:
                cur = new
                break
            cur = new
        y[i] = cur
    return times, y


_GALLERY_FAMILIES = [  # the suite's ex3.3, ex3.4 and ex3.5 data
    pytest.param(lambda t: t, lambda t, s, yv: -yv, 2.0, id="ex3.3"),
    pytest.param(lambda t: 1.0, lambda t, s, yv: (t - 1.0) * yv, 3.0, id="ex3.4"),
    pytest.param(lambda t: 0.0, lambda t, s, yv: s - t - yv, 1.0, id="ex3.5"),
]


@pytest.mark.parametrize("psi, g, horizon", _GALLERY_FAMILIES)
def test_family_grid_drift_tail_keeps_the_np_sum_bits(psi, g, horizon):
    got = backward.solve_bsvie_family_deterministic(psi, g, horizon, 1024)
    want = _reference_family_deterministic(psi, g, horizon, 1024)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_family_grid_diagonal_buffers_keep_the_bits_of_a_writing_generator():
    # the diagonal step reuses two one-element buffers; a g that writes into
    # them must still see fresh inputs on every call
    def g(t, s, yv):
        out = s - t - yv
        if s.shape == (1,):
            s[...] = -1.0
            yv[...] = 99.0
        return out

    got = backward.solve_bsvie_family_deterministic(lambda t: 0.0, g, 1.0, 512)
    want = _reference_family_deterministic(lambda t: 0.0, g, 1.0, 512)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("name, horizon, steps", [
    ("horizon", -1.0, 8), ("horizon", 0.0, 8), ("horizon", math.nan, 8),
    ("horizon", math.inf, 8), ("horizon", "1.0", 8),
    ("steps", 1.0, 0), ("steps", 1.0, True), ("steps", 1.0, 8.0), ("steps", 1.0, "8"),
])
def test_family_grid_rejects_a_bad_horizon_or_step_count(name, horizon, steps):
    with pytest.raises(ValueError, match=name):
        backward.solve_bsvie_family_deterministic(
            lambda t: 1.0, lambda t, s, yv: -yv, horizon, steps
        )


def test_family_grid_accepts_numpy_integer_steps():
    a = backward.solve_bsvie_family_deterministic(lambda t: t, lambda t, s, yv: -yv, 1.0, 40)
    b = backward.solve_bsvie_family_deterministic(
        lambda t: t, lambda t, s, yv: -yv, 1.0, np.int32(40)
    )
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


_CONSTANT_GENERATORS = {  # one constant generator in three shapes
    "full": lambda t, s, yv: np.full(np.shape(s), -0.5),
    "scalar": lambda t, s, yv: -0.5,
    "one-element": lambda t, s, yv: np.array([-0.5]),
}


@pytest.mark.parametrize("steps", [1, 2, 8, 33])
def test_family_grid_sums_a_constant_generator_over_every_inner_time(steps):
    # step steps - 1 has an empty inner array; a (1,) value must still add nothing
    got = {name: backward.solve_bsvie_family_deterministic(lambda t: 1.0, g, 1.0, steps)
           for name, g in _CONSTANT_GENERATORS.items()}
    for name in ("scalar", "one-element"):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got[name], got["full"])), name
    if steps == 8:  # Y(0) = 1 - 0.5 * T, exact in binary at this step
        assert got["one-element"][1][0] == 0.5


# -- monotone successive scheme -----------------------------------------------------------


def make_picard_pair(rng, n, lat, stacked=False):
    leaves = 2**lat.depth
    b = np.diag(rng.uniform(-0.4, 0.4, n))
    eps = rng.uniform(0.1, 0.5, n)
    psibar = rng.standard_normal((lat.depth + 1, leaves, n))
    psi1 = psibar + rng.uniform(0.0, 0.5, (lat.depth + 1, leaves, n))
    gbar = lambda t, s, y, z, zeta, nd: np.arctan(y) + z @ b.T
    comp = backward.BsvieSpec(
        n, TerminalField(lat, n, psibar), generator=gbar, lip_y=1.0, lip_z=0.4,
        stacked_t=stacked,
    )
    upper = backward.BsvieSpec(
        n, TerminalField(lat, n, psi1),
        generator=lambda t, s, y, z, zeta, nd: gbar(t, s, y, z, zeta, nd) + eps,
        lip_y=1.0, lip_z=0.4, stacked_t=stacked,
    )
    return comp, upper


# Reference: the weighted norm and the Picard loop of picard_bsvie before their
# reductions skipped the np.mean / np.max wrappers, on the row-major family
# sweep (_reference_solve_bsvie_family, below).


def _reference_weighted_diff_norm(lattice, y_new, y_old, z_new, z_old, beta):
    h = lattice.h
    total = 0.0
    for i in range(lattice.depth + 1):
        w = h * math.exp(beta * lattice.times[i])
        dy = y_new[i] - y_old[i]
        total += w * float(np.mean(np.sum(dy * dy, axis=1)))
        for j in range(i, lattice.depth):
            dz = z_new.get(i, j) - z_old.get(i, j)
            total += w * h * float(np.mean(np.sum(dz * dz, axis=1)))
    return math.sqrt(total)


def _reference_picard_bsvie(upper, comparator, lat):
    beta = backward.default_beta(max(comparator.lip_y, comparator.lip_z), lat.horizon)
    norms, ratios, increases = [], [], []
    sol = _reference_solve_bsvie_family(upper, lat)
    for k in range(1, backward.PICARD_MAX_ITER + 1):
        new_sol = _reference_solve_bsvie_family(comparator, lat, frozen_y=sol.y.levels)
        new_y, prev_y = new_sol.y.levels, sol.y.levels
        norm = _reference_weighted_diff_norm(lat, new_y, prev_y, new_sol.z, sol.z, beta)
        norms.append(norm)
        if len(norms) > 1 and norms[-2] > 0:
            ratios.append(norm / norms[-2])
        increases.append(max(float(np.max(n_lv - p_lv)) for n_lv, p_lv in zip(new_y, prev_y)))
        sol = new_sol
        if k >= 2 and norm < backward.PICARD_TOL:
            return norms, ratios, increases, k - 1
    raise AssertionError("reference successive scheme did not converge")


def _random_two_param(rng, lat, n):
    z = TwoParamProcess(lat, n)
    for i in range(lat.depth + 1):
        for j in range(i, lat.depth):
            z.write_rows(j, i, i + 1)[0] = rng.standard_normal((2**j, n)) * rng.uniform(0.0, 3.0)
    return z


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 3), st.booleans())
def test_weighted_diff_norm_is_bitwise_equal_to_the_reference(seed, depth, n, same_y):
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(rng.uniform(0.5, 2.0), depth)
    y_old = [rng.standard_normal((2**k, n)) for k in range(depth + 1)]
    y_new = y_old if same_y else [lv + rng.standard_normal(lv.shape) * 1e-3 for lv in y_old]
    z_old, z_new = _random_two_param(rng, lat, n), _random_two_param(rng, lat, n)
    beta = backward.default_beta(rng.uniform(0.0, 2.0), lat.horizon)
    args = (lat, y_new, y_old, z_new, z_old, beta)
    assert backward._weighted_diff_norm(*args) == _reference_weighted_diff_norm(*args)


@pytest.mark.parametrize("seed, depth", [(11, 5), (12, 6), (13, 7), (14, 8)])
def test_picard_history_is_bitwise_equal_to_the_reference(seed, depth):
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(1.0, depth)
    comp, upper = make_picard_pair(rng, int(rng.integers(1, 3)), lat)
    _, hist = backward.picard_bsvie(upper, comp, lat)
    norms, ratios, increases, iterations = _reference_picard_bsvie(upper, comp, lat)
    assert hist.diff_norms == norms
    assert hist.ratios == ratios
    assert hist.max_increase == increases
    assert hist.iterations == iterations


@pytest.mark.parametrize("seed, depth, n", [(15, 5, 1), (16, 7, 2), (17, 8, 3)])
def test_stacked_t_picard_history_is_bitwise_equal_to_the_reference(seed, depth, n):
    # one drift call per level for the frozen-y sweeps, one per row in the reference
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(1.0, depth)
    comp, upper = make_picard_pair(rng, n, lat, stacked=True)
    _, hist = backward.picard_bsvie(upper, comp, lat)
    norms, ratios, increases, iterations = _reference_picard_bsvie(upper, comp, lat)
    assert (hist.diff_norms, hist.ratios, hist.max_increase) == (norms, ratios, increases)
    assert hist.iterations == iterations


def test_picard_y_free_comparator_converges_in_one_iteration():
    lat = BinaryLattice(1.0, 7)
    rng = np.random.default_rng(4)
    leaves = 2**7
    psibar = rng.standard_normal((8, leaves, 1))
    psi1 = psibar + 0.3
    comp = backward.BsvieSpec(
        1, TerminalField(lat, 1, psibar),
        generator=lambda t, s, y, z, zeta, nd: 0.3 * z + 0.0 * y, lip_z=0.3,
    )
    upper = backward.BsvieSpec(
        1, TerminalField(lat, 1, psi1),
        generator=lambda t, s, y, z, zeta, nd: 0.3 * z + 0.1 + 0.0 * y, lip_z=0.3,
    )
    sol, hist = backward.picard_bsvie(upper, comp, lat)
    assert hist.iterations == 1
    assert hist.diff_norms[-1] == 0.0


def test_picard_iterates_decrease_nodewise():
    rng = np.random.default_rng(5)
    lat = BinaryLattice(1.0, 8)
    comp, upper = make_picard_pair(rng, 1, lat)
    sol, hist = backward.picard_bsvie(upper, comp, lat)
    assert max(hist.max_increase) <= 1e-12
    # the limit solves the comparator equation
    direct = backward.solve_bsvie_family(comp, lat)
    worst = max(np.max(np.abs(sol.y.at(k) - direct.y.at(k))) for k in range(9))
    assert worst <= 1e-8


def test_picard_weighted_norm_contracts_at_default_rate():
    rng = np.random.default_rng(6)
    for trial in range(10):
        lat = BinaryLattice(1.0, 7)
        comp, upper = make_picard_pair(rng, int(rng.integers(1, 3)), lat)
        _, hist = backward.picard_bsvie(upper, comp, lat)
        assert hist.beta == backward.default_beta(1.0, 1.0)
        assert all(r < 1.0 for r in hist.ratios)


# -- M-solutions --------------------------------------------------------------------------


def test_msolution_degenerate_matches_family():
    lat = BinaryLattice(1.0, 8)
    rng = np.random.default_rng(7)
    psi = TerminalField(lat, 2, rng.standard_normal((9, 256, 2)))
    spec = backward.BsvieSpec(
        2, psi, generator=lambda t, s, y, z, zeta, nd: 0.3 * np.tanh(y),
        uses_z=False, uses_zeta=False, lip_y=0.3,
    )
    fam = backward.solve_bsvie_family(spec, lat)
    mso = backward.solve_bsvie_msolution(spec, lat)
    worst = max(np.max(np.abs(fam.y.at(k) - mso.y.at(k))) for k in range(9))
    assert worst <= 1e-12
    assert mso.msolution_residual <= 1e-12


def test_msolution_residual_small_for_zeta_coupled_equation():
    lat = BinaryLattice(1.0, 8)
    rng = np.random.default_rng(8)
    psi = TerminalField(lat, 1, rng.standard_normal((9, 256, 1)))
    spec = backward.BsvieSpec(
        1, psi,
        generator=lambda t, s, y, z, zeta, nd: 0.2 * np.tanh(y) + (1.5 - t) * zeta / (1 + s),
        uses_z=False, uses_zeta=True, lip_y=0.2,
    )
    sol = backward.solve_bsvie_msolution(spec, lat)
    assert sol.msolution_residual <= 1e-12
    # every sub-diagonal slice exists
    for i in range(1, 9):
        for j in range(i):
            assert sol.z.has(i, j)


def msolution_by_alternation(spec, lat):
    """Reference M-solution: N + 1 rounds of re-solve and representation.

    Round r re-solves the family with the sub-diagonal slices of round r - 1
    (zero in round 1) and then attaches the martingale representation of
    every Y(t_i).  Rows N..N-r+1 are exact after round r, so N + 1 rounds
    reach the fixed point.
    """
    N = lat.depth
    zeta = TwoParamProcess(lat, spec.dim)
    for _ in range(N + 1):
        sol = _reference_solve_bsvie_family(spec, lat, zeta=zeta)
        residual = 0.0
        for i in range(1, N + 1):
            yi = sol.y.at(i)
            mean, zs = martingale_representation(lat, yi, i)
            sol.z.set_below(i, zs)
            recon = reconstruct_from_representation(lat, mean, zs, i)
            residual = max(residual, float(np.max(np.abs(recon - yi))))
        zeta = sol.z
    return sol, residual


def zeta_coupled_spec(rng, form, N):
    """A zeta-coupled M-solution spec: structured (scenario sampler) or generator form."""
    n = int(rng.integers(1, 3))
    lat = BinaryLattice(1.0, N)
    if form == "structured":
        lo, hi = structured_pair(rng, n, lat, coupling="zeta")
        return (lo if rng.integers(2) else hi), lat
    psi = TerminalField(lat, n, rng.standard_normal((N + 1, 2**N, n)))
    c0 = rng.uniform(-1.0, 1.0, n)
    c1 = rng.uniform(-2.0, 2.0, n)

    def gen(t, s, y, z, zeta, nd):
        return 0.3 * np.tanh(y) + zeta * (c0 + c1 * t) / (1.0 + s)

    spec = backward.BsvieSpec(
        n, psi, generator=gen, uses_z=False, uses_zeta=True, lip_y=0.3,
    )
    return spec, lat


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["structured", "generator"]), st.integers(4, 9),
       st.integers(0, 2**32 - 1))
def test_one_pass_msolution_equals_alternation_bitwise(form, N, seed):
    spec, lat = zeta_coupled_spec(np.random.default_rng(seed), form, N)
    msol = backward.solve_bsvie_msolution(spec, lat)
    ref, ref_residual = msolution_by_alternation(spec, lat)
    for a, b in zip(msol.y.levels, ref.y.levels):
        assert np.array_equal(a, b)
    assert msol.z.pairs() == ref.z.pairs()
    for p in ref.z.pairs():
        assert np.array_equal(msol.z.get(*p), ref.z.get(*p))
    assert msol.msolution_residual == ref_residual


# Reference: BsvieSpec.drift when it accumulated from np.zeros_like(y).


def _reference_drift(spec, t, s, y, z, zeta, nodes):
    if spec.generator is not None:
        return np.asarray(spec.generator(t, s, y, z, zeta, nodes), dtype=float)
    out = np.zeros_like(y)
    if spec.a_kernel is not None:
        out = out + y @ np.asarray(spec.a_kernel(t, s), dtype=float).T
    if spec.h_fn is not None:
        out = out + np.asarray(spec.h_fn(t, s, y, nodes), dtype=float)
    if spec.b_coef is not None and z is not None:
        out = out + z @ np.asarray(spec.b_coef(s), dtype=float).T
    if spec.c_coef is not None and zeta is not None:
        out = out + zeta @ np.asarray(spec.c_coef(t), dtype=float).T
    return out


def _assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mask", range(16))
def test_structured_drift_is_byte_equal_to_the_reference(mask):
    """Every subset of A y, h_fn, B z, C zeta, on zero and random y.

    With y = 0 and negative coefficients a piece can carry -0.0 (h_fn returns
    -y, or h0 * 0.0 with h0 < 0); accumulating from zeros turns it into +0.0.
    The ``flat`` h_fn returns shape (n,) and is broadcast to y's shape.
    """
    has_a, has_h, has_b, has_c = (bool(mask >> k & 1) for k in range(4))
    lat = BinaryLattice(1.0, 4)
    nodes = LevelNodes(lat, 3)
    seen_negative_zero = False
    for seed, n, zero_y, flat_h, pass_z, pass_zeta in itertools.product(
        range(3), (1, 2, 3), (False, True), (False, True), (False, True), (False, True)
    ):
        rng = np.random.default_rng(seed)
        a0 = -rng.uniform(0.1, 1.0, (n, n)) if zero_y else rng.standard_normal((n, n))
        b0 = np.diag(-rng.uniform(0.1, 1.0, n)) if zero_y else rng.standard_normal((n, n))
        c0 = -rng.uniform(0.1, 1.0, (n, n)) if zero_y else rng.standard_normal((n, n))
        h0 = rng.standard_normal(n)
        spec = backward.BsvieSpec(
            n, TerminalField(lat, n, np.zeros((5, 16, n))),
            a_kernel=(lambda t, s: a0 * (1.0 + t * s)) if has_a else None,
            h_fn=(
                (lambda t, s, y, nd: h0 * t - 0.0) if flat_h else (lambda t, s, y, nd: -y)
            ) if has_h else None,
            b_coef=(lambda s: b0 * (1.0 + s)) if has_b else None,
            c_coef=(lambda t: c0 * (2.0 - t)) if has_c else None,
            uses_z=has_b, uses_zeta=has_c,
        )
        shape = (8, n)
        y = np.zeros(shape) if zero_y else rng.standard_normal(shape)
        z = (np.zeros(shape) if zero_y else rng.standard_normal(shape)) if pass_z else None
        zeta = (np.zeros(shape) if zero_y else rng.standard_normal(shape)) if pass_zeta else None
        for t, s in ((0.0, 0.0), (0.25, 0.75)):
            got = spec.drift(t, s, y, z, zeta, nodes)
            ref = _reference_drift(spec, t, s, y, z, zeta, nodes)
            _assert_same_bytes(got, ref)
            assert got.shape == y.shape
            if has_h and not has_a:
                first = np.asarray(spec.h_fn(t, s, y, nodes), dtype=float)
                seen_negative_zero |= bool(np.any((first == 0.0) & np.signbit(first)))
    # h_fn as the first piece carries -0.0 for zero y (matmul here yields +0.0 only)
    assert seen_negative_zero == (has_h and not has_a)


def test_generator_drift_is_byte_equal_to_the_reference():
    lat = BinaryLattice(1.0, 4)
    nodes = LevelNodes(lat, 2)
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        spec, _ = zeta_coupled_spec(np.random.default_rng(n), "generator", 4)
        comp, upper = make_picard_pair(rng, n, lat)
        for sp in (spec, comp, upper):
            m = sp.dim
            for y in (np.zeros((4, m)), -np.zeros((4, m)), rng.standard_normal((4, m))):
                z, zeta = rng.standard_normal((4, m)), rng.standard_normal((4, m))
                _assert_same_bytes(
                    sp.drift(0.25, 0.5, y, z, zeta, nodes),
                    _reference_drift(sp, 0.25, 0.5, y, z, zeta, nodes),
                )


def test_msolution_rejects_z_dependent_drift():
    lat = BinaryLattice(1.0, 4)
    psi = deterministic_psi(lat, lambda t: 1.0)
    spec = backward.BsvieSpec(
        1, psi, generator=lambda t, s, y, z, zeta, nd: z, uses_z=True, lip_z=1.0
    )
    with pytest.raises(ValueError):
        backward.solve_bsvie_msolution(spec, lat)


def test_bsvie_spec_flag_consistency():
    lat = BinaryLattice(1.0, 4)
    psi = deterministic_psi(lat, lambda t: 1.0)
    with pytest.raises(ValueError):
        backward.BsvieSpec(1, psi, a_kernel=lambda t, s: np.eye(1), uses_z=True)


def test_indicator_free_term_negative_time_integral():
    # sub-diagonal coupling with both time arguments; expected time integral of
    # Y matches the dual pairing with the forward solution and is negative
    T, depth = 1.0, 12
    lat = BinaryLattice(T, depth)
    fw = forward.solve_linear_fsvie(
        forward.FsvieSpec(
            1, lambda t: np.array([1.0]),
            a1_full=lambda t, s: np.array([[(2 * T - s) / (2 * T - t)]]),
        ),
        lat,
    )
    ind = np.empty((depth + 1, 2**depth, 1))
    for i in range(depth + 1):
        ind[i] = lat.lift((fw.at(i) < 0.0).astype(float), i, depth)
    spec = backward.BsvieSpec(
        1, TerminalField(lat, 1, ind),
        generator=lambda t, s, y, z, zeta, nd: ((2 * T - t) / (2 * T - s)) * zeta,
        uses_z=False, uses_zeta=True,
    )
    sol = backward.solve_bsvie_msolution(spec, lat)
    e_int_y = sum(lat.h * float(np.mean(sol.y.at(i))) for i in range(depth))
    e_int_dual = sum(
        lat.h * float(np.mean(np.where(fw.at(i) < 0.0, fw.at(i), 0.0))) for i in range(depth)
    )
    assert e_int_y < 0.0
    assert abs(e_int_y - e_int_dual) <= 1e-10
    assert sol.msolution_residual <= 1e-12


# -- Volterra duality ----------------------------------------------------------------------


def test_bsvie_duality_zero_weight():
    lat = BinaryLattice(1.0, 6)
    rng = np.random.default_rng(9)
    psi = TerminalField(lat, 1, rng.standard_normal((7, 64, 1)))
    spec = backward.BsvieSpec(
        1, psi, a_kernel=lambda t, s: np.array([[0.3]]),
        c_coef=lambda t: np.array([[0.2]]),
        uses_z=False, uses_zeta=True, lip_y=0.3,
    )
    eta = AdaptedProcess.from_function(lat, 1, lambda t, w: np.zeros_like(w))
    assert backward.bsvie_duality_check(spec, eta, lat) == 0.0


def test_bsvie_duality_decoupled():
    lat = BinaryLattice(1.0, 6)
    rng = np.random.default_rng(10)
    psi = TerminalField(lat, 1, rng.standard_normal((7, 64, 1)))
    spec = backward.BsvieSpec(
        1, psi, a_kernel=lambda t, s: np.zeros((1, 1)),
        c_coef=lambda t: np.zeros((1, 1)),
        uses_z=False, uses_zeta=True,
    )
    eta = AdaptedProcess.from_function(lat, 1, lambda t, w: (np.abs(w) + 0.5)[:, None])
    assert backward.bsvie_duality_check(spec, eta, lat) <= 1e-12


def test_bsvie_duality_random_diagonal_specs():
    rng = np.random.default_rng(11)
    n = 2
    lat = BinaryLattice(1.0, 8)
    for trial in range(10):
        a = np.diag(rng.uniform(-0.6, 0.6, n))
        c = np.diag(rng.uniform(-1.0, 1.0, n))
        psi = TerminalField(lat, n, rng.standard_normal((9, 256, n)))
        spec = backward.BsvieSpec(
            n, psi, a_kernel=lambda t, s, m=a: m, c_coef=lambda t, m=c: m,
            uses_z=False, uses_zeta=True, lip_y=0.6,
        )
        eta = AdaptedProcess.from_function(
            lat, n, lambda t, w: np.stack([np.abs(np.sin(w)), np.ones_like(w)], axis=1)
        )
        assert backward.bsvie_duality_check(spec, eta, lat) <= 1e-8


# Reference: the adjoint loop of bsvie_duality_check before lattice.volterra_sum.


def _reference_bsvie_duality(spec, eta, lat, msol):
    n, N = spec.dim, lat.depth
    h, sq = lat.h, lat.sqrt_h
    times = lat.times
    a = spec.a_kernel if spec.a_kernel is not None else (lambda t, s: np.zeros((n, n)))
    c = spec.c_coef
    eye = np.eye(n)
    xs, phis = [], []
    phi_acc = np.zeros((1, n))
    for j in range(N):
        if j > 0:
            prev = phi_acc + h * eta.at(j - 1)
            phi_acc = np.empty((2**j, n))
            phi_acc[0::2] = phi_acc[1::2] = prev
        phis.append(phi_acc.copy())
        rhs = phi_acc.copy()
        for i in range(j):
            term = xs[i] @ np.asarray(a(times[i], times[j]), dtype=float)
            rhs += h * lat.lift(term, i, j)
            if c is not None:
                cterm = xs[i] @ np.asarray(c(times[i]), dtype=float)
                rhs += lat.lift(cterm, i, j) * (sq * lat.step_signs(j, i))[:, None]
        a_jj = np.asarray(a(times[j], times[j]), dtype=float)
        xs.append(np.linalg.solve(eye - h * a_jj.T, rhs.T).T)
    lhs = rhs_pair = 0.0
    for j in range(N):
        x_leaf = lat.lift(xs[j], j, N)
        lhs += h * float(np.mean(np.sum(spec.psi.slice(j) * x_leaf, axis=1)))
        rhs_pair += h * float(np.mean(np.sum(phis[j] * msol.y.at(j), axis=1)))
    return abs(lhs - rhs_pair)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 9), st.booleans(),
       st.booleans())
def test_bsvie_duality_is_bitwise_equal_to_the_reference(seed, n, depth, a_on, c_on):
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(1.0, depth)
    m0, m1 = rng.uniform(-0.6, 0.6, (n, n)), rng.uniform(-0.6, 0.6, (n, n))
    c0, c1 = np.diag(rng.uniform(-1.0, 1.0, n)), np.diag(rng.uniform(-1.0, 1.0, n))
    psi = TerminalField(lat, n, rng.standard_normal((depth + 1, 2**depth, n)))
    spec = backward.BsvieSpec(
        n, psi,
        a_kernel=(lambda t, s: m0 + t * s * m1) if a_on else None,
        c_coef=(lambda t: c0 + t * c1) if c_on else None,
        uses_z=False, uses_zeta=c_on, lip_y=1.2,
    )
    eta = AdaptedProcess.from_function(
        lat, n, lambda t, w: np.cos(np.outer(w + t, np.arange(1, n + 1)))
    )
    msol = backward.solve_bsvie_msolution(spec, lat)
    assert backward.bsvie_duality_check(spec, eta, lat) == _reference_bsvie_duality(
        spec, eta, lat, msol
    )


# -- weak comparison functional --------------------------------------------------------------


def test_weak_functional_of_constant_process():
    lat = BinaryLattice(1.0, 6)
    f = backward.weak_comparison_functional(
        AdaptedProcess.from_function(lat, 1, lambda t, w: np.ones_like(w)), lat
    )
    for k in range(7):
        assert np.max(np.abs(f.at(k) - (1.0 - lat.times[k]))) <= 1e-14


def test_weak_functional_of_brownian_motion_vanishes_at_root():
    lat = BinaryLattice(1.0, 8)
    w = AdaptedProcess.from_function(lat, 1, lambda t, w: w)
    f = backward.weak_comparison_functional(w, lat)
    assert abs(f.at(0)[0, 0]) <= 1e-13


def test_weak_functional_matches_exhaustive_sum():
    lat = BinaryLattice(1.0, 6)
    rng = np.random.default_rng(12)
    y = AdaptedProcess(lat, 1, [rng.standard_normal((2**k, 1)) for k in range(7)])
    f = backward.weak_comparison_functional(y, lat)
    for k in (0, 2, 4):
        # oracle: lift everything to the leaves and average subtree sums
        acc = np.zeros((2**6, 1))
        for j in range(k, 6):
            acc += lat.h * lat.lift(y.at(j), j, 6)
        per_node = acc.reshape(2**k, 2 ** (6 - k)).mean(axis=1)
        assert np.max(np.abs(f.at(k)[:, 0] - per_node)) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weak_functional_names_the_first_non_finite_node(bad):
    lat = BinaryLattice(1.0, 5)
    levels = [np.ones((2**k, 2)) for k in range(6)]
    levels[3][5, 1] = bad
    with pytest.raises(DivergenceError, match=r"weak comparison functional: .* level 3, node 5$"):
        backward.weak_comparison_functional(AdaptedProcess(lat, 2, levels), lat)
    levels[3][5, 1] = 1.0
    levels[5][0, 0] = bad  # the horizon slice carries no time mass
    backward.weak_comparison_functional(AdaptedProcess(lat, 2, levels), lat)


# -- step-function solver ---------------------------------------------------------------------


def _step_spec(lat, n, partition, mats, psis, b=None):
    """The linear spec with kernel ``mats[k]`` and free term ``psis[k]`` on the k-th
    interval of ``partition`` (t = 0 joins the first) and z-coefficient ``b``."""
    piece = np.searchsorted(partition[1:], np.arange(lat.depth + 1))
    return backward.BsvieSpec(
        n, TerminalField(lat, n, np.stack([psis[k] for k in piece])),
        a_kernel=None if mats is None else (
            lambda t, s: mats[piece[min(int(round(t / lat.h)), lat.depth)]]
        ),
        b_coef=None if b is None else (lambda s: b), uses_z=b is not None,
    )


def _stepfn_slate_met(spec, lat):
    conditions = check_hypotheses(spec, lat).conditions
    return all(
        conditions[c].status == SATISFIED
        for c in ("metzler_y", "diagonal_z", "kernel_t_monotone", "free_term_monotone")
    )


def _runs(spec, lat):
    return [(lo, hi) for lo, hi, _ in backward._step_pieces(spec, lat)]


def test_stepfn_single_interval_is_one_bsde():
    rng = np.random.default_rng(13)
    n, N = 2, 8
    lat = BinaryLattice(1.0, N)
    a = random_metzler(rng, n, 0.4)
    b = np.diag(rng.uniform(-0.5, 0.5, n))
    psi = rng.uniform(0.0, 1.0, (2**N, n))
    spec = _step_spec(lat, n, [0, N], [a], [psi], b)
    sol = backward.solve_linear_bsvie_stepfn(spec, lat)
    bsde = backward.solve_bsde(
        backward.BsdeSpec(n, psi, a=lambda t: -a, b=lambda t: -b), lat
    )
    worst = max(np.max(np.abs(sol.y.at(k) - bsde.y[k])) for k in range(N + 1))
    assert worst <= 1e-12
    assert _stepfn_slate_met(spec, lat)


def test_stepfn_two_intervals_zero_kernel_closed_form():
    # with A = 0 and B = 0 the solution is the conditional expectation of the
    # active free-term slice: exactly nonnegative for ordered nonnegative data
    rng = np.random.default_rng(14)
    N = 6
    lat = BinaryLattice(1.0, N)
    psi2 = rng.uniform(0.0, 1.0, (2**N, 1))
    psi1 = psi2 + rng.uniform(0.0, 1.0, (2**N, 1))
    sol = backward.solve_linear_bsvie_stepfn(_step_spec(lat, 1, [0, 3, N], None, [psi1, psi2]), lat)
    for i in range(N + 1):
        active = psi1 if i <= 3 else psi2
        assert np.max(np.abs(sol.y.at(i) - condition_to(active, N, i))) <= 1e-13
    assert sol.y.min() >= 0.0


def test_stepfn_exact_positivity_and_family_agreement():
    rng = np.random.default_rng(15)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(5, 10))
        lat = BinaryLattice(1.0, N)
        leaves = 2**N
        cuts = sorted(rng.choice(np.arange(1, N), size=2, replace=False).tolist())
        partition = [0] + cuts + [N]
        mats = [random_metzler(rng, n, 0.4)]
        for _ in range(2):
            mats.insert(0, mats[0] + rng.uniform(0.0, 0.2, (n, n)))
        b = np.diag(rng.uniform(-0.5, 0.5, n))
        psis = [rng.uniform(0.0, 1.0, (leaves, n))]
        for _ in range(2):
            psis.insert(0, psis[0] + rng.uniform(0.0, 1.0, (leaves, n)))
        spec = _step_spec(lat, n, partition, mats, psis, b)
        sol = backward.solve_linear_bsvie_stepfn(spec, lat)
        assert _stepfn_slate_met(spec, lat)
        assert sol.y.min() >= 0.0
        fam = backward.solve_bsvie_family(spec, lat)
        worst = max(np.max(np.abs(fam.y.at(i) - sol.y.at(i))) for i in range(N + 1))
        assert worst <= 1e-10


def _increasing_kernel_case():
    # frozen rising kernel on a deep lattice: piece k >= 1 is grid time k + 1 alone
    T, N = 3.0, 16
    lat = BinaryLattice(T, N)
    mats = [np.array([[lat.times[k] - 1.0]]) for k in range(N)]
    return lat, list(range(N + 1)), mats, [np.ones((2**N, 1))] * N, None


def test_stepfn_increasing_kernel_counterexample_runs_without_raising():
    # the slate reports the violation and the solution dips negative at the
    # root for a long horizon
    lat, partition, mats, psis, b = _increasing_kernel_case()
    spec = _step_spec(lat, 1, partition, mats, psis, b)
    sol = backward.solve_linear_bsvie_stepfn(spec, lat)
    assert check_hypotheses(spec, lat).conditions["kernel_t_monotone"].status == VIOLATED
    assert not _stepfn_slate_met(spec, lat)
    assert sol.y.at(0)[0, 0] < 0.0


@pytest.mark.parametrize("kw", [
    dict(generator=lambda t, s, y, z, zeta, nodes: y, uses_z=False),
    dict(h_fn=lambda t, s, y: np.tanh(y), uses_z=False),
    dict(c_coef=lambda t: np.eye(1), uses_z=False, uses_zeta=True),
    dict(uses_zeta=True),
], ids=["generator", "h_fn", "c_coef", "uses_zeta"])
def test_stepfn_refuses_a_spec_outside_its_linear_form(kw):
    lat = BinaryLattice(1.0, 3)
    spec = backward.BsvieSpec(1, TerminalField(lat, 1, np.ones((4, 8, 1))), **kw)
    with pytest.raises(ValueError, match=r"^the step-function solver needs the linear form"):
        backward.solve_linear_bsvie_stepfn(spec, lat)


def test_stepfn_scan_refuses_nothing():
    # a kernel and free term that move at every grid time make one-row runs,
    # and the nested induction still solves the equation the family sweep solves
    rng = np.random.default_rng(16)
    n, N = 2, 6
    lat = BinaryLattice(1.0, N)
    m0, m1 = random_metzler(rng, n, 0.4), rng.uniform(-0.5, 0.5, (n, n))
    b = rng.uniform(-0.5, 0.5, (n, n))
    spec = backward.BsvieSpec(
        n, TerminalField(lat, n, rng.standard_normal((N + 1, 2**N, n))),
        a_kernel=lambda t, s: m0 + t * s * m1, b_coef=lambda s: b,
    )
    assert _runs(spec, lat) == [(i, i) for i in range(N + 1)]
    sol = backward.solve_linear_bsvie_stepfn(spec, lat)
    fam = backward.solve_bsvie_family(spec, lat)
    assert max(np.max(np.abs(f - y)) for f, y in zip(fam.y.levels, sol.y.levels)) <= 1e-12
    for i, j in fam.z.pairs():
        if j >= i:
            assert np.max(np.abs(fam.z.get(i, j) - sol.z.get(i, j))) <= 1e-12


def test_stepfn_scan_merges_adjacent_pieces_only_when_their_data_are_equal():
    rng = np.random.default_rng(17)
    n, N = 2, 6
    lat = BinaryLattice(1.0, N)
    a = random_metzler(rng, n, 0.4)
    psi = rng.uniform(0.0, 1.0, (2**N, n))
    b = np.diag(rng.uniform(-0.5, 0.5, n))
    mats, psis = [a + 0.1, a, a.copy()], [psi + 1.0, psi, psi.copy()]
    spec = _step_spec(lat, n, [0, 2, 4, N], mats, psis, b)
    assert _runs(spec, lat) == [(0, 2), (3, N)]
    _assert_same_family_solution(
        backward.solve_linear_bsvie_stepfn(spec, lat),
        _reference_solve_stepfn(_ReferenceStepFnData(
            n, [0, 2, N], [lambda s, m=m: m for m in mats[:2]], psis[:2], b=lambda s: b
        ), lat),
    )
    # one ulp apart in one free-term leaf or in one kernel entry: no merge
    psis[2] = psi.copy()
    psis[2][5, 1] = np.nextafter(psis[2][5, 1], 2.0)
    assert _runs(_step_spec(lat, n, [0, 2, 4, N], mats, psis, b), lat) == [(0, 2), (3, 4), (5, N)]
    psis[2], mats[2] = psi, a.copy()
    mats[2][0, 1] = np.nextafter(mats[2][0, 1], 2.0)
    assert _runs(_step_spec(lat, n, [0, 2, 4, N], mats, psis, b), lat) == [(0, 2), (3, 4), (5, N)]
    # a kernel that differs only at s < t, where no row reads it, is one run;
    # one where each row meets the previous at its own s = t but not at later
    # s makes one-row runs, up to the last row, which reads only s = T
    flat_psi = TerminalField(lat, n, np.stack([psi] * (N + 1)))
    below = backward.BsvieSpec(n, flat_psi, a_kernel=lambda t, s: a if s >= t else a + t,
                               b_coef=lambda s: b)
    assert _runs(below, lat) == [(0, N)]
    above = backward.BsvieSpec(
        n, flat_psi, a_kernel=lambda t, s: a + max(round((s - t) / lat.h) - 1, 0),
        b_coef=lambda s: b,
    )
    assert _runs(above, lat) == [(i, i) for i in range(N - 1)] + [(N - 1, N)]


# -- the step-function solver against the partition-list reference -----------------------------
#
# Reference: the step-function data and solver as they were when the caller
# passed the partition and the per-interval kernels and free terms, kept
# verbatim apart from names (and without the data's hypothesis checker), with
# the random-family draw that fed them.


@dataclasses.dataclass
class _ReferenceStepFnData:
    """Piecewise-constant-in-t linear backward Volterra data.

    The kernel A(t, s) equals ``a_pieces[k](s)`` for t in the k-th partition
    interval (half-open to the left, so t = 0 belongs to the first piece), the
    free term equals the leaf field ``psi_pieces[k]`` there, and B(s) is the
    shared z-coefficient.  ``partition`` lists grid indices 0 = p_0 < ... <
    p_M = N.
    """

    dim: int
    partition: list[int]
    a_pieces: list
    psi_pieces: list[np.ndarray]
    b: object = None

    def n_pieces(self) -> int:
        return len(self.partition) - 1

    def piece_of(self, i: int) -> int:
        """0-based piece index of grid time i (i = 0 joins the first piece)."""
        for k in range(self.n_pieces()):
            if i <= self.partition[k + 1]:
                return k
        raise ValueError("grid index outside the partition")

    def validate(self, lattice: BinaryLattice) -> list[np.ndarray]:
        """The free-term pieces as ``(2**N, dim)`` leaf fields (given so, or ``(2**N,)`` for dim 1).

        ValueError when the partition, the piece counts or a piece's shape do not fit ``lattice``.
        """
        p = self.partition
        if p[0] != 0 or p[-1] != lattice.depth or any(b <= a for a, b in zip(p, p[1:])):
            raise ValueError("partition must be increasing grid indices from 0 to N")
        if len(self.a_pieces) != self.n_pieces() or len(self.psi_pieces) != self.n_pieces():
            raise ValueError("need one kernel and one free-term slice per interval")
        leaves = 2**lattice.depth
        accepted = [(leaves, self.dim)] + ([(leaves,)] if self.dim == 1 else [])
        for k, piece in enumerate(self.psi_pieces):
            if np.shape(piece) not in accepted:
                raise ValueError(f"free-term piece {k} of shape {np.shape(piece)} is not "
                                 + " or ".join(map(str, accepted)))
        return [np.asarray(p, dtype=float).reshape(leaves, self.dim) for p in self.psi_pieces]


def _reference_solve_stepfn(data: _ReferenceStepFnData, lattice: BinaryLattice):
    psis = data.validate(lattice)
    n = data.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    times = lattice.times
    M = data.n_pieces()
    b = data.b if data.b is not None else (lambda s: np.zeros((n, n)))

    y_levels: list[np.ndarray | None] = [None] * (N + 1)
    z = TwoParamProcess(lattice, n)
    # lam[j] holds the current interval's sweep value at level j (j >= lower end)
    lam: list[np.ndarray | None] = [None] * (N + 1)
    z_rows: list[np.ndarray | None] = [None] * N

    for k in range(M - 1, -1, -1):
        hi = data.partition[k + 1]
        lo = data.partition[k] + 1 if k > 0 else 0
        if k == M - 1:
            lam[N] = np.array(psis[k], order="F")
            sweep_from = N - 1
        else:
            # correction sweep above the right endpoint: the previous
            # interval's values are defined on levels hi+1..N only
            d_cur = np.subtract(psis[k], psis[k + 1], out=node_empty((2**N, n)))
            new_lam: list[np.ndarray | None] = [None] * (N + 1)
            new_lam[N] = lam[N] + d_cur
            new_rows: list[np.ndarray | None] = [None] * N
            for j in range(N - 1, hi, -1):
                up, down = split_children(d_cur)
                dz = children_slope(up, down, sq)
                da = np.asarray(data.a_pieces[k](times[j]), dtype=float) - np.asarray(
                    data.a_pieces[k + 1](times[j]), dtype=float
                )
                d_cur = backward._blend(up, down, np.asarray(b(times[j]), dtype=float), sq)
                d_cur = d_cur + h * (da @ y_levels[j].mT).mT
                new_lam[j] = lam[j] + d_cur
                new_rows[j] = z_rows[j] + dz
            lam, z_rows = new_lam, new_rows
            sweep_from = hi
        for j in range(sweep_from, lo - 1, -1):
            up, down = split_children(lam[j + 1])
            z_rows[j] = children_slope(up, down, sq)
            lam[j] = backward._linear_step(
                up, down, np.asarray(data.a_pieces[k](times[j]), dtype=float),
                np.asarray(b(times[j]), dtype=float), h, sq,
            )
        y_levels[lo:hi + 1] = lam[lo:hi + 1]
        for j in range(lo, N):
            # Z(t_i, s_j) is the same for every row i of the interval
            z.write_rows(j, lo, min(hi, j) + 1)[...] = z_rows[j]

    return backward.BsvieSolution(AdaptedProcess(lattice, n, y_levels), z, None)


def _reference_stepfn_trial(rng, lat: BinaryLattice):
    n = int(rng.integers(1, 4))
    N = lat.depth
    leaves = 2**N
    n_pieces = int(rng.integers(2, 5))
    cuts = sorted(rng.choice(np.arange(1, N), size=n_pieces - 1, replace=False).tolist())
    partition = [0] + cuts + [N]
    last = scenarios._scaled(scenarios._random_metzler(rng, n, 0.5), 0.4, lat.h)
    mats = [last]
    for _ in range(n_pieces - 1):
        mats.insert(0, scenarios._scaled(mats[0] + rng.uniform(0.0, 0.3, (n, n)), 0.9, lat.h))
    b = scenarios._scaled(scenarios._random_diagonal(rng, n, 0.8), 0.45, lat.sqrt_h)
    psis = [rng.uniform(0.0, 1.0, (leaves, n))]
    for _ in range(n_pieces - 1):
        psis.insert(0, psis[0] + rng.uniform(0.0, 1.0, (leaves, n)))
    data = _ReferenceStepFnData(
        n, partition, [lambda s, m=m: m for m in mats], psis, b=lambda s, m=b: m
    )
    return data, mats, psis, b


@pytest.mark.parametrize("seed", [20246, 20557, 7, 8])
def test_stepfn_random_family_is_bitwise_equal_to_the_reference(seed):
    # the thm3.6-random draws at its default depth (seeds 20246 and 20557 are
    # the golden reports'), 50 per seed
    rng = np.random.default_rng(seed)
    for _ in range(50):
        lat = BinaryLattice(1.0, int(rng.integers(5, 11)))
        ref_rng = copy.deepcopy(rng)
        data, mats, psis, b = _reference_stepfn_trial(ref_rng, lat)
        spec, spec_mats, spec_b = scenarios._stepfn_trial(rng, lat)
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws
        assert all(np.array_equal(m, r) for m, r in zip(spec_mats, mats, strict=True))
        assert np.array_equal(spec_b, b)
        p = data.partition
        assert _runs(spec, lat) == [(p[k] + 1 if k else 0, p[k + 1]) for k in range(len(p) - 1)]
        _assert_same_family_solution(
            backward.solve_linear_bsvie_stepfn(spec, lat), _reference_solve_stepfn(data, lat)
        )


def _single_interval_case():
    rng = np.random.default_rng(13)
    lat = BinaryLattice(1.0, 8)
    return (lat, [0, 8], [random_metzler(rng, 2, 0.4)], [rng.uniform(0.0, 1.0, (256, 2))],
            np.diag(rng.uniform(-0.5, 0.5, 2)))


def _zero_kernel_case():
    rng = np.random.default_rng(14)
    lat = BinaryLattice(1.0, 6)
    psi2 = rng.uniform(0.0, 1.0, (64, 2))
    return lat, [0, 3, 6], None, [psi2 + rng.uniform(0.0, 1.0, (64, 2)), psi2], None


@pytest.mark.parametrize(
    "case", [_single_interval_case, _zero_kernel_case, _increasing_kernel_case],
    ids=["single-interval", "zero-kernel", "increasing-kernel-depth-16"],
)
def test_stepfn_named_cases_are_bitwise_equal_to_the_reference(case):
    lat, partition, mats, psis, b = case()
    n = psis[0].shape[1]
    pieces = [np.zeros((n, n))] * len(psis) if mats is None else mats
    data = _ReferenceStepFnData(n, partition, [lambda s, m=m: m for m in pieces], psis,
                                b=None if b is None else (lambda s: b))
    spec = _step_spec(lat, n, partition, mats, psis, b)
    _assert_same_family_solution(
        backward.solve_linear_bsvie_stepfn(spec, lat), _reference_solve_stepfn(data, lat)
    )


# -- the level-major family sweep against the row-major reference ----------------------
#
# Reference: solve_bsvie_family as it swept one row t_i at a time, with a
# per-(row, level) zeta lookup and a checked replay of a failed row, kept
# verbatim from before the level-major sweep.


def _reference_zeta_slice(z: TwoParamProcess | None, lattice: BinaryLattice, i: int, j: int,
                          dim: int) -> np.ndarray:
    """Z(s,t) argument at (t,s) = (t_i, t_j): the (j, i) slice lifted to level j."""
    if j == i or z is None or not z.has(j, i):
        return np.zeros((2**j, dim))
    return lattice.lift(z.get(j, i), i, j)


def _reference_solve_bsvie_family(
    spec: backward.BsvieSpec,
    lattice: BinaryLattice,
    zeta: TwoParamProcess | None = None,
    frozen_y: Sequence[np.ndarray] | None = None,
    _msolution: bool = False,
) -> backward.BsvieSolution:
    """One backward sweep per grid time; exact on the lattice.

    For each t_i the sweep runs the BSDE recursion from the horizon down to
    level i with terminal psi(t_i); drift evaluations at inner times t_j > t_i
    read the already-solved values Y(t_j), and the diagonal step is implicit
    in y.  ``frozen_y`` replaces the y-argument everywhere (used by the
    monotone successive scheme); ``zeta`` supplies given sub-diagonal Z
    slices.  ``_msolution`` (set by :func:`solve_bsvie_msolution`) attaches
    the martingale representation of each finished row Y(t_i) as the slices
    Z(t_i, s_j), j < i, which later rows read as their ``zeta``.

    A non-finite value raises DivergenceError naming the level and node where
    it arose.  Explicit steps are not checked as they run; when a row fails
    (at its diagonal step, or at the end of a frozen-y row) it is replayed
    with a finiteness check after each explicit step, so converging runs do
    no extra work.
    """
    n = spec.dim
    N = lattice.depth
    h, sq = lattice.h, lattice.sqrt_h
    y_levels: list[np.ndarray | None] = [None] * (N + 1)
    z = TwoParamProcess(lattice, n)
    residuals: list[float] = []
    if _msolution:
        zeta = z
    if spec.uses_zeta and zeta is None:
        raise ValueError("generator depends on Z(s,t): solve as an M-solution")
    level_nodes = [LevelNodes(lattice, j) for j in range(N)]
    y_args = y_levels if frozen_y is None else frozen_y
    what = "explicit step" if frozen_y is None else "frozen-y sweep"

    def sweep_row(i: int, checked: bool) -> np.ndarray:
        # ``checked`` is the failure path only: raise at the first explicit step
        # with a non-finite value, and stop before the implicit diagonal step
        lam = spec.psi.slice(i).copy()
        t_i = lattice.times[i]
        for j in range(N - 1, i - 1, -1):
            up, down = split_children(lam)
            e = 0.5 * (up + down)
            mu = (up - down) / (2.0 * sq)
            if not checked:  # the replay of a failed row stores nothing
                z.write_rows(j, i, i + 1)[0] = mu
            t_j = lattice.times[j]
            nodes = level_nodes[j]
            zeta_ij = _reference_zeta_slice(zeta, lattice, i, j, n) if spec.uses_zeta else None
            z_arg = mu if spec.uses_z else None
            if j > i or frozen_y is not None:
                lam = e + h * spec.drift(t_i, t_j, y_args[j], z_arg, zeta_ij, nodes)
                if checked:
                    _check_finite(lam, f"{what} of row {i}")
            elif checked:
                break
            elif spec.is_linear_y:
                a_jj = (
                    np.asarray(spec.a_kernel(t_i, t_j), dtype=float)
                    if spec.a_kernel is not None
                    else np.zeros((n, n))
                )
                b_jj = None if spec.b_coef is None else np.asarray(spec.b_coef(t_j), dtype=float)
                c_ti = None if spec.c_coef is None else np.asarray(spec.c_coef(t_i), dtype=float)
                # (I - h A(t_i,t_i)) y = E[next] + h B Z + h C zeta
                lam = _reference_linear_step(up, down, a_jj, b_jj, h, sq, 1.0,
                                             None if c_ti is None else h * (zeta_ij @ c_ti.T))
            else:
                lam = backward._fixed_point(
                    lambda cur: e + h * spec.drift(t_i, t_j, cur, z_arg, zeta_ij, nodes),
                    e, "diagonal y-step",
                )
        return lam

    for i in range(N, -1, -1):
        try:
            lam = sweep_row(i, False)
            if frozen_y is not None:
                # only explicit steps ran, so nothing else has looked at this row
                _check_finite(lam, what)
        except DivergenceError:
            # a NaN from an explicit step surfaces only at the row's end: replay
            # the row checked, which names the level where it arose
            sweep_row(i, True)
            raise
        y_levels[i] = lam
        if _msolution and i > 0:
            mean, zs = martingale_representation(lattice, lam, i)
            z.set_below(i, zs)
            recon = reconstruct_from_representation(lattice, mean, zs, i)
            residuals.append(float(np.max(np.abs(recon - lam))))
    y = AdaptedProcess(lattice, n, y_levels)
    # np.max, unlike the builtin, propagates a NaN residual
    return backward.BsvieSolution(y, z, float(np.max(residuals)) if _msolution else None)


def _small(rng, n, scale):
    # h * |coefficient| stays below ~0.3 even at depth 1, so every diagonal
    # fixed point converges well inside FP_MAX_ITER
    return rng.uniform(-scale, scale, (n, n)) / n


_FAMILY_KINDS = [
    "generator", "structured", "frozen-y",
    "msolution-linear", "msolution-generator", "msolution-structured",
]


def _family_case(rng, kind, N, n, stacked):
    """(spec, lattice, solve keywords) for one kind of family solve.

    Every callable takes a scalar t and a (rows, 1, 1) t alike, so each case
    runs with and without ``stacked_t``.
    """
    lat = BinaryLattice(1.0, N)
    psi = TerminalField(lat, n, rng.standard_normal((N + 1, 2**N, n)))
    p, m1 = _small(rng, n, 0.3), _small(rng, n, 0.3)
    b = np.diag(rng.uniform(-0.5, 0.5, n))
    kappa = rng.uniform(0.0, 0.1, n)
    d = rng.uniform(-0.3, 0.3, n)
    c0, c1 = rng.uniform(-1.0, 1.0, n), rng.uniform(-2.0, 2.0, n)
    kw = {}
    if kind in ("generator", "frozen-y"):
        def gen(t, s, y, z, zeta, nd):
            return y @ p.T + z @ b.T + kappa * np.tanh(y) + (1.0 - t) * s * d

        spec = backward.BsvieSpec(n, psi, generator=gen, lip_y=1.0, lip_z=1.0)
    elif kind == "structured":
        mask = int(rng.integers(1, 8))
        spec = backward.BsvieSpec(
            n, psi,
            a_kernel=(lambda t, s: p + (1.0 - t) * s * m1) if mask & 1 else None,
            h_fn=(lambda t, s, y, nd: kappa * np.tanh(y) - (1.0 - t) * d) if mask & 2 else None,
            b_coef=(lambda s: b * (1.0 + s)) if mask & 4 else None,
            uses_z=bool(mask & 4), lip_y=1.0, lip_z=1.0,
        )
    elif kind == "msolution-generator":
        def gen(t, s, y, z, zeta, nd):
            return 0.3 * np.tanh(y) + zeta * (c0 + c1 * t) / (1.0 + s)

        spec = backward.BsvieSpec(n, psi, generator=gen, uses_z=False, uses_zeta=True,
                                  lip_y=0.3)
    elif kind == "msolution-linear":
        spec = backward.BsvieSpec(
            n, psi, a_kernel=lambda t, s: p + (1.0 - t) * s * m1,
            c_coef=lambda t: _stacked_diag(c0 + c1 * t), uses_z=False, uses_zeta=True,
        )
    else:
        lo, hi = structured_pair(rng, n, lat, coupling="zeta")
        spec = lo if rng.integers(2) else hi
    if kind == "frozen-y":
        kw["frozen_y"] = [rng.standard_normal((2**k, n)) for k in range(N + 1)]
    if kind.startswith("msolution"):
        kw["_msolution"] = True
    return dataclasses.replace(spec, stacked_t=stacked), lat, kw


def _assert_same_family_solution(got, ref):
    for a, b in zip(got.y.levels, ref.y.levels, strict=True):
        _assert_same_bytes(a, b)
    assert got.z.pairs() == ref.z.pairs()
    for pair in ref.z.pairs():
        _assert_same_bytes(got.z.get(*pair), ref.z.get(*pair))
    assert got.msolution_residual == ref.msolution_residual


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FAMILY_KINDS), st.integers(1, 9), st.integers(1, 3), st.booleans(),
       st.sampled_from([None, 1, 2, 3]), st.integers(0, 2**32 - 1))
def test_level_major_family_is_bitwise_equal_to_the_row_major_reference(
    kind, depth, n, stacked, block_rows, seed
):
    # block_rows None keeps _ROW_BLOCK_ELEMS (one block up to depth 9, dim 3);
    # 1, 2 or 3 sweeps the rows in blocks of that many, as deep solves do
    spec, lat, kw = _family_case(np.random.default_rng(seed), kind, depth, n, stacked)
    elems = backward._ROW_BLOCK_ELEMS if block_rows is None else block_rows * 2**depth * spec.dim
    with mock.patch.object(backward, "_ROW_BLOCK_ELEMS", elems):
        if kw.get("_msolution"):
            got = backward.solve_bsvie_msolution(spec, lat)
        else:
            got = backward.solve_bsvie_family(spec, lat, **kw)
    _assert_same_family_solution(got, _reference_solve_bsvie_family(spec, lat, **kw))


def test_family_blocks_are_one_for_the_suite_and_one_row_at_depth_16():
    rows = lambda depth, dim: max(1, backward._ROW_BLOCK_ELEMS // (2**depth * dim))
    assert rows(10, 3) >= 11  # every suite solve (depth <= 10, dim <= 3) is one block
    assert rows(16, 2) == 1   # a depth-16 solve keeps one row's scratch


@pytest.mark.parametrize("msolution", [False, True], ids=["family", "msolution"])
def test_z_levels_are_one_array_each_when_the_sweep_goes_row_by_row(msolution):
    N = 6
    lat = BinaryLattice(1.0, N)
    spec = backward.BsvieSpec(1, deterministic_psi(lat, lambda s: 1.0 + s),
                              generator=lambda t, s, y, z, zeta, nd: 0.1 * y, uses_z=False)
    solve = backward.solve_bsvie_msolution if msolution else backward.solve_bsvie_family
    with mock.patch.object(backward, "_ROW_BLOCK_ELEMS", 2**N):  # one row per block
        sol = solve(spec, lat)
    for j in range(N):
        rows = sol.z.rows(j, 0, j + 1)
        assert all(np.shares_memory(rows, sol.z.get(i, j)) for i in range(j + 1))
    if msolution:
        # below the diagonal each row keeps its own representation: no buffer is
        # shared between rows i != i', nor with the upper arrays
        buffers = {}
        for i in range(1, N + 1):
            _, zs = martingale_representation(lat, sol.y.at(i), i)
            assert [sol.z.get(i, j).tobytes() for j in range(i)] == [v.tobytes() for v in zs]
            buffers[i] = {id(_buffer(sol.z.get(i, j))) for j in range(i)}
        assert all(not buffers[i] & buffers[i2] for i in buffers for i2 in buffers if i != i2)
        upper = {id(_buffer(sol.z.rows(j, 0, j + 1))) for j in range(N)}
        assert not upper & set().union(*buffers.values())


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``a``."""
    while a.base is not None:
        a = a.base
    return a


def test_msolution_sweep_takes_no_frozen_y():
    lat = BinaryLattice(1.0, 3)
    spec = backward.BsvieSpec(1, deterministic_psi(lat, lambda t: 1.0),
                              generator=lambda t, s, y, z, zeta, nd: 0.1 * y, uses_z=False)
    frozen = [np.ones((2**k, 1)) for k in range(4)]
    with pytest.raises(ValueError, match="frozen"):
        backward.solve_bsvie_family(spec, lat, frozen_y=frozen, _msolution=True)


def _nan_generator(lat, row, level, node):
    """A generator, stacked-t capable, that is NaN only at (t_row, s_level) on one node.

    Returns it with the list of the t shapes it was called with.
    """
    shapes = []

    def gen(t, s, y, z, zeta, nd):
        t = np.asarray(t)
        shapes.append(t.shape)
        bad = (t == lat.times[row]) & (s == lat.times[level]) & (
            np.arange(y.shape[0])[:, None] == node
        )
        return np.where(bad, np.nan, 0.1 * y + 0.0 * t)

    return gen, shapes


@pytest.mark.parametrize("frozen", [False, True], ids=["plain", "frozen-y"])
def test_family_names_the_row_of_a_nan_from_a_stacked_t_drift(frozen):
    lat = BinaryLattice(1.0, 6)
    gen, shapes = _nan_generator(lat, row=2, level=4, node=3)
    spec = backward.BsvieSpec(1, deterministic_psi(lat, lambda s: 1.0), generator=gen,
                              uses_z=False, stacked_t=True)
    kw = {"frozen_y": [np.ones((2**k, 1)) for k in range(7)]} if frozen else {}
    # a DivergenceError, not the NonConvergenceError that says "reduce the step"
    with pytest.raises(DivergenceError, match="of row 2: non-finite value at level 4, node 3$"):
        backward.solve_bsvie_family(spec, lat, **kw)
    assert (5 if frozen else 4, 1, 1) in shapes  # rows 0..4 (0..3) in one call at level 4


@pytest.mark.parametrize("stacked", [False, True], ids=["per-row", "stacked-t"])
@pytest.mark.parametrize("frozen", [False, True], ids=["plain", "frozen-y"])
def test_family_names_a_nan_in_a_row_after_the_first_block(frozen, stacked):
    lat = BinaryLattice(1.0, 6)
    gen, _ = _nan_generator(lat, row=1, level=3, node=5)
    spec = backward.BsvieSpec(1, deterministic_psi(lat, lambda s: 1.0), generator=gen,
                              uses_z=False, stacked_t=stacked)
    kw = {"frozen_y": [np.ones((2**k, 1)) for k in range(7)]} if frozen else {}
    # blocks of two rows: {5, 4}, {3, 2}, {1, 0}; the NaN is in the last
    with mock.patch.object(backward, "_ROW_BLOCK_ELEMS", 2 * 2**6):
        with pytest.raises(DivergenceError,
                           match="of row 1: non-finite value at level 3, node 5$"):
            backward.solve_bsvie_family(spec, lat, **kw)


# The scenarios whose BSVIE specs declare stacked_t; a scenario that opts in
# must be added here, and its callables pass the contract test below.
_STACKED_T_SCENARIOS = {
    "bsvie-duality-random", "ex3.8", "msolution-structural", "picard-contraction",
    "thm3.10-random", "thm3.2-random", "thm3.7-random", "thm3.9-random",
}


def _specs_built_by(name):
    seen = []
    post_init = backward.BsvieSpec.__post_init__

    def record(self):
        post_init(self)
        seen.append(self)

    entry = REGISTRY[name]
    with mock.patch.object(backward.BsvieSpec, "__post_init__", record):
        entry.build(entry.default_depth, entry.default_seed, 2)
    return seen


def _assert_stack_of_rows(stacked, row_value, rows, trials=False):
    # a trial stack's row values carry a row axis of one, after the trial axis
    want = np.stack([np.asarray(row_value(r), dtype=float)[(slice(None), 0) if trials else ()]
                     for r in range(rows)], axis=int(trials))
    got = np.asarray(stacked, dtype=float)
    _assert_same_bytes(np.ascontiguousarray(np.broadcast_to(got, want.shape)), want)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_stacked_t_callables_return_the_stack_of_their_scalar_t_results(name):
    specs = [spec for spec in _specs_built_by(name) if spec.stacked_t]
    assert bool(specs) == (name in _STACKED_T_SCENARIOS)
    rng = np.random.default_rng(31)
    for spec in specs:
        lat, n = spec.psi.lattice, spec.dim
        times = lat.times
        # a stack of trials (a free term with a leading axis): y is (trials, 1, 2**j, n), the
        # matrices of the structured pieces are shared by the trials
        trials = spec.psi.values.shape[:-3]
        rows_of = (lambda v, r: v[:, r:r + 1]) if trials else (lambda v, r: v[r])
        for j in range(lat.depth):
            rows, s, nodes = j + 1, times[j], LevelNodes(lat, j)
            t = times[:rows, None, None]
            y_shape = trials + (1,) * len(trials) + (2**j, n)
            for y in (np.zeros(y_shape), -np.zeros(y_shape), rng.standard_normal(y_shape)):
                z = rng.standard_normal(trials + (rows, 2**j, n)) if spec.uses_z else None
                zeta = rng.standard_normal(trials + (rows, 2**j, n)) if spec.uses_zeta else None
                z_r = lambda r: None if z is None else rows_of(z, r)
                zeta_r = lambda r: None if zeta is None else rows_of(zeta, r)
                if spec.a_kernel is not None:
                    _assert_stack_of_rows(spec.a_kernel(t, s),
                                          lambda r: spec.a_kernel(times[r], s), rows)
                if spec.c_coef is not None:
                    _assert_stack_of_rows(spec.c_coef(t), lambda r: spec.c_coef(times[r]), rows)
                if spec.h_fn is not None:
                    _assert_stack_of_rows(spec.h_fn(t, s, y, nodes),
                                          lambda r: spec.h_fn(times[r], s, y, nodes), rows,
                                          bool(trials))
                if spec.generator is not None:
                    _assert_stack_of_rows(
                        spec.generator(t, s, y, z, zeta, nodes),
                        lambda r: spec.generator(times[r], s, y, z_r(r), zeta_r(r), nodes), rows,
                        bool(trials),
                    )
                _assert_stack_of_rows(
                    spec.drift(t, s, y, z, zeta, nodes),
                    lambda r: spec.drift(times[r], s, y, z_r(r), zeta_r(r), nodes), rows,
                    bool(trials),
                )
