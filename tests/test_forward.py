import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsvielab import forward
from bsvielab.errors import DivergenceError, NonConvergenceError, ResourceBudgetError
from bsvielab.lattice import (
    AdaptedProcess,
    BinaryLattice,
    LevelNodes,
    sign_violation,
    time_grid,
    volterra_sum,
)


def piecewise(values, lat):
    def fn(t):
        return values[min(int(round(t / lat.h)), len(values) - 1)]

    return fn


def random_metzler(rng, n, scale):
    m = rng.uniform(0.0, scale, (n, n))
    m[np.diag_indices(n)] = rng.uniform(-scale, scale, n)
    return m


# -- solve_fsde ---------------------------------------------------------------


def test_fsde_zero_dynamics_is_constant():
    lat = BinaryLattice(1.0, 5)
    spec = forward.FsdeSpec(2, [1.0, -2.0], drift=lambda t, x, nd: 0.0 * x,
                            diffusion=lambda t, x, nd: 0.0 * x)
    x = forward.solve_fsde(spec, lat)
    for k in range(6):
        assert np.all(x.at(k) == [1.0, -2.0])


def test_fsde_geometric_is_martingale():
    lat = BinaryLattice(1.0, 10)
    spec = forward.FsdeSpec(1, [1.7], a1=lambda t: np.eye(1))
    x = forward.solve_fsde(spec, lat)
    assert abs(float(np.mean(x.at(10))) - 1.7) <= 1e-12


def test_fsde_decaying_kernel_ode_reduction():
    # scalar substitution variable: dx = (e^{-t} - 2 x) dt, X = 1 - 2 e^t x;
    # with no diffusion one Monte Carlo path is the plain Euler recursion
    steps = 2**10
    spec = forward.FsdeSpec(1, [0.0], drift=lambda t, x, nd: math.exp(-t) - 2.0 * x)
    res = forward.euler_monte_carlo(spec, 1.0, steps, 1, seed=0)
    x_final = 1.0 - 2.0 * math.exp(1.0) * res.mean[-1, 0]
    assert abs(x_final - (2.0 * math.exp(-1.0) - 1.0)) <= 5e-3
    assert x_final < 0.0


# -- fundamental matrix -------------------------------------------------------


def test_fundamental_matrix_trivial():
    lat = BinaryLattice(1.0, 6)
    fm = forward.fundamental_matrix(None, None, 0, lat, 2)
    for k in range(7):
        assert np.all(fm.at(k) == np.eye(2))


def test_fundamental_matrix_scalar_exponential():
    lat = BinaryLattice(1.0, 8)
    c = 0.7
    fm = forward.fundamental_matrix(lambda t: c * np.eye(1), None, 0, lat, 1)
    worst = max(abs(fm.at(k)[0, 0, 0] - math.exp(c * lat.times[k])) for k in range(9))
    assert worst <= 1.0 * lat.h  # measured 0.48 h


def test_variation_of_constants_telescopes():
    rng = np.random.default_rng(3)
    n, N = 2, 8
    lat = BinaryLattice(1.0, N)
    a0s = [random_metzler(rng, n, 0.6) for _ in range(N)]
    a1s = [np.diag(rng.uniform(-0.5, 0.5, n)) for _ in range(N)]
    bs = [rng.uniform(-1.0, 1.0, n) for _ in range(N)]
    a0, a1 = piecewise(a0s, lat), piecewise(a1s, lat)
    x0 = rng.uniform(-1.0, 1.0, n)
    x = forward.solve_fsde(forward.FsdeSpec(n, x0, a0=a0, a1=a1, b=piecewise(bs, lat)), lat)
    # Phi built per injection time on the same grid; the forcing b(t_j) enters
    # one step later, so its weight is Phi(t_k, t_{j+1}) with Phi(t_k, t_k) = I
    phis = [forward.fundamental_matrix(a0, a1, s, lat, n) for s in range(N)]
    for k in (3, N):
        acc = np.einsum("mij,j->mi", phis[0].at(k), x0)
        for j in range(k):
            if j + 1 == k:
                contrib = np.tile(bs[j], (2**k, 1))
            else:
                contrib = np.einsum("mij,j->mi", phis[j + 1].at(k), bs[j])
            acc = acc + lat.h * contrib
        assert np.max(np.abs(x.at(k) - acc)) <= 1e-10


# The two loops below are solve_fsde and fundamental_matrix as they were written
# before the node layout moved behind lattice.branch/split_children; the library
# must keep their bits.


def _reference_solve_fsde(spec, lattice):
    n = spec.dim
    s = 0
    h, sq = lattice.h, lattice.sqrt_h
    levels = [np.tile(spec.x0, (2**k, 1)) for k in range(s + 1)]
    for k in range(s, lattice.depth):
        x = levels[k]
        t = lattice.times[k]
        nodes = LevelNodes(lattice, k)
        mu = spec.drift_at(t, x, nodes)
        sg = spec.diffusion_at(t, x, nodes)
        nxt = np.empty((2 ** (k + 1), n))
        nxt[0::2] = x + mu * h + sg * sq
        nxt[1::2] = x + mu * h - sg * sq
        levels.append(nxt)
    return levels


def _reference_fundamental_matrix(a0, a1, start_index, lattice, dim):
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
        nxt[0::2] = up @ cur
        nxt[1::2] = dn @ cur
        levels.append(nxt)
    return levels


def _assert_forward_recursions_match_the_reference(depth, n, seed, linear):
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(1.0, depth)
    start = int(rng.integers(0, depth))
    a0 = piecewise([rng.uniform(-2.0, 2.0, (n, n)) for _ in range(depth)], lat)
    a1 = piecewise([rng.uniform(-1.0, 1.0, (n, n)) for _ in range(depth)], lat)
    x0 = rng.uniform(-1.0, 1.0, n)
    if linear:
        b = piecewise([rng.uniform(-1.0, 1.0, n) for _ in range(depth)], lat)
        spec = forward.FsdeSpec(n, x0, a0=a0, a1=a1, b=b)
    else:
        c = rng.uniform(-1.0, 1.0, n)
        spec = forward.FsdeSpec(
            n, x0,
            drift=lambda t, x, nd: np.sin(x) * c - t * x,
            diffusion=lambda t, x, nd: np.cos(x + nd.w[:, None]) * c,
        )
    got = forward.solve_fsde(spec, lat)
    ref = _reference_solve_fsde(spec, lat)
    assert [lv.tobytes() for lv in got.levels] == [lv.tobytes() for lv in ref]
    for a0_k, a1_k in ((a0, a1), (a0, None), (None, a1)):
        fm = forward.fundamental_matrix(a0_k, a1_k, start, lat, n)
        ref = _reference_fundamental_matrix(a0_k, a1_k, start, lat, n)
        assert [fm.at(k).tobytes() for k in range(start, depth + 1)] == [
            lv.tobytes() for lv in ref
        ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_forward_recursions_are_bitwise_equal_to_the_reference(depth, n, seed, linear):
    _assert_forward_recursions_match_the_reference(depth, n, seed, linear)


@pytest.mark.parametrize("linear", [True, False])
def test_deep_forward_recursions_are_bitwise_equal_to_the_reference(linear):
    _assert_forward_recursions_match_the_reference(16, 2, 16, linear)


# -- step bounds ---------------------------------------------------------------


def test_worst_case_step_bound_is_exact_for_the_summed_update():
    # scalar worst case: 1 - h*a - sqrt(h)*b == 0 at the bound
    for a, b in [(1.0, 1.0), (2.0, 0.5), (0.0, 2.0), (3.0, 0.0)]:
        h = forward.worst_case_step_bound(a, b)
        assert abs(1.0 - h * a - math.sqrt(h) * b) <= 1e-12
        # never above a per-factor bound: I + h A0 and I +/- sqrt(h) A1 nonnegative
        assert a == 0.0 or h <= 1.0 / a + 1e-15
        assert b == 0.0 or h <= 1.0 / b**2 + 1e-15
        # any larger step breaks entrywise nonnegativity of the summed update
        hh = h * 1.01
        assert 1.0 - hh * a - math.sqrt(hh) * b < 0.0


# -- linear Volterra -----------------------------------------------------------


def test_fsvie_zero_kernels_returns_free_term():
    lat = BinaryLattice(1.0, 6)
    spec = forward.FsvieSpec(1, lambda t: np.array([1.0 + t]))
    x = forward.solve_linear_fsvie(spec, lat)
    for k in range(7):
        assert np.all(x.at(k) == 1.0 + lat.times[k])


def test_fsvie_scaling_transform_identity_depth14():
    T = 1.0
    lat = BinaryLattice(T, 14)
    tilde = forward.solve_linear_fsvie(
        forward.FsvieSpec(1, lambda t: np.array([2 * T - t]), a1=lambda s: np.eye(1)), lat
    )
    x = forward.solve_linear_fsvie(
        forward.FsvieSpec(
            1, lambda t: np.array([1.0]),
            a1_full=lambda t, s: np.array([[(2 * T - s) / (2 * T - t)]]),
        ),
        lat,
    )
    worst = max(
        float(np.max(np.abs((2 * T - lat.times[k]) * x.at(k) - tilde.at(k))))
        for k in range(15)
    )
    assert worst <= 1e-12
    assert sign_violation(x).probability > 0.0
    assert sign_violation(tilde).probability > 0.0


def test_fsvie_consistency_with_fsde_for_t_free_kernels():
    rng = np.random.default_rng(8)
    n, N = 2, 8
    lat = BinaryLattice(1.0, N)
    a0 = random_metzler(rng, n, 0.5)
    a1 = np.diag(rng.uniform(-0.5, 0.5, n))
    x0 = rng.uniform(0.2, 1.0, n)
    vol = forward.solve_linear_fsvie(
        forward.FsvieSpec(
            n, lambda t, x0=x0: x0, a0=lambda t, s: a0, a1=lambda s: a1
        ),
        lat,
    )
    sde = forward.solve_fsde(
        forward.FsdeSpec(n, x0, a0=lambda t: a0, a1=lambda t: a1), lat
    )
    worst = max(float(np.max(np.abs(vol.at(k) - sde.at(k)))) for k in range(N + 1))
    assert worst <= 1e-12


# -- successive substitution -----------------------------------------------------


def test_picard_zero_kernel_converges_immediately():
    lat = BinaryLattice(1.0, 6)
    spec = forward.FsvieSpec(1, lambda t: np.array([1.0 + t]))
    x, norms = forward.picard_fsvie(spec, lat)
    assert len(norms) == 1 and norms[0] == 0.0
    assert np.all(x.at(3) == 1.0 + lat.times[3])


def test_picard_decaying_kernel_goes_negative():
    times, x, norms = forward.picard_fsvie_deterministic(
        lambda t: 1.0, lambda t, s: -2.0 * np.exp(t - s), 1.0, 2**10
    )
    assert x[-1] < 0.0
    assert abs(x[-1] - (2.0 * math.exp(-1.0) - 1.0)) <= 5e-3


def test_picard_nonneg_kernel_dominates_free_term():
    rng = np.random.default_rng(4)
    n, N = 2, 7
    lat = BinaryLattice(1.0, N)
    a0 = rng.uniform(0.0, 0.5, (n, n))
    phi = AdaptedProcess.from_function(
        lat, n, lambda t, w: np.stack([np.abs(w) + 0.1, np.cos(w) ** 2], axis=1)
    )
    x, _ = forward.picard_fsvie(
        forward.FsvieSpec(n, phi, a0=lambda t, s: a0), lat
    )
    slack = min(float(np.min(x.at(k) - phi.at(k))) for k in range(N + 1))
    assert slack >= -1e-13
    assert phi.min() >= 0.0 and x.min() >= 0.0


# -- one Volterra sum: bitwise equal to the per-(k, j) loops it replaced ------------


# Reference: the recursion, free-term reads and kernel closures of the
# partition freeze the forward recursion had before lattice.volterra_sum (the
# library keeps only the identity freeze, solve_linear_fsvie), and the Picard
# sweep with its (k, j) kernel dict.


def _reference_phi(spec, lat, level, anchor):
    if isinstance(spec.phi, AdaptedProcess):
        return lat.lift(spec.phi.at(anchor), anchor, level)
    v = np.atleast_1d(np.asarray(spec.phi(lat.times[anchor]), dtype=float))
    return np.tile(v.reshape(1, spec.dim), (2**level, 1))


def _reference_fsvie(spec, lat, frozen):
    times = lat.times
    h, sq = lat.h, lat.sqrt_h
    n = spec.dim

    def a0_pair(k, j):
        if spec.a0 is None:
            return None
        return np.asarray(spec.a0(times[frozen[k]], times[j]), dtype=float).reshape(n, n)

    def a1_pair(k, j):
        m = spec.a1_at(times[frozen[k]], times[j])
        return None if m is None else m.reshape(n, n)

    levels = [_reference_phi(spec, lat, 0, frozen[0])]
    for k in range(1, lat.depth + 1):
        acc = _reference_phi(spec, lat, k, frozen[k]).copy()
        for j in range(k):
            xj = levels[j]
            m0 = a0_pair(k, j)
            if m0 is not None:
                acc += h * lat.lift(xj @ m0.T, j, k)
            m1 = a1_pair(k, j)
            if m1 is not None:
                incr = sq * lat.step_signs(k, j)
                acc += lat.lift(xj @ m1.T, j, k) * incr[:, None]
        levels.append(acc)
    return levels


def _reference_picard(spec, lat, max_iter=50, tol=1e-12):
    times, h = lat.times, lat.h
    kern = {}
    if spec.a0 is not None:
        for k in range(1, lat.depth + 1):
            for j in range(k):
                kern[(k, j)] = np.asarray(spec.a0(times[k], times[j]), dtype=float).reshape(
                    spec.dim, spec.dim
                )
    phi_levels = [_reference_phi(spec, lat, k, k) for k in range(lat.depth + 1)]
    cur = [p.copy() for p in phi_levels]
    norms = []
    for _ in range(max_iter):
        nxt = [phi_levels[0].copy()]
        for k in range(1, lat.depth + 1):
            acc = phi_levels[k].copy()
            for j in range(k):
                if (k, j) in kern:
                    acc += h * lat.lift(cur[j] @ kern[(k, j)].T, j, k)
            nxt.append(acc)
        diff = math.sqrt(
            sum(h * float(np.mean(np.sum((a - b) ** 2, axis=1))) for a, b in zip(nxt, cur))
        )
        norms.append(diff)
        cur = nxt
        if diff < tol:
            return cur, norms
    raise AssertionError("reference sweep did not converge")


def _random_fsvie(seed, n, lat, phi_kind, a0_on, a1_kind):
    rng = np.random.default_rng(seed)
    m0, m1, m2 = (rng.uniform(-0.8, 0.8, (n, n)) for _ in range(3))
    d0, d1, d2 = (rng.uniform(-0.8, 0.8, (n, n)) for _ in range(3))
    v0, v1 = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    phi = (
        AdaptedProcess.from_function(lat, n, lambda t, w: v0 + np.outer(np.sin(w + t), v1))
        if phi_kind == "adapted" else (lambda t: v0 + t * v1)
    )
    kernels = {}
    if a0_on:
        kernels["a0"] = lambda t, s: m0 + np.cos(3.0 * t) * m1 - s * m2
    if a1_kind == "separated":
        kernels["a1"] = lambda s: d0 + s * d1
    elif a1_kind == "full":
        kernels["a1_full"] = lambda t, s: d0 + t * d1 + np.sin(2.0 * s) * d2
    return forward.FsvieSpec(n, phi, **kernels)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 9),
    st.sampled_from(["callable", "adapted"]), st.booleans(),
    st.sampled_from([None, "separated", "full"]),
)
def test_unified_recursion_is_bitwise_equal_to_the_reference(
    seed, n, depth, phi_kind, a0_on, a1_kind
):
    lat = BinaryLattice(1.0, depth)
    spec = _random_fsvie(seed, n, lat, phi_kind, a0_on, a1_kind)
    x = forward.solve_linear_fsvie(spec, lat)
    ref = _reference_fsvie(spec, lat, list(range(depth + 1)))
    for k in range(depth + 1):
        assert np.array_equal(x.at(k), ref[k]), k
    if a1_kind is None:
        x, norms = forward.picard_fsvie(spec, lat)
        ref, ref_norms = _reference_picard(spec, lat)
        assert norms == ref_norms
        for k in range(depth + 1):
            assert np.array_equal(x.at(k), ref[k]), k


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 10),
    st.sampled_from(["callable", "adapted"]), st.floats(0.01, 20.0),
)
def test_picard_ends_by_sweep_n_plus_one(seed, n, depth, phi_kind, scale):
    lat = BinaryLattice(1.0, depth)
    base = _random_fsvie(seed, n, lat, phi_kind, True, None)
    spec = forward.FsvieSpec(n, base.phi, a0=lambda t, s: scale * base.a0(t, s))
    x, norms = forward.picard_fsvie(spec, lat)
    assert len(norms) <= depth + 1
    if len(norms) == depth + 1:
        assert norms[-1] == 0.0
        direct = forward.solve_linear_fsvie(spec, lat)
        for k in range(depth + 1):
            assert np.array_equal(x.at(k), direct.at(k)), k


def test_deep_recursion_is_bitwise_equal_to_the_reference():
    # the hypothesis test above stops at depth 9; a one-row start is built out
    # from the root, so check its bits at the depth cap
    depth = 16
    lat = BinaryLattice(1.0, depth)
    for phi_kind in ("callable", "adapted"):
        spec = _random_fsvie(1601, 2, lat, phi_kind, True, "separated")
        x = forward.solve_linear_fsvie(spec, lat)
        ref = _reference_fsvie(spec, lat, list(range(depth + 1)))
        for k in range(depth + 1):
            assert np.array_equal(x.at(k), ref[k]), (phi_kind, k)
    picard_spec = _random_fsvie(1602, 2, lat, "callable", True, None)
    x, norms = forward.picard_fsvie(picard_spec, lat)
    ref, ref_norms = _reference_picard(picard_spec, lat)
    assert norms == ref_norms
    for k in range(depth + 1):
        assert np.array_equal(x.at(k), ref[k]), k


@pytest.mark.parametrize("diffusion_on", [True, False])
def test_one_row_start_equals_the_repeated_start_bitwise(diffusion_on):
    depth = 14
    lat = BinaryLattice(1.0, depth)
    spec = _random_fsvie(7, 2, lat, "callable", True, "separated")
    xs = forward.solve_linear_fsvie(spec, lat).levels
    t = lat.times[depth]
    calls = []

    def drift(j):
        calls.append(("drift", j))
        return spec.a0(t, lat.times[j])

    def diffusion(j):
        calls.append(("diffusion", j))
        return spec.a1(lat.times[j])

    a1 = diffusion if diffusion_on else None
    row = np.array([[0.3, -1.7]])
    for level in (0, 1, 7, depth):
        full = np.repeat(row, 2**level, axis=0)
        starts = (row.tobytes(), full.tobytes())
        calls.clear()
        from_row = volterra_sum(lat, row, xs, level, drift, a1)
        row_calls = calls[:]
        calls.clear()
        lifted = volterra_sum(lat, full, xs, level, drift, a1)
        assert from_row.shape == lifted.shape == (2**level, 2)
        assert from_row.tobytes() == lifted.tobytes(), level
        assert row_calls == calls  # same kernels, same order
        assert (row.tobytes(), full.tobytes()) == starts  # neither start is changed


def test_picard_names_the_non_finite_node_like_the_direct_solve():
    lat = BinaryLattice(1.0, 5)
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]), a0=lambda t, s: np.array([[0.3 if s <= 0.4 else math.nan]])
    )
    with pytest.raises(DivergenceError) as direct:
        forward.solve_linear_fsvie(spec, lat)
    with pytest.raises(DivergenceError) as picard:
        forward.picard_fsvie(spec, lat)
    assert str(direct.value) == str(picard.value) == "non-finite state at level 4, node 0"


def test_picard_deterministic_names_the_non_finite_step_like_the_direct_solve():
    def kernel(t, s):
        return np.where(s <= 0.4, 0.3, math.nan)

    with pytest.raises(DivergenceError) as direct:
        forward.solve_linear_fsvie_deterministic(lambda t: 1.0, kernel, 1.0, 64)
    with pytest.raises(DivergenceError) as picard:
        forward.picard_fsvie_deterministic(lambda t: 1.0, kernel, 1.0, 64)
    assert str(direct.value) == str(picard.value) == "non-finite state at step 27"


def test_non_finite_free_term_at_time_zero_is_named_at_level_zero():
    lat = BinaryLattice(1.0, 4)
    spec = forward.FsvieSpec(1, lambda t: np.array([math.nan if t == 0.0 else 1.0]))
    with pytest.raises(DivergenceError, match="non-finite state at level 0, node 0$"):
        forward.solve_linear_fsvie(spec, lat)
    with pytest.raises(DivergenceError, match="non-finite state at level 0, node 0$"):
        forward.picard_fsvie(spec, lat)


@pytest.mark.parametrize("solve", [
    forward.solve_linear_fsvie_deterministic, forward.picard_fsvie_deterministic,
])
def test_non_finite_free_term_at_time_zero_is_named_at_step_zero(solve):
    with pytest.raises(DivergenceError, match="non-finite state at step 0$"):
        solve(lambda t: math.nan if t == 0.0 else 1.0, lambda t, s: np.full_like(s, 0.5), 1.0, 8)


_CONSTANT_KERNELS = {  # one constant kernel in three shapes
    "full": lambda t, s: np.full(np.shape(s), 0.5),
    "scalar": lambda t, s: 0.5,
    "one-element": lambda t, s: np.array([0.5]),
}


@pytest.mark.parametrize("solve", [
    forward.solve_linear_fsvie_deterministic, forward.picard_fsvie_deterministic,
])
@pytest.mark.parametrize("steps", [1, 2, 40])
def test_grid_solvers_take_a_constant_kernel_in_any_shape(solve, steps):
    got = {name: solve(lambda t: 1.0, a0, 1.0, steps)[:2]
           for name, a0 in _CONSTANT_KERNELS.items()}
    for name in ("scalar", "one-element"):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got[name], got["full"])), name
    # x' = 0.5 x: x(1) = e^0.5 in the limit, below it on the explicit grid
    assert 1.0 < got["scalar"][1][-1] <= math.exp(0.5)


# Reference: the per-row grid Picard sweep the slab products replaced, kept
# verbatim.  The blocked sweep sums each row's dot in another order, so it
# matches to a few ULPs, not bit for bit.


def _reference_picard_fsvie_deterministic(phi, a0, horizon, steps):
    times = np.linspace(0.0, horizon, steps + 1)
    h = horizon / steps
    phi_vals = np.array([phi(t) for t in times])
    rows = [np.asarray(a0(times[i], times[:i]), dtype=float) for i in range(steps + 1)]
    cur = phi_vals.copy()
    norms: list[float] = []
    for _ in range(forward.GRID_MAX_SWEEPS):
        nxt = np.empty_like(cur)
        for i in range(steps + 1):
            nxt[i] = phi_vals[i] + h * float(rows[i] @ cur[:i])
        diff = math.sqrt(h * float(np.sum((nxt - cur) ** 2)))
        norms.append(diff)
        if not math.isfinite(diff):
            bad = np.flatnonzero(~np.isfinite(nxt))
            raise DivergenceError(
                f"non-finite state at step {bad[0]}" if bad.size
                else f"difference norm overflowed at sweep {len(norms)}"
            )
        cur = nxt
        if diff < forward.SUBSTITUTION_TOL:
            return times, cur, norms
    raise AssertionError("the reference did not converge")


def _ex26_kernel(t, s):
    return -2.0 * np.exp(t - s)


def _smooth_grid_data(seed):
    """A random smooth free term and kernel of size ~1 on [0, 1]."""
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, 6)
    return (
        lambda t: 1.0 + c[0] * math.sin(3.0 * t + c[1]),
        lambda t, s: c[2] + c[3] * np.cos(4.0 * (t - s)) + c[4] * np.exp(c[5] * s),
    )


def _grid_picard_cases():
    # steps 15, 16, 17: one partial slab, one full slab, a full slab and a row
    return [pytest.param(lambda t: 1.0, _ex26_kernel, 2**10, id="ex2.6-1024")] + [
        pytest.param(*_smooth_grid_data(steps), steps, id=f"smooth-{steps}")
        for steps in (1, 2, 15, 16, 17, 1000)
    ]


@pytest.mark.parametrize("phi, kernel, steps", _grid_picard_cases())
def test_grid_picard_slab_sweep_matches_the_per_row_sweep(phi, kernel, steps):
    t, x, norms = forward.picard_fsvie_deterministic(phi, kernel, 1.0, steps)
    t_ref, x_ref, norms_ref = _reference_picard_fsvie_deterministic(phi, kernel, 1.0, steps)
    assert np.array_equal(t, t_ref)
    assert len(norms) == len(norms_ref)
    assert x[0].hex() == x_ref[0].hex()
    assert np.max(np.abs(x - x_ref)) <= 1e-14  # measured 1.3e-15
    np.testing.assert_allclose(norms, norms_ref, rtol=1e-3, atol=0.0)  # measured 2.0e-4


def _nan_kernel_after(t, s):
    return np.where(s <= 0.4, 0.3, math.nan)


@pytest.mark.parametrize("phi, kernel, where", [
    # step 27 sits inside the slab of steps 17..32
    pytest.param(lambda t: math.nan if t == 27 / 64 else 1.0, _ex26_kernel, 27, id="nan-phi"),
    pytest.param(lambda t: math.inf if t == 0.0 else 1.0, _ex26_kernel, 0, id="inf-phi-at-0"),
    pytest.param(lambda t: 1.0, _nan_kernel_after, 27, id="nan-kernel"),
])
def test_grid_picard_names_the_non_finite_step_like_the_per_row_sweep(phi, kernel, where):
    with np.errstate(invalid="ignore"):  # inf - inf in the inf case
        with pytest.raises(DivergenceError) as blocked:
            forward.picard_fsvie_deterministic(phi, kernel, 1.0, 64)
        with pytest.raises(DivergenceError) as per_row:
            _reference_picard_fsvie_deterministic(phi, kernel, 1.0, 64)
        with pytest.raises(DivergenceError) as stored:
            _reference_slab_picard_fsvie_deterministic(phi, kernel, 1.0, 64)
    assert str(blocked.value) == str(per_row.value) == f"non-finite state at step {where}"
    assert str(stored.value) == str(blocked.value)


# Reference: the stored-slab grid Picard sweep the rounds of sweeps replaced,
# kept verbatim with its list-building slab store and row replay.  The rounds
# build the same slabs and make the same matrix-vector products, so x and
# the norms must keep their bits.


def _reference_row_slabs(row, steps, n):
    slabs = []
    for i0 in range(1, steps + 1, forward._MC_BLOCK):
        i1 = min(i0 + forward._MC_BLOCK, steps + 1)
        slab = np.zeros(((i1 - i0) * n, (i1 - 1) * n))
        for i in range(i0, i1):
            slab[(i - i0) * n:(i - i0 + 1) * n, : i * n] = row(i)
        slabs.append(slab)
    return slabs


def _reference_slab_first_non_finite_step(phi_vals, h, slabs, cur):
    if not math.isfinite(phi_vals[0]):
        return 0
    i = 1
    for slab in slabs:
        for row in slab:
            if not math.isfinite(phi_vals[i] + h * float(row[:i] @ cur[:i])):
                return i
            i += 1
    return None


def _reference_slab_picard_fsvie_deterministic(phi, a0, horizon, steps):
    times, h = time_grid(horizon, steps)
    phi_vals = np.array([phi(t) for t in times], dtype=float).reshape(len(times))
    slabs = _reference_row_slabs(lambda i: a0(times[i], times[:i]), len(times) - 1, 1)
    lx = np.zeros(len(times))  # L @ x; row 0 has no past, so lx[0] stays 0.0
    cur = phi_vals
    norms: list[float] = []
    for _ in range(forward.GRID_MAX_SWEEPS):
        i0 = 1
        for slab in slabs:
            i1 = i0 + len(slab)
            lx[i0:i1] = slab @ cur[: i1 - 1]
            i0 = i1
        nxt = phi_vals + h * lx
        diff = math.sqrt(h * float(np.sum((nxt - cur) ** 2)))
        norms.append(diff)
        if not math.isfinite(diff):
            bad = _reference_slab_first_non_finite_step(phi_vals, h, slabs, cur)
            raise DivergenceError(
                f"non-finite state at step {bad}" if bad is not None
                else f"difference norm overflowed at sweep {len(norms)}"
            )
        cur = nxt
        if diff < forward.SUBSTITUTION_TOL:
            return times, cur, norms
    raise NonConvergenceError(
        f"not below {forward.SUBSTITUTION_TOL} after {forward.GRID_MAX_SWEEPS} sweeps"
    )


def _assert_same_grid_picard_bits(got, want):
    (t, x, norms), (t_ref, x_ref, norms_ref) = got, want
    assert t.tobytes() == t_ref.tobytes()
    assert x.tobytes() == x_ref.tobytes()
    assert [v.hex() for v in norms] == [v.hex() for v in norms_ref]


@pytest.mark.parametrize("steps", [1, 2, 15, 16, 17, 1000, 4096])
@pytest.mark.parametrize("data", ["ex2.6", "smooth"])
def test_grid_picard_rounds_keep_the_stored_slab_bits(data, steps):
    phi, kernel = (lambda t: 1.0, _ex26_kernel) if data == "ex2.6" else _smooth_grid_data(steps)
    _assert_same_grid_picard_bits(
        forward.picard_fsvie_deterministic(phi, kernel, 1.0, steps),
        _reference_slab_picard_fsvie_deterministic(phi, kernel, 1.0, steps),
    )


class _Counted:
    """A kernel that counts its calls."""

    def __init__(self, kernel):
        self.kernel, self.calls = kernel, 0

    def __call__(self, t, s):
        self.calls += 1
        return self.kernel(t, s)


def _growth_kernel(t, s):
    return 2.0 + np.cos(t - s)


def _growth_phi(t):
    return 1.0 + 0.5 * math.sin(t)


# On [0, steps] (h = 1) the growth data's sweep k changes rows k-1.. by far
# more than SUBSTITUTION_TOL, so the sweeps end exactly at sweep steps + 1,
# when the strictly lower-triangular operator has no row left to change.
_R = forward._GRID_ROUND


@pytest.mark.parametrize("steps", [
    pytest.param(9, id="inside-the-first-round"),
    pytest.param(_R - 1, id="last-sweep-of-the-first-round"),
    pytest.param(_R, id="first-sweep-of-the-second-round"),
    pytest.param(_R + 5, id="inside-the-second-round"),
    pytest.param(forward.GRID_MAX_SWEEPS - 1, id="last-allowed-sweep"),
])
def test_grid_picard_rounds_stop_at_the_stored_slab_sweep(steps):
    assert forward.GRID_MAX_SWEEPS > 2 * _R  # the last case runs three rounds or more
    kernel = _Counted(_growth_kernel)
    got = forward.picard_fsvie_deterministic(_growth_phi, kernel, float(steps), steps)
    norms = got[2]
    assert len(norms) == steps + 1 and norms[-1] == 0.0 and min(norms[:-1]) > 1.0
    assert kernel.calls == steps * -(-len(norms) // _R)  # each row once per round
    _assert_same_grid_picard_bits(got, _reference_slab_picard_fsvie_deterministic(
        _growth_phi, _growth_kernel, float(steps), steps))


def test_grid_picard_gives_up_after_exactly_grid_max_sweeps():
    steps = forward.GRID_MAX_SWEEPS  # needs one sweep more than allowed
    kernel = _Counted(_growth_kernel)
    with pytest.raises(NonConvergenceError) as rounds:
        forward.picard_fsvie_deterministic(_growth_phi, kernel, float(steps), steps)
    assert kernel.calls == steps * -(-forward.GRID_MAX_SWEEPS // _R)
    with pytest.raises(NonConvergenceError) as stored:
        _reference_slab_picard_fsvie_deterministic(_growth_phi, _growth_kernel, float(steps), steps)
    assert str(rounds.value) == str(stored.value) == (
        f"not below {forward.SUBSTITUTION_TOL} after {forward.GRID_MAX_SWEEPS} sweeps"
    )


def test_grid_picard_names_an_overflow_in_a_later_round_like_the_stored_slabs():
    def kernel(t, s):
        return np.full_like(s, 1e5)

    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError) as rounds:
            forward.picard_fsvie_deterministic(lambda t: 1.0, kernel, 64.0, 64)
        with pytest.raises(DivergenceError) as stored:
            _reference_slab_picard_fsvie_deterministic(lambda t: 1.0, kernel, 64.0, 64)
    assert 28 > _R  # the squares overflow in the second round
    assert str(rounds.value) == str(stored.value) == "difference norm overflowed at sweep 28"


def test_grid_picard_replays_rows_only_up_to_the_first_non_finite_step():
    kernel = _Counted(_nan_kernel_after)
    with pytest.raises(DivergenceError, match="non-finite state at step 27$"):
        forward.picard_fsvie_deterministic(lambda t: 1.0, kernel, 1.0, 64)
    assert kernel.calls == 64 + 27  # one round of rows, then the replay of rows 1..27


def test_grid_picard_memory_is_linear_in_the_steps():
    tracemalloc.start()
    try:
        forward.picard_fsvie_deterministic(lambda t: 1.0, _ex26_kernel, 1.0, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stored triangle alone was 4096**2 / 2 * 8 B ~ 67 MB
    assert peak < 4 * 2**20, peak


_GRID_SOLVERS = {
    "linear": lambda horizon, steps: forward.solve_linear_fsvie_deterministic(
        lambda t: 1.0, _ex26_kernel, horizon, steps),
    "picard": lambda horizon, steps: forward.picard_fsvie_deterministic(
        lambda t: 1.0, _ex26_kernel, horizon, steps),
}


@pytest.mark.parametrize("solver", sorted(_GRID_SOLVERS))
@pytest.mark.parametrize("name, horizon, steps", [
    ("horizon", -1.0, 8), ("horizon", 0.0, 8), ("horizon", math.nan, 8),
    ("horizon", math.inf, 8), ("horizon", "1.0", 8),
    ("steps", 1.0, 0), ("steps", 1.0, -3), ("steps", 1.0, True), ("steps", 1.0, 8.0),
    ("steps", 1.0, "8"), pytest.param("steps", 1.0, np.True_, id="steps-numpy-bool"),
])
def test_grid_solvers_reject_a_bad_horizon_or_step_count(solver, name, horizon, steps):
    with pytest.raises(ValueError, match=name):
        _GRID_SOLVERS[solver](horizon, steps)


@pytest.mark.parametrize("solver", sorted(_GRID_SOLVERS))
def test_grid_solvers_accept_numpy_integer_steps(solver):
    a, b = _GRID_SOLVERS[solver](1.0, np.int64(40)), _GRID_SOLVERS[solver](1.0, 40)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


# -- Monte Carlo --------------------------------------------------------------------


def test_mc_zero_coefficients_never_violate():
    spec = forward.FsdeSpec(1, [1.0], drift=lambda t, x, nd: 0.0 * x,
                            diffusion=lambda t, x, nd: 0.0 * x)
    mc = forward.euler_monte_carlo(spec, 1.0, 64, 1000, seed=0)
    assert np.all(mc.violation_freq == 0.0)
    assert np.allclose(mc.mean, 1.0)


def test_mc_decreasing_free_term_violates_far_beyond_noise():
    # equivalent SDE form of the decreasing-free-term equation: dX = -dt + X dW
    spec = forward.FsdeSpec(
        1, [2.0], drift=lambda t, x, nd: -np.ones_like(x), diffusion=lambda t, x, nd: x
    )
    mc = forward.euler_monte_carlo(spec, 1.0, 2**10, 100_000, seed=42)
    assert mc.violation_freq[-1] > 3.0 * mc.violation_se[-1]
    assert mc.violation_freq[-1] > 0.2  # measured 0.273


def test_mc_indicator_kernel_violates_after_cutoff():
    tau = 0.5
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]),
        a0=lambda t, s: np.array([[1.0 if t <= tau else 0.0]]),
        a1=lambda s: np.eye(1),
    )
    mc = forward.euler_monte_carlo(spec, 1.0, 256, 10_000, seed=7)
    idx = int(np.searchsorted(mc.times, tau))
    assert np.all(mc.violation_freq[: idx + 1] == 0.0)
    assert np.all(mc.violation_freq[idx + 2:] > 0.0)


def test_mc_budget_guard():
    spec = forward.FsdeSpec(1, [1.0], a1=lambda t: np.eye(1))
    with pytest.raises(ResourceBudgetError):
        forward.euler_monte_carlo(spec, 1.0, 10**6, 10**6, seed=0)


@pytest.mark.parametrize(
    "horizon", [-1.0, 0.0, math.nan, math.inf, -math.inf, pytest.param("1.0", id="str")]
)
def test_mc_rejects_a_horizon_that_is_not_finite_and_positive(horizon):
    spec = forward.FsdeSpec(1, [1.0], a1=lambda t: np.eye(1))
    with pytest.raises(ValueError, match="horizon"):
        forward.euler_monte_carlo(spec, horizon, 8, 10, seed=0)


@pytest.mark.parametrize("name, value", [
    ("steps", True), ("steps", 8.0), ("steps", "8"), ("paths", True), ("paths", 10.5),
    pytest.param("paths", np.True_, id="paths-numpy-bool"),
])
def test_mc_rejects_steps_or_paths_that_are_not_ints(name, value):
    spec = forward.FsdeSpec(1, [1.0], a1=lambda t: np.eye(1))
    args = {"steps": 8, "paths": 10, name: value}
    with pytest.raises(ValueError, match=name):
        forward.euler_monte_carlo(spec, 1.0, args["steps"], args["paths"], seed=0)


def test_mc_accepts_numpy_integer_steps_and_paths():
    spec = forward.FsdeSpec(1, [1.0], a1=lambda t: np.eye(1))
    a = forward.euler_monte_carlo(spec, 1.0, np.int64(8), np.int32(10), seed=0)
    b = forward.euler_monte_carlo(spec, 1.0, 8, 10, seed=0)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.violation_freq, b.violation_freq)


def test_mc_deterministic_for_fixed_seed():
    spec = forward.FsdeSpec(1, [1.0], a1=lambda t: np.eye(1))
    a = forward.euler_monte_carlo(spec, 1.0, 32, 5000, seed=11)
    b = forward.euler_monte_carlo(spec, 1.0, 32, 5000, seed=11)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.violation_freq, b.violation_freq)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mc_non_finite_paths_count_as_violations(bad):
    # the drift turns non-finite after t = 0.5, so every later state is non-finite
    spec = forward.FsdeSpec(
        1, [1.0], drift=lambda t, x, nd: np.full_like(x, bad if t > 0.5 else 0.0)
    )
    mc = forward.euler_monte_carlo(spec, 1.0, 16, 100, seed=3)
    late = mc.times > 0.5 + 1.0 / 16
    assert not np.any(np.isfinite(mc.mean[late]))
    assert np.all(mc.violation_freq[late] == 1.0)
    assert np.all(mc.violation_freq[~late] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mc_non_finite_linear_form_paths_count_as_violations(bad):
    # A0 turns non-finite after t = 0.5; the zero off-diagonal entries meet an
    # infinite state in the matrix product one step later (inf * 0 is NaN)
    spec = forward.FsdeSpec(
        2, [1.0, 0.5], a0=lambda t: np.diag([bad, bad]) if t > 0.5 else np.zeros((2, 2)),
        a1=lambda t: 0.5 * np.eye(2),
    )
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf on purpose
        mc = forward.euler_monte_carlo(spec, 1.0, 16, 100, seed=3)
    late = mc.times > 0.5 + 1.0 / 16
    assert not np.any(np.isfinite(mc.mean[late]))
    assert np.all(np.isfinite(mc.mean[~late]))
    assert np.all(mc.violation_freq[late] == 1.0)
    assert np.all(mc.violation_freq[~late] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mc_non_finite_volterra_paths_count_as_violations(bad):
    # the drift kernel turns non-finite for t > 0.5, so every later state is non-finite
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]),
        a0=lambda t, s: np.array([[bad if t > 0.5 else 0.0]]),
        a1=lambda s: 0.5 * np.eye(1),
    )
    with np.errstate(invalid="ignore"):  # inf - inf in the inf case
        mc = forward.euler_monte_carlo(spec, 1.0, 2 * forward._MC_BLOCK + 3, 100, seed=3)
    late = mc.times > 0.5
    assert not np.any(np.isfinite(mc.mean[late]))
    assert np.all(np.isfinite(mc.mean[~late]))
    assert np.all(mc.violation_freq[late] == 1.0)
    assert np.all(mc.violation_freq[~late] == 0.0)


# Reference: the path-returning chunk code the streaming helpers replaced.
# Each returns the full (steps + 1, m, n) path array; the reference driver
# reduces it with the same chunking and generator keys.


def _reference_sde_chunk(spec, horizon, steps, m, rng):
    h = horizon / steps
    sq = math.sqrt(h)
    times = np.linspace(0.0, horizon, steps + 1)
    x = np.tile(spec.x0, (m, 1))
    out = np.empty((steps + 1, m, spec.dim))
    out[0] = x
    for k in range(steps):
        dw = sq * rng.standard_normal(m)
        x = x + h * spec.drift_at(times[k], x) + spec.diffusion_at(times[k], x) * dw[:, None]
        out[k + 1] = x
    return out


def _reference_volterra_chunk(spec, horizon, steps, m, rng):
    h = horizon / steps
    sq = math.sqrt(h)
    times = np.linspace(0.0, horizon, steps + 1)
    n = spec.dim
    dw = sq * rng.standard_normal((steps, m))
    out = np.empty((steps + 1, m, n))
    out[0] = np.tile(np.atleast_1d(spec.phi(0.0)), (m, 1))
    for i in range(1, steps + 1):
        acc = np.tile(np.atleast_1d(spec.phi(times[i])).astype(float), (m, 1))
        if n == 1:
            if spec.a0 is not None:
                row = np.array(
                    [np.asarray(spec.a0(times[i], times[j])).reshape(()) for j in range(i)]
                )
                acc[:, 0] += h * (row @ out[:i, :, 0])
            row1 = np.array(
                [
                    0.0 if (m1 := spec.a1_at(times[i], times[j])) is None
                    else np.asarray(m1).reshape(())
                    for j in range(i)
                ]
            )
            if np.any(row1):
                acc[:, 0] += np.einsum("j,jm->m", row1, out[:i, :, 0] * dw[:i])
        else:
            for j in range(i):
                if spec.a0 is not None:
                    m0 = np.asarray(spec.a0(times[i], times[j]), dtype=float)
                    acc += h * out[j] @ m0.T
                m1 = spec.a1_at(times[i], times[j])
                if m1 is not None:
                    acc += (out[j] @ np.asarray(m1, dtype=float).T) * dw[j][:, None]
        out[i] = acc
    return out


def _reference_mc(spec, horizon, steps, paths, seed, chunk):
    sum_x = np.zeros((steps + 1, spec.dim))
    counts = np.zeros(steps + 1, dtype=np.int64)
    done = chunk_idx = 0
    while done < paths:
        m = min(chunk, paths - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_idx], dtype=np.uint64))
        )
        run = (_reference_volterra_chunk if isinstance(spec, forward.FsvieSpec)
               else _reference_sde_chunk)
        xs = run(spec, horizon, steps, m, rng)
        sum_x += xs.sum(axis=1)
        counts += (~(np.isfinite(xs) & (xs >= 0.0))).any(axis=2).sum(axis=1)
        done += m
        chunk_idx += 1
    return sum_x / paths, counts / paths


def _sde2():
    return forward.FsdeSpec(
        2, [0.3, 1.2], a0=lambda t: np.array([[-1.0, 0.5], [0.2, -0.3 - t]]),
        a1=lambda t: np.array([[1.5, 0.0], [0.4, 0.8]]), b=lambda t: np.array([0.1, -0.2]),
    )


def _sde3_full():
    """A 3-dim linear SDE with full A0 and A1 matrices and a drift offset b."""
    return forward.FsdeSpec(
        3, [0.5, 1.0, 0.2],
        a0=lambda t: np.array([[-1.0, 0.3, 0.2], [0.1, -0.5, 0.4], [0.3 * t, 0.2, -0.7]]),
        a1=lambda t: np.array([[0.6, -0.2, 0.1], [0.3, 0.5, 0.0], [-0.1, 0.2, 0.9 - t]]),
        b=lambda t: np.array([0.1, -0.2, 0.05 * t]),
    )


def _mc_cases():
    tau = 0.5
    sde1 = forward.FsdeSpec(1, [2.0], drift=lambda t, x, nd: -np.ones_like(x),
                            diffusion=lambda t, x, nd: x)
    volterra1 = forward.FsvieSpec(
        1, lambda t: np.array([1.0]),
        a0=lambda t, s: np.array([[1.0 if t <= tau else 0.0]]),
        a1=lambda s: np.eye(1),
    )
    volterra2 = forward.FsvieSpec(
        2, lambda t: np.array([1.0 - t, 0.5]),
        a0=lambda t, s: np.array([[-1.0 + t, 0.3], [0.5 * s, -0.5]]),
        a1_full=lambda t, s: np.array([[1.0 + t - s, 0.2], [0.0, 0.7 * math.cos(t)]]),
    )
    return [
        pytest.param(sde1, 40, id="sde-n1"),
        pytest.param(_sde2(), 40, id="sde-n2"),
        pytest.param(_sde3_full(), 40, id="sde-n3-full"),
        pytest.param(volterra1, 32, id="volterra-n1-separated"),
        pytest.param(volterra2, 24, id="volterra-n2-full"),
        # two full blocks of steps and a ragged tail of three
        pytest.param(volterra1, 2 * forward._MC_BLOCK + 3, id="volterra-n1-separated-blocks"),
        pytest.param(volterra2, 2 * forward._MC_BLOCK + 3, id="volterra-n2-full-blocks"),
    ]


@pytest.mark.parametrize("spec, steps", _mc_cases())
def test_mc_streaming_equals_materialised_paths(spec, steps, monkeypatch):
    chunk, paths, seed = 700, 2000, 12  # chunks of 700, 700 and a ragged 600
    monkeypatch.setattr(forward, "_MC_CHUNK", chunk)
    mc = forward.euler_monte_carlo(spec, 1.0, steps, paths, seed)
    mean, freq = _reference_mc(spec, 1.0, steps, paths, seed, chunk)
    assert np.any(freq > 0.0), "the case must exercise the violation count"
    diff = np.flatnonzero(mc.violation_freq != freq)
    assert diff.size == 0, (
        f"violation counts differ at steps {diff.tolist()}: "
        f"{(mc.violation_freq[diff] * paths).tolist()} vs {(freq[diff] * paths).tolist()}"
    )
    np.testing.assert_allclose(mc.mean, mean, rtol=1e-12, atol=0.0)


# Reference: the path-major SDE chunk the component-row chunk replaced, kept
# verbatim.  The new chunk must give the same bits.


def _reference_mc_sde_chunk(spec, times, m, rng):
    """Per-time statistics ``(steps + 1, n + 1)`` of ``m`` Euler paths (see ``_path_stats``)."""
    steps = len(times) - 1
    h = times[-1] / steps
    sq = math.sqrt(h)
    x = np.tile(spec.x0, (m, 1))
    stats = np.empty((steps + 1, spec.dim + 1))
    forward._path_stats(x.T, stats[0])
    for k in range(steps):
        dw = sq * rng.standard_normal(m)
        x = x + h * spec.drift_at(times[k], x) + spec.diffusion_at(times[k], x) * dw[:, None]
        forward._path_stats(x.T, stats[k + 1])
    return stats


def _chunk_rng(seed, chunk_idx):
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, chunk_idx], dtype=np.uint64))
    )


def _assert_sde_chunks_bitwise_equal(spec, steps, sizes, seed=21):
    times = np.linspace(0.0, 1.0, steps + 1)
    for c, m in enumerate(sizes):  # one generator key per chunk, as in euler_monte_carlo
        got = forward._mc_sde_chunk(spec, times, m, _chunk_rng(seed, c))
        want = _reference_mc_sde_chunk(spec, times, m, _chunk_rng(seed, c))
        assert got.shape == (steps + 1, spec.dim + 1)
        assert np.array_equal(got, want), f"chunk {c} differs"


def _crosscheck_like_sde():
    # the shape of the benchmark's cross-check SDE: diagonal A0 and A1, n = 2
    a, b = np.array([-0.3, 0.8]), np.array([0.4, 0.9])
    return forward.FsdeSpec(2, [1.2, 0.7], a0=lambda t: np.diag(a), a1=lambda t: np.diag(b))


def _sde_chunk_cases():
    """The benchmark's cross-check shape at full chunk size, then every SDE case of
    ``_mc_cases``; each runs a chunk of the given size and a ragged one of 600."""
    return [pytest.param(_crosscheck_like_sde(), 256, forward._MC_CHUNK, id="crosscheck-n2")] + [
        pytest.param(*case.values, 700, id=case.id)
        for case in _mc_cases() if isinstance(case.values[0], forward.FsdeSpec)
    ]


@pytest.mark.parametrize("spec, steps, m", _sde_chunk_cases())
def test_mc_sde_chunk_is_bitwise_equal_to_the_path_major_loop(spec, steps, m):
    _assert_sde_chunks_bitwise_equal(spec, steps, (m, 600))


@pytest.mark.parametrize("drift, diffusion", [
    pytest.param(lambda t, x, nd: np.array([0.1, -0.3 * t]),
                 lambda t, x, nd: np.sin(x) * np.array([0.5, 1.0]), id="row-drift"),
    pytest.param(lambda t, x, nd: -0.2, lambda t, x, nd: 0.7, id="scalars"),
    pytest.param(lambda t, x, nd: -0.3 * x[:, ::-1],
                 lambda t, x, nd: np.array([[0.4, 0.6]]) * x, id="mixed-columns"),
])
def test_mc_sde_chunk_broadcasts_general_callables_as_the_loop_did(drift, diffusion):
    spec = forward.FsdeSpec(2, [1.0, 0.5], drift=drift, diffusion=diffusion)
    _assert_sde_chunks_bitwise_equal(spec, 33, (500, 300))


def test_mc_never_writes_into_an_array_a_callable_returns():
    m = 300
    drift_cache = np.tile([0.25, -0.5], (m, 1))
    diffusion_cache = np.tile([0.5, 0.125], (m, 1))
    seen = []

    def drift(t, x, nd):
        assert nd is None and x.shape == (m, 2)
        seen.append(x.copy())
        return drift_cache

    spec = forward.FsdeSpec(2, [1.0, 0.5], drift=drift,
                            diffusion=lambda t, x, nd: diffusion_cache)
    forward.euler_monte_carlo(spec, 1.0, 16, m, seed=4)
    assert np.all(drift_cache == [0.25, -0.5])
    assert np.all(diffusion_cache == [0.5, 0.125])
    assert len(seen) == 16 and np.all(seen[0] == [1.0, 0.5])
    assert not np.array_equal(seen[1], seen[0])


def test_mc_reads_a_separated_diffusion_kernel_once_per_inner_time():
    seen = []
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]), a1=lambda s: seen.append(s) or np.eye(1)
    )
    forward.euler_monte_carlo(spec, 1.0, 16, 10, seed=0)
    assert seen == list(np.linspace(0.0, 1.0, 17)[:16])


def test_mc_reads_the_drift_kernel_once_per_pair():
    seen = []
    spec = forward.FsvieSpec(
        1, lambda t: np.array([1.0]), a0=lambda t, s: seen.append((t, s)) or np.eye(1)
    )
    steps = 2 * forward._MC_BLOCK + 3
    forward.euler_monte_carlo(spec, 1.0, steps, 10, seed=0)
    times = np.linspace(0.0, 1.0, steps + 1)
    assert seen == [(times[i], times[j]) for i in range(1, steps + 1) for j in range(i)]


# Reference: the pair-wise kernel store the row-wise ``_kernel_slabs`` replaced,
# kept verbatim.  The chunk statistics must keep their bits.


def _reference_kernel_slabs(block, steps, n):
    slabs = []
    for i0 in range(1, steps + 1, forward._MC_BLOCK):
        i1 = min(i0 + forward._MC_BLOCK, steps + 1)
        slab = np.zeros(((i1 - i0) * n, (i1 - 1) * n))
        for i in range(i0, i1):
            row = slab[(i - i0) * n:(i - i0 + 1) * n, : i * n]
            np.concatenate([block(i, j) for j in range(i)], axis=1, out=row)
        slabs.append(slab)
    return slabs


def _reference_volterra_kernels(spec, times):
    steps = len(times) - 1
    h = times[-1] / steps
    n = spec.dim
    drift = diffusion = separated = None
    if spec.a0 is not None:
        drift = _reference_kernel_slabs(
            lambda i, j: np.asarray(spec.a0(times[i], times[j]), dtype=float).reshape(n, n),
            steps, n,
        )
        for slab in drift:
            slab *= h
    if spec.a1 is not None:
        separated = np.array([
            np.asarray(spec.a1(times[j]), dtype=float).reshape(n, n) for j in range(steps)
        ])
    elif spec.a1_full is not None:
        diffusion = _reference_kernel_slabs(
            lambda i, j: spec.a1_at(times[i], times[j]).reshape(n, n), steps, n
        )
    return forward._VolterraKernels(drift, diffusion, separated)


def _crosscheck_like_volterra():
    # the shape of the benchmark's cross-check Volterra equation at 128 steps
    return forward.FsvieSpec(1, lambda t: np.array([1.0]),
                             a0=lambda t, s: np.array([[1.0 if t <= 0.45 else 0.0]]),
                             a1=lambda s: np.eye(1))


@pytest.mark.parametrize("spec, steps", [
    pytest.param(_crosscheck_like_volterra(), 128, id="crosscheck-n1"),
] + [case for case in _mc_cases() if isinstance(case.values[0], forward.FsvieSpec)])
def test_mc_volterra_chunk_stats_keep_their_bits_with_the_row_wise_store(spec, steps):
    times = np.linspace(0.0, 1.0, steps + 1)
    got, want = forward._volterra_kernels(spec, times), _reference_volterra_kernels(spec, times)
    for new, old in zip(got, want):
        assert (new is None) == (old is None)
        if new is not None:
            assert all(np.array_equal(a, b) for a, b in zip(new, old, strict=True))
    for c, m in enumerate((700, 300)):
        assert np.array_equal(
            forward._mc_volterra_chunk(spec, got, times, m, _chunk_rng(5, c)),
            forward._mc_volterra_chunk(spec, want, times, m, _chunk_rng(5, c)),
        ), f"chunk {c} differs"


# Reference: the Volterra chunk that drew every increment of the chunk up front,
# ``(steps, m)``, kept verbatim.  The chunk that draws one step's row at a time
# must give the same bits and leave its generator in the same state.


def _reference_mc_volterra_chunk(spec, kernels, times, m, rng):
    """Per-time statistics ``(steps + 1, n + 1)`` of ``m`` Euler paths (see ``_path_stats``)."""
    _MC_BLOCK, _path_stats = forward._MC_BLOCK, forward._path_stats
    steps = len(times) - 1
    n = spec.dim
    dw = math.sqrt(times[-1] / steps) * rng.standard_normal((steps, m))
    xs = np.empty((steps * n, m))
    xdw = np.empty((steps * n, m)) if kernels.diffusion is not None else None
    ito = np.zeros((n, m)) if kernels.separated is not None else None
    terms = [(slabs, hist) for slabs, hist in ((kernels.drift, xs), (kernels.diffusion, xdw))
             if slabs is not None]
    stats = np.empty((steps + 1, n + 1))
    x = xs[:n]
    x[...] = np.atleast_1d(spec.phi(0.0)).astype(float)[:, None]
    _path_stats(x, stats[0])
    for i in range(1, steps + 1):
        j = i - 1  # the newest history row
        if xdw is not None:
            np.multiply(x, dw[j], out=xdw[j * n:i * n])
        if ito is not None:
            ito += kernels.separated[j] @ (x * dw[j])
        b, r = divmod(j, _MC_BLOCK)
        i0 = i - r
        if r == 0:  # first step of a block: the past before the block in one product
            before = [slabs[b][:, : i0 * n] @ hist[: i0 * n] for slabs, hist in terms]
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


def _separated_volterra_n2():
    return forward.FsvieSpec(
        2, lambda t: np.array([1.0, 0.5 + t]),
        a0=lambda t, s: np.array([[-0.5 + t, 0.2], [0.3 * s, 0.1]]),
        a1=lambda s: np.diag([0.8, 0.4 + s]),
    )


def _volterra_chunk_cases():
    """The benchmark's cross-check shape at full chunk size, a two-dimensional
    separated kernel, then every Volterra case of ``_mc_cases``; each runs a
    chunk of the given size and a ragged one of 600."""
    return [
        pytest.param(_crosscheck_like_volterra(), 128, forward._MC_CHUNK, id="crosscheck-n1"),
        pytest.param(_separated_volterra_n2(), 37, 1000, id="separated-n2"),
    ] + [
        pytest.param(*case.values, 700, id=case.id)
        for case in _mc_cases() if isinstance(case.values[0], forward.FsvieSpec)
    ]


def _states_equal(a, b):
    """Bit-generator states (nested dicts holding counter and key arrays) equal."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_states_equal(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_volterra_chunks_bitwise_equal(spec, steps, sizes, seed=9):
    times = np.linspace(0.0, 1.0, steps + 1)
    kernels = forward._volterra_kernels(spec, times)
    for c, m in enumerate(sizes):  # one generator key per chunk, as in euler_monte_carlo
        rng, ref_rng = _chunk_rng(seed, c), _chunk_rng(seed, c)
        got = forward._mc_volterra_chunk(spec, kernels, times, m, rng)
        want = _reference_mc_volterra_chunk(spec, kernels, times, m, ref_rng)
        assert got.shape == (steps + 1, spec.dim + 1)
        assert np.array_equal(got, want), f"chunk {c} differs"
        assert _states_equal(rng.bit_generator.state, ref_rng.bit_generator.state), c


@pytest.mark.parametrize("spec, steps, m", _volterra_chunk_cases())
def test_mc_volterra_chunk_drawing_row_by_row_keeps_its_bits(spec, steps, m):
    _assert_volterra_chunks_bitwise_equal(spec, steps, (m, 600))


@pytest.mark.parametrize("spec", [
    pytest.param(_crosscheck_like_volterra(), id="crosscheck-n1"),
    pytest.param(_separated_volterra_n2(), id="separated-n2"),
    pytest.param(next(c.values[0] for c in _mc_cases() if c.id == "volterra-n2-full"),
                 id="full-n2"),
])
def test_mc_volterra_chunk_of_one_step_and_five_paths_keeps_its_bits(spec):
    _assert_volterra_chunks_bitwise_equal(spec, 1, (5,))


def test_mc_volterra_chunk_holds_one_path_history():
    steps, m = 128, forward._MC_CHUNK
    spec = _crosscheck_like_volterra()
    times = np.linspace(0.0, 1.0, steps + 1)
    kernels = forward._volterra_kernels(spec, times)
    tracemalloc.start()
    try:
        forward._mc_volterra_chunk(spec, kernels, times, m, _chunk_rng(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the history is 16.8 MB; drawing the whole (steps, m) block up front took 36 MB
    assert peak < 24 * 2**20, peak


# -- discrete positivity and comparison ------------------------------------------------


def test_positivity_exact_under_step_bound():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(4, 13))
        a0b = float(rng.uniform(0.2, 2.0))
        a1b = float(rng.uniform(0.0, 2.0))
        h = 0.95 * forward.worst_case_step_bound(a0b, a1b)
        assert h <= 1.0 / a0b and (a1b == 0.0 or h <= 1.0 / a1b**2)
        lat = BinaryLattice(h * N, N)
        a0s = [random_metzler(rng, n, a0b) for _ in range(N)]
        a1s = [np.diag(rng.uniform(-a1b, a1b, n)) for _ in range(N)]
        bs = [rng.uniform(0.0, 1.0, n) for _ in range(N)]
        spec = forward.FsdeSpec(
            n, rng.uniform(0.0, 1.0, n),
            a0=piecewise(a0s, lat), a1=piecewise(a1s, lat), b=piecewise(bs, lat),
        )
        assert forward.solve_fsde(spec, lat).min() >= 0.0


def test_necessity_of_cone_conditions():
    for trial in range(60):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 4))
        lat = BinaryLattice(0.5, 8)
        a0 = random_metzler(rng, n, 0.5)
        a1 = np.diag(rng.uniform(-0.5, 0.5, n))
        if trial % 2 == 0:
            a0[1, 0] = -1.0
        else:
            a1[1, 0] = 1.0
        spec = forward.FsdeSpec(n, np.eye(n)[0], a0=lambda t: a0, a1=lambda t: a1)
        x = forward.solve_fsde(spec, lat)
        assert min(float(np.min(x.at(1))), float(np.min(x.at(2)))) < 0.0


def test_forward_comparison_exact():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(4, 11))
        L = random_metzler(rng, n, 0.6)
        kappa = rng.uniform(0.0, 0.3, n)
        c_sig = rng.uniform(-0.8, 0.8, n)
        alpha = max(1e-9, -float(np.min(np.diag(L))))
        beta = float(np.max(np.abs(c_sig)))
        h = min(
            0.9 * forward.worst_case_step_bound(alpha, beta),
            0.5 / (float(np.abs(L).sum(axis=1).max()) + float(np.max(kappa)) + 1e-9),
        )
        lat = BinaryLattice(h * N, N)
        eps = rng.uniform(0.0, 0.5, n)
        bbar = lambda x: x @ L.T + kappa * np.tanh(x)
        sigma = lambda t, x, nd: c_sig * np.tanh(x)
        x_lo = rng.uniform(-1.0, 1.0, n)
        x_hi = x_lo + rng.uniform(0.0, 1.0, n)
        lo = forward.solve_fsde(
            forward.FsdeSpec(n, x_lo, drift=lambda t, x, nd: bbar(x) - eps, diffusion=sigma),
            lat,
        )
        hi = forward.solve_fsde(
            forward.FsdeSpec(n, x_hi, drift=lambda t, x, nd: bbar(x) + eps, diffusion=sigma),
            lat,
        )
        assert min(float(np.min(hi.at(k) - lo.at(k))) for k in range(N + 1)) >= 0.0


def test_fsde_divergence_names_the_node():
    lat = BinaryLattice(1.0, 4)
    spec = forward.FsdeSpec(
        1, [1.0], drift=lambda t, x, nd: x * np.inf, diffusion=lambda t, x, nd: 0.0 * x
    )
    with pytest.raises(Exception, match="level 1"):
        forward.solve_fsde(spec, lat)
