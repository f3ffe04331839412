import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsvielab.errors import DivergenceError
from bsvielab.lattice import (
    AdaptedProcess,
    BinaryLattice,
    IncompleteProcessError,
    NodeId,
    TerminalField,
    TwoParamProcess,
    _first_non_finite,
    branch,
    condition_to,
    conditional_expectation,
    ito_integral,
    martingale_representation,
    reconstruct_from_representation,
    row_sums,
    sign_violation,
    split_children,
)


@pytest.fixture
def lat():
    return BinaryLattice(1.0, 6)


def exhaustive_leaf_mean(lattice, values, level):
    """Independent oracle: lift to leaves, average with weight 2^-N."""
    lifted = lattice.lift(values, level, lattice.depth)
    return lifted.mean(axis=0)


def test_depth_cap():
    with pytest.raises(ValueError):
        BinaryLattice(1.0, 17)


@pytest.mark.parametrize("name, horizon, depth", [
    ("horizon", math.nan, 4), ("horizon", math.inf, 4), ("horizon", -1.0, 4),
    ("horizon", 0.0, 4), ("horizon", "1.0", 4),
    ("depth", 1.0, 2.7), ("depth", 1.0, True), ("depth", 1.0, 0), ("depth", 1.0, "4"),
])
def test_lattice_rejects_a_bad_horizon_or_depth(name, horizon, depth):
    # the checks of lattice.time_grid: a NaN horizon would build all-NaN times,
    # and int() would turn depth=2.7 into 2 and depth=True into 1
    with pytest.raises(ValueError, match=name):
        BinaryLattice(horizon, depth)


def test_lattice_accepts_numpy_numbers():
    lat = BinaryLattice(np.float64(2.0), np.int64(4))
    assert type(lat.depth) is int and lat.depth == 4
    assert lat.horizon == 2.0 and lat.h == 0.5


def test_step_times_horizon_recovers_horizon():
    for depth in (3, 7, 12):
        lat = BinaryLattice(1.0, depth)
        assert abs(lat.h * lat.depth - lat.horizon) <= 1e-15
        assert lat.times[-1] == lat.horizon


def test_conditional_expectation_needs_paired_children():
    with pytest.raises(IncompleteProcessError):
        conditional_expectation(np.zeros((3, 1)))


def test_conditional_expectation_of_equal_children():
    v = np.tile([[2.5]], (8, 1))
    out = conditional_expectation(v)
    assert np.all(out == 2.5)


def test_conditional_expectation_cancels_odd_part():
    v = np.array([[1.0], [-1.0]])
    assert conditional_expectation(v)[0, 0] == 0.0


def test_tower_property_against_exhaustive_sum(lat):
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((64, 3))
    direct = condition_to(xi, 6, 0)[0]
    assert np.max(np.abs(direct - exhaustive_leaf_mean(lat, xi, 6))) <= 1e-14
    # E_j[E_k[xi]] == E_j[xi] for j <= k
    for j in range(4):
        lhs = condition_to(condition_to(xi, 6, 4), 4, j)
        rhs = condition_to(xi, 6, j)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_ito_integral_of_zero_and_one(lat):
    zero = AdaptedProcess.from_function(lat, 1, lambda t, w: np.zeros_like(w))
    out = ito_integral(zero)
    assert all(np.all(out.at(k) == 0.0) for k in range(7))
    one = AdaptedProcess.from_function(lat, 1, lambda t, w: np.ones_like(w))
    w = ito_integral(one)
    for k in range(7):
        assert np.array_equal(w.at(k)[:, 0], lat.brownian_level(k))


def test_ito_integral_is_mean_zero(lat):
    rng = np.random.default_rng(1)
    f = AdaptedProcess.from_function(lat, 1, lambda t, w: np.cos(w) + t)
    integ = ito_integral(f)
    for k in range(7):
        assert abs(exhaustive_leaf_mean(lat, integ.at(k), k)[0]) <= 1e-14


def test_discrete_ito_isometry(lat):
    f = AdaptedProcess.from_function(lat, 1, lambda t, w: np.sin(3 * w) - t * w)
    integ = ito_integral(f)
    lhs = float(np.mean(integ.at(6)[:, 0] ** 2))
    rhs = sum(lat.h * float(np.mean(f.at(k)[:, 0] ** 2)) for k in range(6))
    assert abs(lhs - rhs) <= 1e-12


def test_martingale_representation_constant(lat):
    mean, zs = martingale_representation(lat, np.full((64, 1), 4.2), 6)
    assert mean[0] == pytest.approx(4.2)
    assert all(np.max(np.abs(z)) == 0.0 for z in zs)


def test_martingale_representation_of_brownian_path(lat):
    mean, zs = martingale_representation(lat, lat.brownian_level(6).reshape(-1, 1), 6)
    assert abs(mean[0]) <= 1e-15
    for z in zs:
        assert np.max(np.abs(z - 1.0)) <= 1e-12


def test_martingale_representation_reconstructs_exactly(lat):
    rng = np.random.default_rng(9)
    for level in (3, 6):
        xi = rng.standard_normal((2**level, 2))
        mean, zs = martingale_representation(lat, xi, level)
        recon = reconstruct_from_representation(lat, mean, zs, level)
        assert np.max(np.abs(recon - xi)) <= 1e-13


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(1, 3), st.floats(1e-3, 1e3),
       st.integers(0, 2**32 - 1))
def test_martingale_representation_round_trip(level, dim, scale, seed):
    lattice = BinaryLattice(1.0, 10)
    xi = scale * np.random.default_rng(seed).standard_normal((2**level, dim))
    mean, zs = martingale_representation(lattice, xi, level)
    assert [z.shape for z in zs] == [(2**j, dim) for j in range(level)]
    recon = reconstruct_from_representation(lattice, mean, zs, level)
    assert np.max(np.abs(recon - xi)) <= 1e-13 * np.max(np.abs(xi))


def test_sign_violation_cases(lat):
    nonneg = AdaptedProcess.from_function(lat, 1, lambda t, w: np.abs(w) + 1.0)
    sv = sign_violation(nonneg)
    assert sv.probability == 0.0 and sv.witness is None
    w = AdaptedProcess.from_function(lat, 1, lambda t, w: w)
    sv = sign_violation(w)
    assert sv.per_level[1] == 0.5 and sv.probability == 0.5
    assert sv.witness == NodeId(1, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_sign_violation_counts_non_finite_entries(level, seed, bad):
    lat = BinaryLattice(1.0, 6)
    rng = np.random.default_rng(seed)
    levels = [rng.uniform(0.0, 1.0, (2**k, 2)) for k in range(7)]
    clean = sign_violation(AdaptedProcess(lat, 2, levels))
    assert clean.probability == 0.0 and clean.witness is None
    idx = int(rng.integers(2**level))
    levels[level][idx, int(rng.integers(2))] = bad
    sv = sign_violation(AdaptedProcess(lat, 2, levels))
    assert sv.per_level[level] == Fraction(1, 2**level)
    assert sv.witness == NodeId(level, idx)


def _sign_violation_reference(x):
    """The scan with numpy's short-axis ``np.any``, as sign_violation had it before row_any."""
    per_level = []
    witness = None
    best = Fraction(0)
    for k, lv in enumerate(x.levels):
        bad = ~(np.isfinite(lv) & (lv >= 0.0))
        neg = np.any(bad, axis=1)
        count = int(np.count_nonzero(neg))
        frac = Fraction(count, 2**k)
        per_level.append(frac)
        if count and witness is None:
            witness = NodeId(k, int(np.argmax(neg)))
        if frac > best:
            best = frac
    return best, witness, per_level


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 9]), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_sign_violation_matches_the_any_reference(dim, seed, density):
    lat = BinaryLattice(1.0, 7)
    rng = np.random.default_rng(seed)
    pool = np.array([-1.0, -0.0, np.nan, np.inf, -np.inf, -5e-324])
    levels = []
    for k in range(lat.depth + 1):
        lv = rng.uniform(0.0, 2.0, (2**k, dim))
        mask = rng.random(lv.shape) < density * 0.5**k  # sparser deeper down
        lv[mask] = rng.choice(pool, int(mask.sum()))
        levels.append(lv)
    x = AdaptedProcess(lat, dim, levels)
    sv = sign_violation(x)
    best, witness, per_level = _sign_violation_reference(x)
    assert sv.per_level == per_level
    assert sv.fraction == best and sv.probability == float(best)
    assert sv.witness == witness


def test_min_and_max_abs_propagate_nan_below_the_root():
    lat = BinaryLattice(1.0, 2)
    x = AdaptedProcess(lat, 1, [[1.0], [1.0, np.nan], [2.0, 2.0, 2.0, 2.0]])
    assert np.isnan(x.min())
    assert np.isnan(x.max_abs())
    y = AdaptedProcess(lat, 1, [[1.0], [-3.0, 0.5], [2.0, 2.0, 2.0, 2.5]])
    assert y.min() == -3.0 and y.max_abs() == 3.0


def test_adaptedness_is_structural(lat):
    with pytest.raises(IncompleteProcessError):
        AdaptedProcess(lat, 1, [np.zeros((2**k, 1)) for k in range(6)])  # missing level
    with pytest.raises(IncompleteProcessError):
        TerminalField(lat, 1, np.zeros((6, 64, 1)))  # missing time slice


def test_node_paths():
    node = NodeId(3, 0b010)
    assert node.path == "udu"
    assert str(node) == "L3:udu"
    assert str(NodeId(0, 0)) == "L0:root"


# -- two-parameter slices ----------------------------------------------------------


def _below(rng, i, dim):
    """Row i's slices j < i, shaped as a martingale representation gives them."""
    return [rng.standard_normal((2**j, dim)) for j in range(i)]


def test_two_param_slice_reads_back_bit_for_bit(lat):
    z = TwoParamProcess(lat, 2)
    vals = np.array([[-0.0, np.nan], [np.inf, 1e-310], [-1.5, 0.0], [3.0, -np.inf]])
    z.write_rows(2, 1, 2)[0] = vals
    zs = [np.zeros((1, 2)), np.zeros((2, 2)), vals]
    z.set_below(3, zs)
    for i in (1, 3):
        got = z.get(i, 2)
        assert got.dtype == np.float64 and got.shape == (4, 2)
        assert got.tobytes() == vals.tobytes()
    assert all(z.get(3, j) is zs[j] for j in range(3))  # kept as given, no copy


@pytest.mark.parametrize("values", [
    np.zeros(6),
    np.zeros((4, 3)),
    np.zeros((2, 2)),
    np.zeros(8),                          # flat: set_below converts nothing
    np.zeros((2, 4)),                     # transposed
    np.zeros((4, 2), dtype=np.float32),   # narrower float
    np.zeros((4, 2), dtype=np.int64),     # integer dtype
    [[0.0, 0.0]] * 4,                     # not an ndarray
])
def test_two_param_rejects_a_wrongly_sized_slice(lat, values):
    z = TwoParamProcess(lat, 2)
    with pytest.raises(ValueError, match=r"row 3 takes 3 float64 slices"):
        z.set_below(3, [np.zeros((1, 2)), np.zeros((2, 2)), values])
    assert not z.has(3, 2) and z.pairs() == []


@pytest.mark.parametrize("count", [2, 4])
def test_two_param_set_below_takes_one_slice_per_level_below_the_row(lat, count):
    z = TwoParamProcess(lat, 2)
    with pytest.raises(ValueError, match=r"row 3 takes 3 float64 slices"):
        z.set_below(3, [np.zeros((2**j, 2)) for j in range(count)])
    assert not z.has(3, 0) and z.pairs() == []


def test_two_param_set_below_refuses_a_row_already_set(lat):
    rng = np.random.default_rng(5)
    z = TwoParamProcess(lat, 1)
    first = _below(rng, 2, 1)
    z.set_below(2, first)
    with pytest.raises(ValueError, match="row 2 are already set"):
        z.set_below(2, _below(rng, 2, 1))
    assert z.get(2, 1) is first[1]


def test_two_param_missing_slice_has_and_pairs(lat):
    z = TwoParamProcess(lat, 1)
    with pytest.raises(IncompleteProcessError, match=r"Z\(1,3\)"):
        z.get(1, 3)
    z.write_rows(3, 2, 3)[...] = 1.0
    z.write_rows(1, 0, 1)[...] = 1.0
    z.set_below(2, [np.ones((1, 1)), np.ones((2, 1))])
    assert z.has(2, 3) and z.has(0, 1) and z.has(2, 0) and z.has(2, 1)
    assert not z.has(3, 2) and not z.has(2, 2)
    with pytest.raises(IncompleteProcessError, match=r"Z\(3,2\)"):
        z.get(3, 2)
    assert z.pairs() == [(0, 1), (2, 0), (2, 1), (2, 3)]


@pytest.mark.parametrize("i, j", [(-1, 2), (7, 2), (0, 6), (0, -1)])
def test_two_param_rejects_a_slice_outside_the_triangle(lat, i, j):
    # lat has depth 6: rows 0..6, levels 0..5
    z = TwoParamProcess(lat, 1)
    with pytest.raises(ValueError, match="outside"):
        z.write_rows(j, i, i + 1)
    assert not z.has(i, j) and z.pairs() == []


@pytest.mark.parametrize("i", [-1, 0, 7])
def test_two_param_set_below_refuses_a_row_outside_1_to_n(lat, i):
    z = TwoParamProcess(lat, 1)
    with pytest.raises(ValueError, match="outside"):
        z.set_below(i, [np.ones((2**j, 1)) for j in range(max(i, 0))])
    assert not z.has(i, 0) and z.pairs() == []


def test_two_param_level_rows_are_the_slices(lat):
    rng = np.random.default_rng(3)
    z = TwoParamProcess(lat, 2)
    block = z.write_rows(4, 1, 4)
    block[...] = rng.standard_normal(block.shape)
    z.write_rows(4, 0, 1)[0] = rng.standard_normal((16, 2))
    assert z.pairs() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    rows = z.rows(4, 0, 4)
    assert rows.shape == (4, 16, 2)
    for i in range(4):  # the rows of separate write_rows calls: one view
        assert rows[i].tobytes() == z.get(i, 4).tobytes()
        assert np.shares_memory(rows, z.get(i, 4))
    with pytest.raises(IncompleteProcessError, match=r"Z\(0..4,4\)"):
        z.rows(4, 0, 5)
    with pytest.raises(ValueError, match="already set"):
        z.write_rows(4, 3, 5)


def test_two_param_lifted_is_the_lift_of_each_slice_and_raises_where_unset(lat):
    rng = np.random.default_rng(4)
    z = TwoParamProcess(lat, 2)
    z.set_below(5, _below(rng, 5, 2))
    for lo, hi in ((0, 2), (3, 5), (1, 2), (4, 5), (0, 5)):  # stacks and single slices
        got = z.lifted(5, lo, hi, 4)
        assert got.shape == (hi - lo, 16, 2)
        for r, j in enumerate(range(lo, hi)):
            assert got[r].tobytes() == lat.lift(z.get(5, j), j, 4).tobytes()
    with pytest.raises(IncompleteProcessError, match=r"Z\(4,0..1\) slices not populated"):
        z.lifted(4, 0, 2, 4)  # row 4 is not set
    with pytest.raises(IncompleteProcessError, match=r"Z\(5,4..5\) slices not populated"):
        z.lifted(5, 4, 6, 5)  # slice (5, 5) is not below the diagonal


# -- one level to the next: split_children and branch --------------------------------


def test_split_children_puts_the_up_child_at_twice_the_index():
    for level in range(4):
        values = np.arange(2.0 ** (level + 1))
        up, down = split_children(values)
        for i in range(2**level):
            # the up move appends a 0 bit to the path index, the down move a 1
            assert up[i] == 2 * i and down[i] == 2 * i + 1
            assert NodeId(level + 1, int(up[i])).path == NodeId(level, i).path + "u"
            assert NodeId(level + 1, int(down[i])).path == NodeId(level, i).path + "d"


def test_split_children_views_write_into_the_array():
    values = np.zeros((8, 2))
    up, down = split_children(values)
    up[:] = 1.0
    down[1] = [5.0, 6.0]
    assert values[0::2].tolist() == [[1.0, 1.0]] * 4
    assert values[3].tolist() == [5.0, 6.0]
    assert values[[1, 5, 7]].tolist() == [[0.0, 0.0]] * 3


def test_split_children_of_a_stack_splits_each_slice():
    stack = np.arange(3 * 8 * 2, dtype=float).reshape(3, 8, 2)
    up, down = split_children(stack, axis=1)
    for r in range(3):
        u, d = split_children(stack[r])
        assert up[r].tobytes() == u.tobytes() and down[r].tobytes() == d.tobytes()
    up[:] = -1.0
    assert (stack[:, 0::2] == -1.0).all() and (stack[:, 1::2] >= 0.0).all()


def test_branch_writes_acc_plus_v_up_and_acc_minus_v_down():
    rng = np.random.default_rng(3)
    acc = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 3))
    out = branch(acc, v)
    assert out.shape == (8, 3)
    for i in range(4):
        assert out[2 * i].tobytes() == (acc[i] + v[i]).tobytes()
        assert out[2 * i + 1].tobytes() == (acc[i] - v[i]).tobytes()


def test_branch_keeps_ieee_special_values():
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0]
    acc = np.array([a for a in specials for _ in specials])
    v = np.array([b for _ in specials for b in specials])
    with np.errstate(invalid="ignore"):
        up, down = split_children(branch(acc, v))
        assert up.tobytes() == (acc + v).tobytes()
        assert down.tobytes() == (acc - v).tobytes()
        for scalar in (-0.0, np.nan, np.inf):
            up, down = split_children(branch(acc, scalar))
            assert up.tobytes() == (acc + scalar).tobytes()
            assert down.tobytes() == (acc - scalar).tobytes()
    assert np.signbit(branch(np.array([-0.0]), -0.0)[0])  # -0.0 + -0.0 stays -0.0


def test_branch_takes_a_scalar_on_a_one_dimensional_slice():
    out = branch(np.array([1.0, -3.0]), 0.25)
    assert out.tolist() == [1.25, 0.75, -2.75, -3.25]
    lat = BinaryLattice(1.0, 3)
    assert branch(lat.brownian_level(1), lat.sqrt_h).tobytes() == lat.brownian_level(2).tobytes()


def test_brownian_path_follows_the_ancestors():
    lat = BinaryLattice(1.0, 5)
    node = NodeId(5, 0b01101)
    path = lat.brownian_path(node)
    assert path.shape == (6,)
    for j in range(6):
        assert path[j] == lat.brownian_level(j)[node.index >> (5 - j)]
    for j, move in enumerate(node.path):
        assert path[j + 1] == (path[j] + lat.sqrt_h if move == "u" else path[j] - lat.sqrt_h)


# -- bitwise references for the rewired lattice recursions --------------------------------
# The loops below are these recursions as they were written before the node layout moved
# behind split_children and branch; the library must keep their bits.


def _reference_w_levels(lat):
    w_levels = [np.zeros(1)]
    for k in range(lat.depth):
        w = w_levels[k]
        nxt = np.empty(2 ** (k + 1))
        nxt[0::2] = w + lat.sqrt_h
        nxt[1::2] = w - lat.sqrt_h
        w_levels.append(nxt)
    return w_levels


def _reference_condition_to(values, from_level, to_level):
    v = np.asarray(values, dtype=float)
    for _ in range(from_level - to_level):
        v = 0.5 * (v[0::2] + v[1::2])
    return v


def _reference_ito_integral(integrand):
    lat = integrand.lattice
    n = integrand.dim
    levels = [np.zeros((1, n))]
    for k in range(lat.depth):
        cur = levels[k]
        f = integrand.levels[k]
        nxt = np.empty((2 ** (k + 1), n))
        nxt[0::2] = cur + f * lat.sqrt_h
        nxt[1::2] = cur - f * lat.sqrt_h
        levels.append(nxt)
    return levels


def _reference_representation(lattice, xi, level):
    v = np.asarray(xi, dtype=float)
    z = [np.empty(0)] * level
    for j in range(level - 1, -1, -1):
        z[j] = (v[0::2] - v[1::2]) / (2.0 * lattice.sqrt_h)
        v = 0.5 * (v[0::2] + v[1::2])
    return v[0], z


def _reference_reconstruct(lattice, mean, z, level):
    acc = np.tile(np.asarray(mean, dtype=float).reshape(1, -1), (1, 1))
    for j in range(level):
        nxt = np.empty((2 ** (j + 1), acc.shape[1]))
        nxt[0::2] = acc + z[j] * lattice.sqrt_h
        nxt[1::2] = acc - z[j] * lattice.sqrt_h
        acc = nxt
    return acc


def _assert_lattice_recursions_match_the_reference(depth, n, seed):
    lat = BinaryLattice(1.0, depth)
    rng = np.random.default_rng(seed)
    for k, ref in enumerate(_reference_w_levels(lat)):
        assert lat.brownian_level(k).tobytes() == ref.tobytes(), k
    xi = rng.standard_normal((2**depth, n)) * rng.uniform(0.1, 10.0)
    for to_level in range(depth + 1):
        got = condition_to(xi, depth, to_level)
        assert got.tobytes() == _reference_condition_to(xi, depth, to_level).tobytes()
    mean, zs = martingale_representation(lat, xi, depth)
    ref_mean, ref_zs = _reference_representation(lat, xi, depth)
    assert mean.tobytes() == ref_mean.tobytes()
    assert [z.tobytes() for z in zs] == [z.tobytes() for z in ref_zs]
    # one more input of signed zeros: -0.0 entries and a -0.0 mean
    signed = [np.where(rng.random((2**k, n)) < 0.5, -0.0, 0.0) for k in range(depth + 1)]
    for level in (0, depth // 2, depth):
        rep = martingale_representation(lat, condition_to(xi, depth, level), level)
        for m, zl in (rep, (np.full(n, -0.0), signed)):
            got = reconstruct_from_representation(lat, m, zl, level)
            assert got.tobytes() == _reference_reconstruct(lat, m, zl, level).tobytes(), level
    for levels in ([rng.standard_normal((2**k, n)) for k in range(depth + 1)], signed):
        got = ito_integral(AdaptedProcess(lat, n, levels))
        assert [lv.tobytes() for lv in got.levels] == [
            lv.tobytes() for lv in _reference_ito_integral(AdaptedProcess(lat, n, levels))
        ]
    assert not any(np.signbit(lv).any() for lv in got.levels)  # 0.0 + -0.0 is +0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_lattice_recursions_are_bitwise_equal_to_the_reference(depth, n, seed):
    _assert_lattice_recursions_match_the_reference(depth, n, seed)


def test_deep_lattice_recursions_are_bitwise_equal_to_the_reference():
    _assert_lattice_recursions_match_the_reference(16, 2, 16)


# -- non-finite producers ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ito_integral_names_the_first_non_finite_node(bad):
    lat = BinaryLattice(1.0, 4)
    levels = [np.ones((2**k, 2)) for k in range(5)]
    levels[2][3, 1] = bad
    with pytest.raises(DivergenceError, match=r"ito_integral: .* level 3, node 6$"):
        ito_integral(AdaptedProcess(lat, 2, levels))
    levels[2][3, 1] = 1.0
    levels[4][0, 0] = bad  # the horizon slice is never read
    ito_integral(AdaptedProcess(lat, 2, levels))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_function_rejects_a_non_finite_value(bad):
    lat = BinaryLattice(1.0, 4)

    def fn(t, w):
        out = np.ones((w.size, 2))
        if w.size == 8:
            out[5, 0] = bad
        return out

    with pytest.raises(ValueError, match=r"level 3, node 5$"):
        AdaptedProcess.from_function(lat, 2, fn)


@pytest.mark.parametrize("dim, fn, message", [
    # transposed (dim, 2**k): a reshape would interleave nodes and components
    (2, lambda t, w: np.stack([w, 10.0 + w]), "value of shape (2, 1) at level 0 is not (1, 2)"),
    (2, lambda t, w: w, "value of shape (1,) at level 0 is not (1, 2)"),
    (1, lambda t, w: w[None, :], "value of shape (1, 2) at level 1 is not (2, 1) or (2,)"),
])
def test_from_function_refuses_a_value_of_another_shape(dim, fn, message):
    lat = BinaryLattice(1.0, 3)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        AdaptedProcess.from_function(lat, dim, fn)


# -- short-axis reductions ----------------------------------------------------------------

_IEEE_SPECIALS = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324, -5e-324,
     2.2e-308, -2.2e-308]
)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 11), st.integers(1, 4096), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_row_sums_is_bitwise_equal_to_numpy_sum(dim, rows, seed, special_share):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-300, 301, (rows, dim))
    mask = rng.random(q.shape) < special_share
    q[mask] = rng.choice(_IEEE_SPECIALS, int(mask.sum()))
    q[0] = -0.0  # numpy sums from +0.0, so this row must come out +0.0
    with np.errstate(all="ignore"):
        got, want = row_sums(q), q.sum(axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 5), st.integers(1, 512), st.integers(0, 2**32 - 1))
def test_row_sums_of_a_stack_is_each_slice_row_sums(dim, slices, rows, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((slices, rows, dim))
    q[0, 0] = -0.0
    got = row_sums(q)
    assert got.shape == (slices, rows)
    assert got.tobytes() == np.stack([row_sums(q[k]) for k in range(slices)]).tobytes()


@pytest.mark.parametrize("cells, want", [
    ([], None),
    ([(5, 1)], 5),
    ([(9, 2), (3, 0)], 3),
    ([(0, 0)], 0),
    ([(15, 2)], 15),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_first_non_finite_names_the_first_bad_row(cells, want, bad):
    y = np.ones((16, 3))
    for r, c in cells:
        y[r, c] = bad
    assert _first_non_finite(y) == want
