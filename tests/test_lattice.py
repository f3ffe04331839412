from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsvielab.lattice import (
    AdaptedProcess,
    BinaryLattice,
    IncompleteProcessError,
    NodeId,
    OutOfHorizonError,
    TerminalField,
    TwoParamProcess,
    condition_to,
    conditional_expectation,
    expectation,
    ito_integral,
    martingale_representation,
    reconstruct_from_representation,
    sign_violation,
)


@pytest.fixture
def lat():
    return BinaryLattice(1.0, 6)


def exhaustive_leaf_mean(lattice, values, level):
    """Independent oracle: lift to leaves, average with weight 2^-N."""
    lifted = lattice.lift(values, level, lattice.depth)
    return lifted.mean(axis=0)


def test_increment_values():
    lat = BinaryLattice(0.16, 16)  # h = 0.01
    node = NodeId(0, 0)
    assert lat.increment(node, "up") == pytest.approx(0.1)
    assert lat.increment(node, "down") == pytest.approx(-0.1)
    assert lat.increment(node, "up") + lat.increment(node, "down") == 0.0


def test_increment_past_horizon_raises(lat):
    with pytest.raises(OutOfHorizonError):
        lat.increment(NodeId(6, 0), "up")


def test_depth_cap():
    with pytest.raises(ValueError):
        BinaryLattice(1.0, 17)
    BinaryLattice(1.0, 17, max_depth=17)  # configurable maximum


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


def test_expectation_examples(lat):
    const = AdaptedProcess.constant(lat, [3.0, -1.0])
    assert np.allclose(expectation(const.at(4)), [3.0, -1.0])
    up_indicator = np.array([[1.0], [0.0]])  # level 1
    assert expectation(up_indicator)[0] == 0.5
    rng = np.random.default_rng(5)
    xi = rng.standard_normal((64, 2))
    assert np.max(np.abs(expectation(xi) - exhaustive_leaf_mean(lat, xi, 6))) <= 1e-15


def test_ito_integral_of_zero_and_one(lat):
    zero = AdaptedProcess.constant(lat, [0.0])
    out = ito_integral(zero)
    assert all(np.all(out.at(k) == 0.0) for k in range(7))
    one = AdaptedProcess.constant(lat, [1.0])
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
    w = lat.brownian()
    sv = sign_violation(w)
    assert sv.per_level[1] == 0.5 and sv.probability == 0.5
    assert sv.witness == NodeId(1, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.sampled_from([None, 0, 1]))
def test_sign_violation_counts_non_finite_entries(level, seed, bad, component):
    lat = BinaryLattice(1.0, 6)
    rng = np.random.default_rng(seed)
    levels = [rng.uniform(0.0, 1.0, (2**k, 2)) for k in range(7)]
    clean = sign_violation(AdaptedProcess(lat, 2, levels), component)
    assert clean.probability == 0.0 and clean.witness is None
    idx = int(rng.integers(2**level))
    col = int(rng.integers(2)) if component is None else component
    levels[level][idx, col] = bad
    sv = sign_violation(AdaptedProcess(lat, 2, levels), component)
    assert sv.per_level[level] == Fraction(1, 2**level)
    assert sv.witness == NodeId(level, idx)


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
    assert node.child("up").index == 0b0100
    assert node.child("down").index == 0b0101
    assert node.parent().index == 0b01
    assert node.ancestor(1).index == 0
    assert str(node) == "L3:udu"


# -- two-parameter slices ----------------------------------------------------------


def test_two_param_slice_reads_back_bit_for_bit(lat):
    z = TwoParamProcess(lat, 2)
    vals = np.array([[-0.0, np.nan], [np.inf, 1e-310], [-1.5, 0.0], [3.0, -np.inf]])
    z.set(4, 2, vals)
    got = z.get(4, 2)
    assert got.dtype == np.float64 and got.shape == (4, 2)
    assert got.tobytes() == vals.tobytes()


@pytest.mark.parametrize("values", [
    np.arange(8.0),                      # flat (2**j * dim,)
    np.arange(8, dtype=np.int64),        # integer dtype
    np.arange(8.0, dtype=np.float32),    # narrower float
    list(range(8)),                      # not an ndarray
])
def test_two_param_converts_other_inputs(lat, values):
    z = TwoParamProcess(lat, 2)
    z.set(0, 2, values)
    got = z.get(0, 2)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.arange(8.0).reshape(4, 2))


@pytest.mark.parametrize("values", [np.zeros(6), np.zeros((4, 3)), np.zeros((2, 2))])
def test_two_param_rejects_a_wrongly_sized_slice(lat, values):
    z = TwoParamProcess(lat, 2)
    with pytest.raises(ValueError):
        z.set(0, 2, values)
    assert not z.has(0, 2)


def test_two_param_missing_slice_has_and_pairs(lat):
    z = TwoParamProcess(lat, 1)
    with pytest.raises(IncompleteProcessError, match=r"Z\(1,3\)"):
        z.get(1, 3)
    z.set(2, 3, np.ones((8, 1)))
    z.set(0, 1, np.ones((2, 1)))
    z.set(2, 0, np.ones((1, 1)))
    assert z.has(2, 3) and z.has(0, 1) and not z.has(3, 2)
    assert z.pairs() == [(0, 1), (2, 0), (2, 3)]
