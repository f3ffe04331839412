import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsvielab import cones
from bsvielab.harness.hypotheses import _outside


def test_identity_is_nonneg():
    assert cones.is_nonneg(np.eye(2), 0.0)


def test_explicit_negative_entry():
    assert not cones.is_nonneg([[1.0, -1.0], [0.0, 2.0]], 0.0)


def test_tolerance_absorbs_arithmetic_noise():
    assert cones.is_nonneg([[0.0, 1e-13], [-1e-13, 0.0]], tol=1e-12)


def test_diagonal_matrix_is_metzler():
    assert cones.is_metzler([[-5.0, 0.0], [0.0, -7.0]], 0.0)


def test_negative_offdiagonal_is_not_metzler():
    assert not cones.is_metzler([[0.0, -1.0], [1.0, 0.0]], 0.0)


@given(st.floats(-1e6, 1e6))
def test_every_1x1_matrix_is_metzler_and_diagonal(v):
    assert cones.is_metzler([[v]], 0.0)
    assert cones.is_metzler([[-v]], 0.0)  # so in the diagonal cone


def test_is_diagonal():
    # the diagonal cone is the Metzler cone intersected with its negative,
    # which is how the hypothesis slate tests diagonal_z
    assert _outside("diagonal", [("key", np.array([[3.0, 0.0], [0.0, -2.0]]))]) is None
    assert _outside("diagonal", [("key", np.array([[3.0, 1e-3], [0.0, -2.0]]))]) == (
        "key", (0, 1), 1e-3
    )


def test_non_square_raises():
    with pytest.raises(ValueError):
        cones.is_metzler(np.ones((2, 3)))


def test_preservation_check_examples():
    assert cones.cone_preservation_check([[1.0, 2.0], [0.0, 3.0]], 100, 0)
    assert not cones.cone_preservation_check([[1.0, -0.5], [0.0, 3.0]], 100, 0)
    # brute force over basis vectors locates the offending column
    a = np.array([[1.0, -0.5], [0.0, 3.0]])
    bad_cols = [j for j in range(2) if np.min(a[:, j]) < 0]
    assert bad_cols == [1]
    assert cones.cone_preservation_check(np.zeros((3, 3)), 100, 0)


def test_preservation_matches_nonnegativity_on_random_matrices():
    rng = np.random.default_rng(123)
    for k in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a = rng.uniform(-1.0, 1.0, (n, m))
        assert cones.cone_preservation_check(a, 16, k) == cones.is_nonneg(a, 0.0)


@settings(max_examples=300)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_metzler_decomposes_into_nonneg_plus_diagonal(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (n, n))
    a[np.diag_indices(n)] = rng.uniform(-1.0, 1.0, n)
    assert cones.is_metzler(a, 0.0)
    off = a - np.diag(np.diag(a))
    assert cones.is_nonneg(off, 0.0)
    assert cones.is_metzler(np.diag(np.diag(a))) and cones.is_metzler(-np.diag(np.diag(a)))


@settings(max_examples=300)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_membership_implications(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    if rng.uniform() < 0.5:
        a = np.abs(a)
    metzler = cones.is_metzler(a)
    if cones.is_nonneg(a):
        assert metzler
    # Metzler is nonnegative off the diagonal
    assert metzler == cones.is_nonneg(a - np.diag(np.diag(a)))


def test_worst_offender_is_most_negative_offdiagonal():
    # the Metzler witness of the hypothesis slate names that entry
    from bsvielab.forward import FsvieSpec
    from bsvielab.harness.hypotheses import check_hypotheses
    from bsvielab.lattice import BinaryLattice

    a = np.array([[-9.0, -0.5], [-2.0, 1.0]])
    assert not cones.is_metzler(a)
    spec = FsvieSpec(2, lambda t: np.ones(2), a0=lambda t, s: a)
    cond = check_hypotheses(spec, BinaryLattice(1.0, 2)).conditions["metzler_y"]
    assert cond.status == "violated"
    assert cond.witness == "t=0,s=0,entry=(1, 0),value=-2"


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_a_stack_gets_the_answer_of_each_matrix(n, count, seed):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-0.2, 1.0, (count, n, n))
    for test in (cones.is_nonneg, cones.is_metzler):
        got = test(stack, 0.1)
        assert got.dtype == bool and got.shape == (count,)
        assert got.tolist() == [test(m, 0.1) for m in stack]


def test_the_first_item_outside_is_named_whatever_the_item_shapes():
    items = [("a", np.ones((1, 2))), ("b", np.array([[1.0], [-0.5], [-2.0]])), ("c", -np.ones((4, 2)))]
    assert _outside("nonneg", items) == ("b", (2, 0), -2.0)
    assert _outside("zero", [("a", np.zeros((2, 2))), ("b", np.full((1, 3), 1e-3))]) == (
        "b", (0, 0), 1e-3)
    assert _outside("nonneg", items[:1]) is None


def test_a_nan_after_the_first_item_outside_still_raises():
    items = [("a", -np.ones((2, 2))), ("b", np.full((2, 2), np.nan))]
    for cone in ("nonneg", "metzler", "diagonal", "zero"):
        with pytest.raises(ValueError, match="non-finite"):
            _outside(cone, items)
