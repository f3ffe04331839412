import math

import numpy as np
import pytest

from bsvielab import forward, oracles
from bsvielab.lattice import BinaryLattice, NodeId


# -- quadrature ------------------------------------------------------------------


def test_adaptive_simpson_against_closed_forms():
    val, err = oracles.adaptive_simpson(math.exp, 0.0, 1.0, 1e-10)
    assert abs(val - (math.e - 1.0)) <= 1e-10 and err <= 1e-9
    val, err = oracles.adaptive_simpson(lambda x: math.sin(x) ** 2, 0.0, math.pi, 1e-10)
    assert abs(val - math.pi / 2.0) <= 1e-10
    val, err = oracles.adaptive_simpson(lambda x: 1.0, 2.0, 2.0)
    assert val == 0.0 and err == 0.0


# -- deterministic formulas ---------------------------------------------------------


def test_ex26_values():
    assert oracles.ex26(0.0, 1.0) == pytest.approx(1.0)
    assert oracles.ex26(math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert oracles.ex26(1.0) == pytest.approx(2.0 * math.exp(-1.0) - 1.0)
    assert oracles.ex26(1.0) == pytest.approx(-0.26424, abs=5e-6)


def test_ex33_values():
    assert oracles.ex33(2.0, 2.0) == pytest.approx(2.0)  # terminal consistency psi(T) = T
    assert oracles.ex33(0.0, 2.0) == pytest.approx(3.0 * math.exp(-2.0) - 1.0)
    assert oracles.ex33(0.0, 2.0) == pytest.approx(-0.594, abs=5e-4)
    t_star = 2.0 - math.log(3.0)
    assert oracles.ex33(t_star - 1e-9, 2.0) < 0.0 < oracles.ex33(t_star + 1e-9, 2.0)


def test_ex33_satisfies_its_own_equation():
    # residual of Y(t) = t - int_t^T Y(s) ds under the quadrature oracle
    T = 1.5
    for t in (0.0, 0.3, 1.0, 1.4):
        integral, bound = oracles.adaptive_simpson(lambda s: oracles.ex33(s, T), t, T, 1e-11)
        resid = oracles.ex33(t, T) - t + integral
        assert abs(resid) <= 1e-9 + bound


def test_ex35_values_and_sign():
    assert oracles.ex35(1.0, 1.0) == 0.0
    for T in (0.5, 1.0, 2.0, 5.0):
        s = np.linspace(0.0, T, 1000)
        vals = np.array([oracles.ex35(si, T) for si in s])
        assert np.all(vals >= 0.0)


def test_ex34_values():
    val, err = oracles.ex34(3.0, 3.0)
    assert val == 1.0 and err == 0.0
    val, err = oracles.ex34(1.0, 3.0)
    assert val == pytest.approx(1.0, abs=1e-12)  # vanishing prefactor
    val, err = oracles.ex34(0.0, 3.0)
    assert val < 0.0 and err <= 1e-8
    # the integrand exceeds 1 on (2, 3), so the integral alone tops 1
    integral = (1.0 - val)
    assert integral > 1.0


# -- pathwise formulas ---------------------------------------------------------------


def test_ex27_root_value_is_twice_horizon():
    lat = BinaryLattice(1.0, 6)
    val, bound = oracles.ex27(NodeId(0, 0), 1.0, lat)
    assert val == pytest.approx(2.0)
    assert bound == 0.0


def test_ex27_all_down_path_goes_negative():
    lat = BinaryLattice(1.0, 12)
    val, bound = oracles.ex27(NodeId(12, 2**12 - 1), 1.0, lat)  # all-down leaf
    assert val < 0.0


def test_ex27_matches_lattice_solver_within_root_h():
    T = 1.0
    lat = BinaryLattice(T, 12)
    x = forward.solve_linear_fsvie(
        forward.FsvieSpec(1, lambda t: np.array([2 * T - t]), a1=lambda s: np.eye(1)), lat
    )
    worst = 0.0
    for level in range(13):
        ora = [oracles.ex27(NodeId(level, m), T, lat)[0] for m in range(2**level)]
        worst = max(worst, float(np.max(np.abs(x.at(level)[:, 0] - ora))))
    assert worst <= 20.0 * lat.sqrt_h  # measured 15.9 * sqrt(h)


def test_ex210_positive_before_cutoff():
    lat = BinaryLattice(1.0, 12)
    tau = 0.5
    for idx in (0, 5, 2**3 - 1):
        r = oracles.ex210(NodeId(3, idx), tau, 1.0, lat)
        assert r.value > 0.0
        assert math.isnan(r.bracket)


def test_ex210_criterion_leaf_exists_at_depth_12():
    lat = BinaryLattice(1.0, 12)
    tau = 0.5
    neg = 0
    jensen_neg = 0
    for idx in range(2**12):
        r = oracles.ex210(NodeId(12, idx), tau, 1.0, lat)
        if r.bracket < 0.0:
            neg += 1
            assert r.value < 0.0  # the bracket carries the sign past the cutoff
        if r.jensen_criterion < 0.0:
            jensen_neg += 1
    assert neg > 0
    # the convexity-weakened statistic is strictly weaker: it finds nothing at
    # this depth (its most negative reachable value is about -0.36 > -0.82)
    assert jensen_neg == 0


def test_ex210_alternating_path_stays_positive():
    lat = BinaryLattice(1.0, 12)
    # alternate up/down to keep |W| minimal
    idx = int("01" * 6, 2)
    r = oracles.ex210(NodeId(12, idx), 0.5, 1.0, lat)
    assert r.value > 0.0 and r.bracket > 0.0


def test_ex210_requires_grid_cutoff():
    lat = BinaryLattice(1.0, 12)
    with pytest.raises(ValueError):
        oracles.ex210(NodeId(12, 0), 0.51234, 1.0, lat)
