"""Storage order: the levels the solvers make are node-contiguous, and the order changes no bit.

A ``(2**k, n)`` level is Fortran-ordered and a stack ``(rows, 2**k, n)`` has
the memory of a C-ordered ``(rows, n, 2**k)`` array (``lattice`` module
docstring).  Inputs and callback values may come in either order; the
outputs are the same bits.
"""

import numpy as np
import pytest

from bsvielab import backward, forward, lattice
from bsvielab.backward import BsdeSpec, BsvieSpec
from bsvielab.forward import FsdeSpec, FsvieSpec
from bsvielab.lattice import AdaptedProcess, BinaryLattice, TerminalField

DEPTH, N = 8, 2


def _node_contiguous(a: np.ndarray) -> bool:
    """The node axis (second last) is contiguous and each slice, or the stack, is one block."""
    return np.swapaxes(a, -1, -2).flags.c_contiguous


def _node_major_copy(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` in the node-contiguous order."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)


def _bytes(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]  # C-order bytes whatever the layout


def _z_slices(z) -> list[np.ndarray]:
    return [z.get(i, j) for i, j in z.pairs()]


@pytest.fixture
def lat():
    return BinaryLattice(1.0, DEPTH)


@pytest.fixture
def rng():
    return np.random.default_rng(20)


def _mats(rng, scale: float):
    mats = [rng.uniform(-scale, scale, (N, N)) for _ in range(DEPTH + 1)]
    return lambda t: mats[min(int(round(t * DEPTH)), DEPTH)]


def _same(v):
    return v


def _bsvie_spec(rng, lat, psi_values, wrap=_same) -> BsvieSpec:
    """A generator spec whose value goes through ``wrap``."""
    a = _mats(rng, 0.3)
    return BsvieSpec(
        N, TerminalField(lat, N, psi_values),
        generator=lambda t, s, y, z, zeta, nd: wrap(0.2 * np.sin(y) + ((a(s) * (1 + t)) @ z.mT).mT),
        lip_y=0.2,
    )


def _msolution_spec(rng, lat, psi_values) -> BsvieSpec:
    a, c = _mats(rng, 0.3), _mats(rng, 0.5)
    return BsvieSpec(N, TerminalField(lat, N, psi_values), a_kernel=lambda t, s: a(s) * (1 - t),
                     c_coef=c, uses_z=False, uses_zeta=True)


def test_solver_levels_and_z_blocks_are_node_contiguous(lat, rng):
    x0 = rng.uniform(0.0, 1.0, N)
    a0, a1 = _mats(rng, 0.5), _mats(rng, 0.3)
    phi = AdaptedProcess(lat, N, [rng.uniform(0.0, 1.0, (2**k, N)) for k in range(DEPTH + 1)])
    xi = rng.standard_normal((2**DEPTH, N))
    psi = rng.standard_normal((DEPTH + 1, 2**DEPTH, N))

    x = forward.solve_fsde(FsdeSpec(N, x0, a0=a0, a1=a1), lat)
    # a forward callback's C-ordered value does not reach the levels: branch writes them
    xg = forward.solve_fsde(FsdeSpec(N, x0, drift=lambda t, v, nd: np.ascontiguousarray(v),
                                     diffusion=lambda t, v, nd: 0.1 * v), lat)
    levels = {
        "solve_fsde": x.levels,
        "solve_fsde (callables)": xg.levels,
        "solve_linear_fsvie": forward.solve_linear_fsvie(
            FsvieSpec(N, phi, a0=lambda t, s: a0(s), a1=a1), lat).levels,
        "solve_linear_fsvie (callable phi)": forward.solve_linear_fsvie(
            FsvieSpec(N, lambda t: x0, a0=lambda t, s: a0(s), a1_full=lambda t, s: a1(s) * t),
            lat).levels,
        "picard_fsvie": forward.picard_fsvie(
            FsvieSpec(N, phi, a0=lambda t, s: np.abs(a0(s))), lat)[0].levels,
        "ito_integral": lattice.ito_integral(x).levels,
        "martingale_representation": lattice.martingale_representation(lat, xi, DEPTH)[1],
    }
    linear = backward.solve_bsde(BsdeSpec(N, xi, a=lambda t: -np.abs(a0(t)), b=a1), lat)
    general = backward.solve_bsde(
        BsdeSpec(N, xi, generator=lambda t, y, z, nd: np.tanh(y) + z, lip_y=1.0), lat)
    for name, sol in (("solve_bsde", linear), ("solve_bsde (generator)", general)):
        # y[N] is the caller's terminal field itself, in the caller's order
        levels[name] = sol.y[:DEPTH] + sol.z
    # a C-ordered generator value gives its y-levels that order; Z is read along the nodes
    c_valued = backward.solve_bsde(
        BsdeSpec(N, xi, generator=lambda t, y, z, nd: np.ascontiguousarray(np.tanh(y) + z),
                 lip_y=1.0), lat)
    levels["solve_bsde (C-valued generator) z"] = c_valued.z
    family = backward.solve_bsvie_family(_bsvie_spec(rng, lat, psi), lat)
    msol = backward.solve_bsvie_msolution(_msolution_spec(rng, lat, psi), lat)
    for name, sol in (("solve_bsvie_family", family), ("solve_bsvie_msolution", msol)):
        levels[name] = sol.y.levels + _z_slices(sol.z)
        levels[name + " z rows"] = [sol.z.rows(j, 0, j + 1) for j in range(DEPTH)]
    levels["lifted"] = [msol.z.lifted(DEPTH, 0, k, DEPTH) for k in (1, 2, DEPTH)]
    bad = [f"{name}[{k}]" for name, lvs in levels.items() for k, lv in enumerate(lvs)
           if not _node_contiguous(lv)]
    assert bad == []


def test_c_and_fortran_ordered_inputs_give_the_same_bits(lat, rng):
    xi = rng.standard_normal((2**DEPTH, N))
    psi = rng.standard_normal((DEPTH + 1, 2**DEPTH, N))
    phi_levels = [rng.uniform(0.0, 1.0, (2**k, N)) for k in range(DEPTH + 1)]
    a0, a1 = _mats(rng, 0.5), _mats(rng, 0.3)
    bsvie_seed = int(rng.integers(2**31))

    def outputs(order_of):
        xi_o = order_of(xi)
        phi = AdaptedProcess(lat, N, [order_of(lv) for lv in phi_levels])
        mean, z = lattice.martingale_representation(lat, xi_o, DEPTH)
        bsde = BsdeSpec(N, xi_o, a=lambda t: -np.abs(a0(t)), b=a1, forcing=lambda t: a0(t)[0])
        sol = backward.solve_bsde(bsde, lat)
        fam = backward.solve_bsvie_family(
            _bsvie_spec(np.random.default_rng(bsvie_seed), lat, order_of(psi)), lat)
        msol = backward.solve_bsvie_msolution(
            _msolution_spec(np.random.default_rng(bsvie_seed), lat, order_of(psi)), lat)
        out = [mean, *z, lattice.condition_to(xi_o, DEPTH, 3), *sol.y, *sol.z,
               backward.bsde_duality_check(bsde, a0(0)[1], 2, lat)]
        out += forward.solve_linear_fsvie(FsvieSpec(N, phi, a0=lambda t, s: a0(s), a1=a1),
                                          lat).levels
        out += forward.picard_fsvie(FsvieSpec(N, phi, a0=lambda t, s: np.abs(a0(s))), lat)[0].levels
        out += fam.y.levels + _z_slices(fam.z) + msol.y.levels + _z_slices(msol.z)
        return _bytes(out + [msol.msolution_residual])

    want = outputs(np.ascontiguousarray)
    assert outputs(np.asfortranarray) == want
    assert outputs(_node_major_copy) == want


def test_a_callback_value_in_c_order_gives_the_same_bits(lat, rng):
    xi = rng.standard_normal((2**DEPTH, N))
    psi = rng.standard_normal((DEPTH + 1, 2**DEPTH, N))
    a = _mats(rng, 0.3)
    bsvie_seed = int(rng.integers(2**31))

    def outputs(wrap):
        bsde = BsdeSpec(N, xi, generator=lambda t, y, z, nd: wrap(0.5 * np.tanh(y) + z @ a(t).T),
                        lip_y=0.5)
        sol = backward.solve_bsde(bsde, lat)
        fam = backward.solve_bsvie_family(
            _bsvie_spec(np.random.default_rng(bsvie_seed), lat, psi, wrap), lat)
        x = forward.solve_fsde(FsdeSpec(N, np.ones(N), drift=lambda t, v, nd: wrap(v @ a(t).T),
                                        diffusion=lambda t, v, nd: wrap(0.1 * v)), lat)
        return _bytes([*sol.y, *sol.z, *fam.y.levels, *_z_slices(fam.z), *x.levels])

    assert outputs(np.ascontiguousarray) == outputs(_same)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_product_turned_round_has_the_bits_of_the_row_major_one(n):
    """``(A @ y.mT).mT`` equals ``y @ A.mT`` bit for bit on C- and Fortran-ordered levels and
    on their children's stride-2 views, the operands of every library product."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    for m in (1, 2, 7, 256, 4096):
        base = rng.standard_normal((2 * m, n))
        for level in (np.ascontiguousarray(base), np.asfortranarray(base)):
            for y in (level, level[0::2], level[1::2]):
                assert (a @ y.mT).mT.tobytes() == (y @ a.mT).tobytes()
