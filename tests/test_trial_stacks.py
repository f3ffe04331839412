"""Trial stacks: a leading trial axis solves independent equations with the bits of each alone.

The reference is the one-at-a-time solve the comparison families made
before they stacked their trials: per-trial specs whose generators close
over one trial's data, ``gbar - eps`` below and ``gbar + eps`` above.
Every level of every trial must equal it by ``np.array_equal`` and carry
the same sign bits.
"""

import math

import numpy as np
import pytest

from bsvielab import backward
from bsvielab.errors import DivergenceError, NonConvergenceError
from bsvielab.harness import scenarios
from bsvielab.lattice import BinaryLattice, TerminalField, _check_finite, _first_non_finite


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _bsde_pair_alone(n, parts):
    """The lower and upper BSDE specs of one trial, as the trial loop built them."""
    a, b, kappa, lo_shift, hi_shift, xi0, xi1 = parts
    eps = hi_shift

    def gbar(t, y, z, nodes):
        return (a @ y.mT).mT + (b @ z.mT).mT + kappa * np.tanh(y)

    lo = backward.BsdeSpec(n, xi0, generator=lambda t, y, z, nd: gbar(t, y, z, nd) - eps)
    hi = backward.BsdeSpec(n, xi1, generator=lambda t, y, z, nd: gbar(t, y, z, nd) + eps)
    return lo, hi


def _bsvie_pair_alone(n, lat, parts):
    """The lower and upper BSVIE specs of one trial, as the trial loop built them."""
    p, b, kappa, lo_shift, hi_shift, psi0, psi1 = parts
    eps_lo, eps_hi = -lo_shift, hi_shift

    def gbar(t, s, y, z, zeta, nodes):
        return (p @ y.mT).mT + (b @ z.mT).mT + kappa * np.tanh(y)

    lo = backward.BsvieSpec(
        n, TerminalField(lat, n, psi0),
        generator=lambda t, s, y, z, zeta, nd: gbar(t, s, y, z, zeta, nd) - eps_lo,
        lip_y=1.0, lip_z=1.0, stacked_t=True,
    )
    hi = backward.BsvieSpec(
        n, TerminalField(lat, n, psi1),
        generator=lambda t, s, y, z, zeta, nd: gbar(t, s, y, z, zeta, nd) + eps_hi,
        lip_y=1.0, lip_z=1.0, stacked_t=True,
    )
    return lo, hi


FAMILIES = {
    "bsde": (scenarios._draw_bsde_pair, scenarios._solve_bsde_stack,
             lambda n, lat, parts: [backward.solve_bsde(s, lat).y
                                    for s in _bsde_pair_alone(n, parts)]),
    "bsvie": (scenarios._draw_bsvie_pair, scenarios._solve_bsvie_stack,
              lambda n, lat, parts: [backward.solve_bsvie_family(s, lat).y.levels
                                     for s in _bsvie_pair_alone(n, lat, parts)]),
}


@pytest.mark.parametrize("seed", [5, 2361])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_level_of_every_stacked_trial_is_its_own_solve(family, n, seed):
    draw, solve_stack, alone = FAMILIES[family]
    rng = np.random.default_rng(seed)
    for depth in (4, 6):
        lat = BinaryLattice(1.0, depth)
        parts = [draw(rng, n, lat) for _ in range(3)]
        levels = solve_stack(lat, n, *scenarios._side_by_side(parts))
        assert len(levels) == depth + 1
        for k, trial in enumerate(parts):
            for side, want in enumerate(alone(n, lat, trial)):
                for got_level, want_level in zip(levels, want):
                    _assert_bit_equal(got_level[2 * k + side], want_level)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_stack_of_one_is_the_solve_alone(family):
    draw, solve_stack, alone = FAMILIES[family]
    rng = np.random.default_rng(11)
    lat = BinaryLattice(1.0, 5)
    parts = draw(rng, 2, lat)
    want = alone(2, lat, parts)[0]  # the lower equation
    a, b, kappa, lo_shift, _, lo_end, _ = parts
    got = solve_stack(lat, 2, a[None], b[None], kappa[None], lo_shift[None], lo_end[None])
    for got_level, want_level in zip(got, want):
        assert got_level.shape == (1,) + want_level.shape
        _assert_bit_equal(got_level[0], want_level)


@pytest.mark.parametrize("seed", [20244, 77])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stacked_family_slacks_are_the_trial_loops(family, seed):
    # the loop: each trial's (n, N) and data drawn in turn, its two solves, its slack
    draw, _, alone = FAMILIES[family]
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(12):
        n = int(rng.integers(1, 4))
        lat = BinaryLattice(1.0, int(rng.integers(4, 7)))
        lo, hi = alone(n, lat, draw(rng, n, lat))
        want.append(scenarios._ordering_slack(hi, lo))
    solve = dict(bsde=scenarios._solve_bsde_stack, bsvie=scenarios._solve_bsvie_stack)[family]
    got = scenarios._comparison_slacks(6, seed, 12, draw, solve)
    _assert_bit_equal(np.array(got), np.array(want))


# -- errors stay per trial -----------------------------------------------------------------


def _tanh_specs(xi, coef, poison=None):
    """A stack of BSDEs with generators ``coef[k] * tanh(y)``, and the spec of each trial alone.

    ``poison(t, k, calls)`` may return an index into trial k's level that is
    set to NaN at the ``calls``-th generator call with time t (calls counted
    in the returned dict).
    """
    calls: dict[float, int] = {}

    def generator(trial):  # trial None: the whole stack
        def gen(t, y, z, nd):
            calls[t] = calls.get(t, 0) + 1
            out = (coef if trial is None else coef[trial]) * np.tanh(y)
            for k in range(len(coef)) if trial is None else [trial]:
                where = poison and poison(t, k, calls[t])
                if where is not None:
                    (out[k] if trial is None else out)[where] = math.nan
            return out

        return gen

    stack = backward.BsdeSpec(xi.shape[-1], xi, generator=generator(None))
    alone = [backward.BsdeSpec(xi.shape[-1], xi[k], generator=generator(k))
             for k in range(len(coef))]
    return stack, alone, calls


def _message(solve):
    with pytest.raises((DivergenceError, NonConvergenceError)) as info:
        solve()
    return type(info.value), str(info.value)


def test_a_nan_trial_raises_its_own_message_with_its_index():
    lat = BinaryLattice(1.0, 4)
    xi = np.random.default_rng(3).standard_normal((4, 16, 2))
    coef = np.full((4, 1, 2), 0.2)
    # NaN at node 5 of level 3 in trials 1 and 3: the lower index raises
    nan_at_node_5 = lambda t, k, calls: 5 if t == lat.times[3] and k in (1, 3) else None
    stack, alone, _ = _tanh_specs(xi, coef, nan_at_node_5)
    kind, msg = _message(lambda: backward.solve_bsde(stack, lat))
    alone_kind, alone_msg = _message(lambda: backward.solve_bsde(alone[1], lat))
    assert (kind, msg) == (alone_kind, f"{alone_msg}, trial=1")
    assert msg == "implicit y-step: non-finite value at level 3, node 5, trial=1"
    for k in (0, 2):
        backward.solve_bsde(alone[k], lat)  # the others solve alone


def test_a_non_converging_trial_quotes_its_own_contraction():
    lat = BinaryLattice(1.0, 2)
    xi = 0.01 * np.random.default_rng(4).standard_normal((3, 4, 1))
    # y = e + h c tanh(y) near y = 0 with h c = 0.98 and 0.99: slow contractions in trials 1, 2
    coef = np.array([0.1, 1.96, 1.98])[:, None, None]
    stack, alone, _ = _tanh_specs(xi, coef)
    kind, msg = _message(lambda: backward.solve_bsde(stack, lat))
    alone_msg = _message(lambda: backward.solve_bsde(alone[1], lat))[1]
    assert (kind, msg) == (NonConvergenceError, f"{alone_msg}, trial=1")
    assert alone_msg != _message(lambda: backward.solve_bsde(alone[2], lat))[1]


def test_a_trial_keeps_its_first_iterate_within_tolerance():
    # trial 0 stops at its first iterate (0 * tanh(y) adds nothing); its later iterates,
    # made while trial 1 goes on, turn NaN and must not reach the result
    lat = BinaryLattice(1.0, 3)
    xi = np.random.default_rng(5).standard_normal((2, 8, 2))
    coef = np.array([0.0, 0.3])[:, None, None] * np.ones((1, 1, 2))
    late_nan = lambda t, k, calls: ... if k == 0 and calls > 2 else None
    stack, alone, calls = _tanh_specs(xi, coef, late_nan)
    got = backward.solve_bsde(stack, lat)
    assert min(calls.values()) > 2  # trial 1 kept the stack iterating
    for k in range(2):
        calls.clear()
        want = backward.solve_bsde(alone[k], lat)
        for got_level, want_level in zip(got.y, want.y):
            _assert_bit_equal(got_level[k], want_level)


def _family_generator(lat, nan_rows, trial=None):
    """``0.1 y``, NaN at level 3 in the explicit steps of rows ``nan_rows[k]`` of trial k.

    ``trial`` None: the stack of three trials; else trial ``trial`` alone.
    """
    trials = range(3) if trial is None else [trial]

    def gen(t, s, y, z, zeta, nd):
        out = 0.1 * y + 0.0 * np.asarray(t)
        if np.ndim(t) and s == lat.times[3]:  # a stacked-t explicit step at level 3
            bad = np.zeros((len(trials), len(t), 1, 1), bool)
            for pos, k in enumerate(trials):
                bad[pos, list(nan_rows.get(k, ()))] = True
            out = np.where(bad if trial is None else bad[0], math.nan, out)
        return out

    return gen


def test_a_family_stack_names_the_lowest_trial_with_a_non_finite_explicit_step():
    # trial 1 has NaN rows 0 and 1 at level 3, trial 2 rows 0..2: trial 1 raises, for
    # its highest row, although trial 2 has a higher one
    lat = BinaryLattice(1.0, 5)
    psi = np.random.default_rng(6).standard_normal((3, 6, 32, 1))
    nan_rows = {1: (0, 1), 2: (0, 1, 2)}
    stack = backward.BsvieSpec(1, TerminalField(lat, 1, psi), uses_z=False, stacked_t=True,
                               generator=_family_generator(lat, nan_rows))
    alone = backward.BsvieSpec(1, TerminalField(lat, 1, psi[1]), uses_z=False, stacked_t=True,
                               generator=_family_generator(lat, nan_rows, trial=1))
    kind, msg = _message(lambda: backward.solve_bsvie_family(stack, lat))
    alone_msg = _message(lambda: backward.solve_bsvie_family(alone, lat))[1]
    assert (kind, msg) == (DivergenceError, f"{alone_msg}, trial=1")
    assert msg == "explicit step of row 1: non-finite value at level 3, node 0, trial=1"


def test_a_trial_stack_refuses_the_sweeps_it_does_not_run():
    lat = BinaryLattice(1.0, 3)
    psi = TerminalField(lat, 1, np.ones((2, 4, 8, 1)))
    gen = lambda t, s, y, z, zeta, nd: 0.1 * y
    with pytest.raises(ValueError, match="stacked_t"):
        backward.solve_bsvie_family(backward.BsvieSpec(1, psi, generator=gen), lat)
    spec = backward.BsvieSpec(1, psi, generator=gen, stacked_t=True)
    with pytest.raises(ValueError, match="frozen_y"):
        backward.solve_bsvie_family(spec, lat, frozen_y=[np.ones((2, 2**k, 1)) for k in range(4)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_stack_names_its_first_trial_with_a_non_finite_row(bad):
    y = np.ones((3, 8, 2))
    assert _first_non_finite(y) is None
    y[2, 1, 0] = y[1, 6, 1] = y[1, 7, 0] = bad
    assert _first_non_finite(y) == (1, 6)
    assert _first_non_finite(y[2]) == 1
    with pytest.raises(DivergenceError, match=r"^what: non-finite value at level 3, node 6, "
                                              r"trial=1$"):
        _check_finite(y, "what")


def test_a_failing_stack_names_the_family_trials_it_holds(monkeypatch):
    # at depth 4 the trials of one dimension share a stack; the upper equation of the
    # second trial of the first stack gets a NaN terminal value: stack position 3
    rng, lat, dims = np.random.default_rng(20244), BinaryLattice(1.0, 4), []
    for _ in range(6):
        dims.append(int(rng.integers(1, 4)))
        rng.integers(4, 5)
        scenarios._draw_bsde_pair(rng, dims[-1], lat)
    first_stack = [k for k in range(6) if dims[k] == dims[0]]
    assert len(first_stack) > 1
    calls, draw = [], scenarios._draw_bsde_pair

    def nan_terminal(rng, n, lat):
        parts = draw(rng, n, lat)
        calls.append(None)
        if len(calls) == 6 + 2:  # pass 1 draws 6 trials, then the first stack's replays
            parts[6][0, 0] = math.nan
        return parts

    monkeypatch.setattr(scenarios, "_draw_bsde_pair", nan_terminal)
    with pytest.raises(DivergenceError, match=(
            r"^implicit y-step: non-finite value at level 3, node 0, trial=3; the stack holds "
            rf"the lower and upper equations of trials \[{', '.join(map(str, first_stack))}\], "
            r"side by side$")):
        scenarios._build_bsde_comparison(4, 20244, 6)
