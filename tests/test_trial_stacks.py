"""Trial stacks: a leading trial axis solves independent equations with the bits of each alone.

The reference is the one-at-a-time solve the comparison families made
before they stacked their trials: per-trial specs whose generators close
over one trial's data, ``gbar - eps`` below and ``gbar + eps`` above, and
the structured-piece specs of ``structured_pair_reference`` for Theorems
3.7 and 3.10.  Every level of every trial must equal it by
``np.array_equal`` and carry the same sign bits.
"""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from bsvielab import backward
from bsvielab.errors import DivergenceError, NonConvergenceError
from bsvielab.harness import scenarios
from bsvielab.harness.scenarios import (
    Check,
    HypothesisReport,
    ScenarioOutcome,
    _ordering_slack,
    _worst_trial,
)
from bsvielab.lattice import BinaryLattice, TerminalField, _check_finite, _first_non_finite

import picard_contraction_reference
from structured_pair_reference import structured_pair as _structured_pair


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _bsde_pair_alone(n, parts):
    """The lower and upper BSDE specs of one trial, as the trial loop built them."""
    (a, b, kappa), (lo_shift, xi0), (hi_shift, xi1) = parts
    eps = hi_shift

    def gbar(t, y, z, nodes):
        return (a @ y.mT).mT + (b @ z.mT).mT + kappa * np.tanh(y)

    lo = backward.BsdeSpec(n, xi0, generator=lambda t, y, z, nd: gbar(t, y, z, nd) - eps)
    hi = backward.BsdeSpec(n, xi1, generator=lambda t, y, z, nd: gbar(t, y, z, nd) + eps)
    return lo, hi


def _bsvie_pair_alone(n, lat, parts):
    """The lower and upper BSVIE specs of one trial, as the trial loop built them."""
    (p, b, kappa), (lo_shift, psi0), (hi_shift, psi1) = parts
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
    got = solve_stack(lat, 2, *(v[:1] for v in scenarios._side_by_side([parts])))
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
    size = lambda rng: (int(rng.integers(1, 4)), int(rng.integers(4, 7)))
    got = scenarios._comparison_trials(seed, 12, size, draw, solve, scenarios._slack_tuples)
    _assert_bit_equal(np.array(got), np.array(want)[:, None])


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
    frozen = [np.ones((2, 2**k, 1)) for k in range(4)]
    with pytest.raises(ValueError, match="M-solution sweep takes no frozen y"):
        backward.solve_bsvie_family(spec, lat, frozen_y=frozen, _msolution=True)


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


def _bsde_family_draws(seed, trials):
    """Each trial's n and data as thm2.5-random draws them at depth 4, where every N is 4."""
    rng, lat, draws = np.random.default_rng(seed), BinaryLattice(1.0, 4), []
    for _ in range(trials):
        n = int(rng.integers(1, 4))
        rng.integers(4, 5)
        draws.append((n, scenarios._draw_bsde_pair(rng, n, lat)))
    return draws


def test_a_failing_stack_names_the_family_trials_it_holds(monkeypatch):
    # at depth 4 the trials of one dimension share a stack; the upper equation of the
    # second trial of the first stack gets a NaN terminal value in every draw of it
    draws = _bsde_family_draws(20244, 6)
    first_stack = [k for k in range(6) if draws[k][0] == draws[0][0]]
    assert len(first_stack) > 1
    target = draws[first_stack[1]][1][2][1]  # its upper terminal field
    draw = scenarios._draw_bsde_pair

    def nan_terminal(rng, n, lat):
        shared, lower, upper = draw(rng, n, lat)
        if np.array_equal(upper[1], target):
            upper[1][0, 0] = math.nan
        return shared, lower, upper

    monkeypatch.setattr(scenarios, "_draw_bsde_pair", nan_terminal)
    with pytest.raises(DivergenceError, match=(
            r"^implicit y-step: non-finite value at level 3, node 0; "
            rf"family trial {first_stack[1]}, upper equation$")):
        scenarios._build_bsde_comparison(4, 20244, 6)


def test_a_failing_stack_raises_what_the_trial_loop_raises_first(monkeypatch):
    # trials 0 and 1 share a stack; trial 0's lower equation turns NaN at level 1 and trial
    # 1's upper one at level 3.  The sweep meets level 3 first, but the loop over the trials
    # solves trial 0 first, so trial 0's error is the one raised
    seed = next(s for s in range(100) if len({n for n, _ in _bsde_family_draws(s, 2)}) == 1)
    draws = _bsde_family_draws(seed, 2)
    nan_levels = [(draws[0][1][1][1], 1), (draws[1][1][2][1], 3)]  # (terminal field, level)
    solve = backward.solve_bsde

    def nan_at_level(spec, lat):
        xi = spec.terminal_field(lat)
        stack = xi.ndim == 3
        levels = [next((level for field, level in nan_levels if np.array_equal(x, field)), None)
                  for x in (xi if stack else [xi])]
        generator = spec.generator

        def gen(t, y, z, nodes):
            out = generator(t, y, z, nodes)
            for pos, level in enumerate(levels):
                if level is not None and t == lat.times[level]:
                    (out[pos] if stack else out)[0] = math.nan
            return out

        return solve(dataclasses.replace(spec, generator=gen), lat)

    monkeypatch.setattr(backward, "solve_bsde", nan_at_level)
    n, parts = draws[0]
    lower = _bsde_pair_alone(n, parts)[0]
    alone_msg = _message(lambda: backward.solve_bsde(lower, BinaryLattice(1.0, 4)))[1]
    assert alone_msg == "implicit y-step: non-finite value at level 1, node 0"
    kind, msg = _message(lambda: scenarios._build_bsde_comparison(4, seed, 2))
    assert (kind, msg) == (DivergenceError, f"{alone_msg}; family trial 0, lower equation")


# -- the structured-pair families: Theorems 3.7 and 3.10 ------------------------------------

STRUCTURED = {
    # coupling: the stacked solve and the solve of one reference spec
    "z": (scenarios._solve_z_pair_stack, backward.solve_bsvie_family),
    "zeta": (scenarios._solve_zeta_pair_stack, backward.solve_bsvie_msolution),
}


def _assert_trial_is_its_own_solve(got, pos, want):
    """Stack position ``pos`` of ``got`` is ``want``: Y levels, Z on both sides, residual."""
    for got_level, want_level in zip(got.y.levels, want.y.levels, strict=True):
        _assert_bit_equal(got_level[pos], want_level)
    assert got.z.pairs() == want.z.pairs()
    for i, j in want.z.pairs():  # the upper slices j >= i and an M-solution's j < i
        _assert_bit_equal(got.z.get(i, j)[pos], want.z.get(i, j))
    if want.msolution_residual is None:
        assert got.msolution_residual is None
    else:
        _assert_bit_equal(np.array(got.msolution_residual[pos]),
                          np.array(want.msolution_residual))


@pytest.mark.parametrize("seed", [20247, 7])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coupling", sorted(STRUCTURED))
def test_every_structured_trial_is_its_own_solve(coupling, n, seed):
    solve_stack, solve_alone = STRUCTURED[coupling]
    for depth in (5, 7):
        lat = BinaryLattice(1.0, depth)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        parts = [scenarios._draw_structured_pair(rng, n, lat, coupling) for _ in range(3)]
        specs = [_structured_pair(ref_rng, n, lat, coupling) for _ in range(3)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        got = solve_stack(lat, n, *scenarios._side_by_side(parts))
        for k, pair in enumerate(specs):
            for side, spec in enumerate(pair):
                _assert_trial_is_its_own_solve(got, 2 * k + side, solve_alone(spec, lat))


@pytest.mark.parametrize("coupling", sorted(STRUCTURED))
def test_a_structured_stack_of_one_is_the_solve_alone(coupling):
    solve_stack, solve_alone = STRUCTURED[coupling]
    lat = BinaryLattice(1.0, 6)
    stacked = scenarios._side_by_side(
        [scenarios._draw_structured_pair(np.random.default_rng(11), 2, lat, coupling)])
    pair = _structured_pair(np.random.default_rng(11), 2, lat, coupling)
    for side, spec in enumerate(pair):
        got = solve_stack(lat, 2, *(v[side:side + 1] for v in stacked))
        assert got.y.levels[0].shape == (1, 1, 2)
        _assert_trial_is_its_own_solve(got, 0, solve_alone(spec, lat))


# The trial loops of Theorems 3.7 and 3.10 as they were before the families stacked their
# trials, verbatim: the reference for every trial's tuple and for the outcome.


def _build_structured_comparison(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(4, depth + 1))
        lat = BinaryLattice(1.0, N)
        lo, hi = _structured_pair(rng, n, lat, coupling="z")
        f_lo = backward.solve_bsvie_family(lo, lat)
        f_hi = backward.solve_bsvie_family(hi, lat)
        return (_ordering_slack(f_hi.y.levels, f_lo.y.levels),)

    worst, witness, _ = _worst_trial(trials, trial)
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction(
            "metzler_y", "diagonal_z", "kernel_t_monotone",
            "difference_monotone", "free_term_monotone",
        ),
        checks=[Check("ordering_slack_below_zero", -worst, 1e-12)],
        witness=witness,
    )


def _build_weak_comparison(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        N = int(rng.integers(5, depth + 1))
        lat = BinaryLattice(1.0, N)
        lo, hi = _structured_pair(rng, 1, lat, coupling="zeta")
        m_lo = backward.solve_bsvie_msolution(lo, lat)
        m_hi = backward.solve_bsvie_msolution(hi, lat)
        w_lo = backward.weak_comparison_functional(m_lo.y, lat)
        w_hi = backward.weak_comparison_functional(m_hi.y, lat)
        return (
            _ordering_slack(w_hi.levels, w_lo.levels),
            _ordering_slack(m_hi.y.levels, m_lo.y.levels),
            m_lo.msolution_residual, m_hi.msolution_residual,
        )

    worst_weak, witness, results = _worst_trial(trials, trial)
    worst_res = float(np.max([0.0, *(v for r in results for v in r[2:])]))
    # a NaN pointwise slack is no failure: it must not satisfy the check below
    pointwise = [r[1] for r in results if r[1] < -1e-9]
    pointwise_failures = len(pointwise)
    worst_pointwise = float(np.min([0.0, *pointwise]))
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction(
            "metzler_y", "diagonal_z", "kernel_t_monotone",
            "difference_monotone", "free_term_monotone", "zeta_coeff_s_free",
        ),
        checks=[
            Check("weak_ordering_slack_below_zero", -worst_weak, 1e-10),
            Check("pointwise_failure_missing", 1.0 if pointwise_failures == 0 else 0.0, 0.0),
            Check("msolution_residual", worst_res, 1e-12),
        ],
        witness=witness,
        details={
            "pointwise_failures": pointwise_failures,
            "worst_pointwise_slack": worst_pointwise,
        },
    )


LOOPS = {
    "thm3.7-random": (_build_structured_comparison, scenarios._build_structured_comparison),
    "thm3.10-random": (_build_weak_comparison, scenarios._build_weak_comparison),
}


def _tuples_and_outcome(monkeypatch, module, build, *args):
    """Each trial's tuple as ``build``'s ``_worst_trial`` in ``module`` sees it, and the outcome."""
    seen, worst_trial = [], module._worst_trial

    def recording(trials, trial, *label):
        worst, witness, results = worst_trial(trials, trial, *label)
        seen.extend(results)
        return worst, witness, results

    with monkeypatch.context() as patch:
        patch.setattr(module, "_worst_trial", recording)
        outcome = build(*args)
    return seen, outcome


@pytest.mark.parametrize("offset", [0, 2361])
@pytest.mark.parametrize("name", sorted(LOOPS))
def test_structured_family_tuples_are_the_trial_loops(monkeypatch, name, offset):
    loop, stacked = LOOPS[name]
    entry = scenarios.REGISTRY[name]
    args = (entry.default_depth, entry.default_seed + offset, 30)
    want, want_outcome = _tuples_and_outcome(monkeypatch, sys.modules[__name__], loop, *args)
    got, got_outcome = _tuples_and_outcome(monkeypatch, scenarios, stacked, *args)
    assert len(got) == 30
    _assert_bit_equal(np.array(got), np.array(want))
    assert got_outcome == want_outcome


@pytest.mark.parametrize("where", ["explicit", "diagonal", "representation"])
def test_an_msolution_stack_names_its_lowest_failing_trial(monkeypatch, where):
    # trials 1 and 2 of three turn NaN at one step: trial 1 raises, its own message plus trial=1.
    # "explicit" and "diagonal": the drift at level 3, node 0, in the explicit update of the
    # rows below row 3 or in row 3's diagonal step; "representation": the slice Z(t_4, t_2)
    # that row 4's martingale representation attaches, which row 2 reads at level 4
    lat = BinaryLattice(1.0, 5)
    psi = np.random.default_rng(8).standard_normal((3, 6, 32, 1))
    coef = np.array([0.5, -0.4, 0.3])
    solving = {"trial": None}  # the trial solved alone, None while the stack is solved

    def nan_at_node_0(value, k):
        if k in (1, 2):
            value[..., 0, :] = math.nan

    def generator(trial):
        def gen(t, s, y, z, zeta, nd):
            out = 0.2 * np.tanh(y) + (coef[:, None, None, None] if trial is None
                                      else coef[trial]) * zeta
            if s == lat.times[3] and where == ("diagonal" if np.ndim(t) == 0 else "explicit"):
                for pos, k in enumerate(range(3) if trial is None else [trial]):
                    nan_at_node_0(out[pos] if trial is None else out, k)
            return out

        return gen

    represent = backward.martingale_representation

    def representation(lattice, xi, level):
        mean, zs = represent(lattice, xi, level)
        if where == "representation" and level == 4:
            for pos, k in enumerate(range(3) if solving["trial"] is None else [solving["trial"]]):
                nan_at_node_0(zs[2][pos] if solving["trial"] is None else zs[2], k)
        return mean, zs

    monkeypatch.setattr(backward, "martingale_representation", representation)

    def solve(trial):
        solving["trial"] = trial
        spec = backward.BsvieSpec(
            1, TerminalField(lat, 1, psi if trial is None else psi[trial]),
            generator=generator(trial), uses_z=False, uses_zeta=True, stacked_t=True)
        return backward.solve_bsvie_msolution(spec, lat)

    kind, msg = _message(lambda: solve(None))
    alone_kind, alone_msg = _message(lambda: solve(1))
    assert (kind, msg) == (alone_kind, f"{alone_msg}, trial=1")
    assert alone_msg == {
        "explicit": "explicit step of row 2: non-finite value at level 3, node 0",
        "diagonal": "diagonal y-step: non-finite value at level 3, node 0",
        "representation": "explicit step of row 2: non-finite value at level 4, node 0",
    }[where]
    assert solve(0).msolution_residual < 1e-12  # trial 0 solves alone


# -- the frozen-y successive scheme: picard-contraction -------------------------------------


def _arctan_spec(lat, n, psi, b):
    """A spec with generator ``arctan(y) + B z``: b one ``(n, n)`` matrix, or ``(trials, 1, n, n)``."""
    return backward.BsvieSpec(
        n, TerminalField(lat, n, psi), generator=lambda t, s, y, z, zeta, nd: (
            np.arctan(y) + (b @ z.mT).mT), lip_y=1.0, lip_z=0.6, stacked_t=True)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("depth", [5, 7])
def test_each_trial_of_a_stacked_frozen_sweep_is_its_own_frozen_sweep(depth, n, trials):
    rng = np.random.default_rng(100 * depth + 10 * n + trials)
    lat = BinaryLattice(1.0, depth)
    psi = rng.standard_normal((trials, depth + 1, 2**depth, n))
    b = np.stack([np.diag(rng.uniform(-0.4, 0.4, n)) for _ in range(trials)])
    frozen = [rng.standard_normal((trials, 2**k, n)) for k in range(depth + 1)]
    got = backward.solve_bsvie_family(_arctan_spec(lat, n, psi, b[:, None]), lat, frozen_y=frozen)
    assert got.y.levels[0].shape == (trials, 1, n)
    for k in range(trials):
        want = backward.solve_bsvie_family(_arctan_spec(lat, n, psi[k], b[k]), lat,
                                           frozen_y=[lv[k] for lv in frozen])
        _assert_trial_is_its_own_solve(got, k, want)


def _picard_pair_alone(n, lat, parts):
    """The upper and comparator specs of one trial, as the trial loop built them."""
    b, eps, psibar, psi1 = parts
    comp = _arctan_spec(lat, n, psibar, b)
    upper = backward.BsvieSpec(
        n, TerminalField(lat, n, psi1),
        generator=lambda t, s, y, z, zeta, nd: comp.generator(t, s, y, z, zeta, nd) + eps,
        lip_y=1.0, lip_z=0.6, stacked_t=True)
    return upper, comp


@pytest.mark.parametrize("seed, depth, n, trials", [
    (24, 5, 1, 12), (22, 6, 2, 6), (27, 7, 1, 10), (23, 8, 2, 1),
])
def test_each_trial_of_a_stacked_scheme_is_its_own_scheme(seed, depth, n, trials):
    rng = np.random.default_rng(seed)
    lat = BinaryLattice(1.0, depth)
    draws = [scenarios._draw_picard_pair(rng, n, lat) for _ in range(trials)]
    sol, hists = scenarios._solve_picard_stack(lat, n, *(np.stack(v) for v in zip(*draws)))
    assert len(hists) == trials
    if trials > 1:  # the trials stop at different sweeps, so each final iterate is held apart
        assert len({hist.iterations for hist in hists}) > 1
    for k, parts in enumerate(draws):
        want_sol, want = backward.picard_bsvie(*_picard_pair_alone(n, lat, parts), lat)
        got = hists[k]
        assert (got.beta, got.iterations) == (want.beta, want.iterations)
        for name in ("diff_norms", "ratios", "max_increase"):
            assert all(type(v) is float for v in getattr(got, name))
            _assert_bit_equal(np.array(getattr(got, name)), np.array(getattr(want, name)))
        _assert_trial_is_its_own_solve(sol, k, want_sol)


def _linear_scheme(lat, psi, coef):
    """Upper ``0.1 y`` above a comparator ``coef * y``; coef a float, or one per trial of psi."""
    c = coef if np.ndim(coef) == 0 else np.asarray(coef)[:, None, None, None]
    upper = backward.BsvieSpec(1, TerminalField(lat, 1, psi + 1.0), uses_z=False,
                               generator=lambda t, s, y, z, zeta, nd: 0.1 * y, stacked_t=True)
    comp = backward.BsvieSpec(1, TerminalField(lat, 1, psi), uses_z=False, lip_y=1.0,
                              generator=lambda t, s, y, z, zeta, nd: c * y, stacked_t=True)
    return upper, comp


@pytest.mark.parametrize("bad, kind, alone", [
    (math.nan, DivergenceError, "frozen-y sweep of row 4: non-finite value at level 4, node 0"),
    # h * 9 = 1.8 on the diagonal: the iterates grow, finite, for all 50 sweeps
    (9.0, NonConvergenceError, r"successive scheme not below 1e-10 after 50 iterations "
                               r"\(last ratio [0-9.]+\)"),
])
def test_a_failing_scheme_trial_raises_its_own_message_with_its_index(bad, kind, alone):
    # trial 0 contracts; trial 1 turns NaN in its first frozen sweep, or never contracts
    lat = BinaryLattice(1.0, 5)
    psi = np.random.default_rng(9).standard_normal((3, 6, 32, 1))
    coef = [0.5, bad, 0.4]
    got_kind, msg = _message(lambda: backward.picard_bsvie(*_linear_scheme(lat, psi, coef), lat))
    alone_kind, alone_msg = _message(
        lambda: backward.picard_bsvie(*_linear_scheme(lat, psi[1], coef[1]), lat))
    assert (got_kind, msg) == (alone_kind, f"{alone_msg}, trial=1")
    assert got_kind is kind and re.fullmatch(alone, alone_msg)
    for k in (0, 2):  # the others run alone
        backward.picard_bsvie(*_linear_scheme(lat, psi[k], coef[k]), lat)


def test_a_scheme_takes_upper_and_comparator_stacks_of_the_same_trials():
    lat = BinaryLattice(1.0, 3)
    psi = np.ones((2, 4, 8, 1))
    upper, _ = _linear_scheme(lat, psi, 0.5)
    _, comp = _linear_scheme(lat, psi[0], 0.5)
    with pytest.raises(ValueError, match="stacks of the same trials"):
        backward.picard_bsvie(upper, comp, lat)


def _picard_draws(seed, trials, depth):
    """Each trial's n and data as picard-contraction draws them at ``depth``."""
    rng, draws = np.random.default_rng(seed), []
    for _ in range(trials):
        n = int(rng.integers(1, 3))
        lat = BinaryLattice(1.0, int(rng.integers(5, depth + 1)))
        draws.append((n, lat, scenarios._draw_picard_pair(rng, n, lat)))
    return draws


@pytest.mark.parametrize("faults, kind, message", [
    ({1: "nan"}, DivergenceError,
     r"frozen-y sweep of row 4: non-finite value at level 4, node 0; family trial 1"),
    # the stack meets trial 2's NaN first, the loop over the trials trial 1's non-convergence
    ({1: "grow", 2: "nan"}, NonConvergenceError,
     r"successive scheme not below 1e-10 after 50 iterations \(last ratio [0-9.]+\); "
     r"family trial 1"),
])
def test_a_failing_picard_stack_raises_what_the_trial_loop_raises_first(
        monkeypatch, faults, kind, message):
    # at depth 5 every N is 5: three trials of one n share a stack.  Trial 0 contracts; the
    # comparators of the faulty trials, found by their free terms, turn NaN in their frozen
    # sweeps ("nan") or get 8 y added to their drift, which keeps them from contracting ("grow")
    seed = next(s for s in range(100) if len({n for n, _, _ in _picard_draws(s, 3, 5)}) == 1)
    draws = _picard_draws(seed, 3, 5)
    faulty = [(draws[k][2][2], fault) for k, fault in faults.items()]  # (comparator psi, fault)
    solve = backward.solve_bsvie_family

    def with_faults(spec, lattice, frozen_y=None, **kw):
        psi = spec.psi.values
        stack = psi.ndim == 4
        at = [(pos, fault) for pos, field in enumerate(psi if stack else [psi])
              for target, fault in faulty if np.array_equal(field, target)]
        generator = spec.generator

        def gen(t, s, y, z, zeta, nd):
            out = generator(t, s, y, z, zeta, nd)
            for pos, fault in at:
                row = (lambda v: v[pos]) if stack else (lambda v: v)
                if fault == "nan":
                    row(out)[...] = math.nan
                else:
                    row(out)[...] += 8.0 * row(y)
            return out

        if frozen_y is not None and at:
            spec = dataclasses.replace(spec, generator=gen)
        return solve(spec, lattice, frozen_y, **kw)

    monkeypatch.setattr(backward, "solve_bsvie_family", with_faults)
    with pytest.raises(kind, match=f"^{message}$"):
        scenarios._build_picard_contraction(5, seed, 3)
    if len(faults) == 2:  # the stack alone names trial 2, where it failed first
        n, lat = draws[0][:2]
        stacked = (np.stack(v) for v in zip(*(parts for _, _, parts in draws)))
        with pytest.raises(DivergenceError, match=r", trial=2$"):
            scenarios._solve_picard_stack(lat, n, *stacked)


# The trial loop of picard-contraction as it was before the family stacked its trials,
# verbatim, is picard_contraction_reference._build_picard_contraction.


@pytest.mark.parametrize("depth, trials, offset", [
    *((depth, trials, 0) for depth in range(5, 9) for trials in (1, 3, 50)),
    (8, 50, 311), (8, 50, 2361),
])
def test_picard_contraction_tuples_are_the_trial_loops(monkeypatch, depth, trials, offset):
    entry = scenarios.REGISTRY["picard-contraction"]
    assert (entry.default_depth, entry.default_trials) == (8, 50)
    args = (depth, entry.default_seed + offset, trials)
    want, want_outcome = _tuples_and_outcome(
        monkeypatch, picard_contraction_reference,
        picard_contraction_reference._build_picard_contraction, *args)
    got, got_outcome = _tuples_and_outcome(monkeypatch, scenarios,
                                           scenarios._build_picard_contraction, *args)
    assert len(got) == trials
    _assert_bit_equal(np.array(got), np.array(want))
    assert (got_outcome.worst_violation, got_outcome.witness) == (
        want_outcome.worst_violation, want_outcome.witness)
    assert got_outcome == want_outcome
