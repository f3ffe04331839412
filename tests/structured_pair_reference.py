"""The structured comparison pair as the scenarios built it one trial at a time.

Theorems 3.7 and 3.10's families once drew each trial's lower and upper
equations as two ``BsvieSpec`` values with structured pieces, ``h_fn``
plus ``b_coef`` or ``c_coef``, and solved them one by one.  The families
now draw arrays and solve their trials in stacks through a generator; this
sampler, kept as it was, is the reference those stacks must reproduce bit
for bit, and a source of structured-piece specs for the solver tests.
"""

import numpy as np

from bsvielab import backward
from bsvielab.harness.scenarios import _random_diagonal, _random_metzler, _scaled, _stacked_diag
from bsvielab.lattice import BinaryLattice, TerminalField


def structured_pair(rng, n: int, lat: BinaryLattice, coupling: str):
    """Drift pair h^i(t,s,y) (+ shared B(s) z or C(t) zeta) with ordered,
    t-nonincreasing difference and matching free-term difference ordering.

    The zeta-coupled variant keeps the data differences sparse and small and
    the coupling coefficient strongly time-varying: that is the regime where
    the pointwise ordering of the solutions genuinely breaks while the
    conditional time-averages stay ordered.
    """
    T = lat.horizon
    h = lat.h
    leaves = 2**lat.depth
    m0 = _random_metzler(rng, n, 0.3)
    m1 = rng.uniform(0.0, 0.2, (n, n))
    scale = 0.4 / max(h * float((np.abs(m0) + T * np.abs(m1)).sum(axis=1).max()), 1e-12)
    m0 = m0 * min(1.0, scale)
    m1 = m1 * min(1.0, scale)
    kappa = rng.uniform(0.0, 0.2, n)
    diff_scale = 0.3 if coupling == "z" else 0.05
    d0 = rng.uniform(0.0, diff_scale, n)
    d1 = rng.uniform(0.0, diff_scale, n)

    def h_lo(t, s, y, nodes):
        return ((m0 + (T - t) * m1) @ y.mT).mT + kappa * np.tanh(y)

    def h_hi(t, s, y, nodes):
        return h_lo(t, s, y, nodes) + d0 + (T - t) * d1

    psi0 = rng.standard_normal((lat.depth + 1, leaves, n))
    if coupling == "z":
        xi0 = rng.uniform(0.0, 0.5, (leaves, n))
        xi1 = rng.uniform(0.0, 0.5, (leaves, n))
    else:
        xi0 = rng.uniform(0.0, 0.3, (leaves, n)) * (rng.uniform(0, 1, (leaves, n)) < 0.3)
        xi1 = rng.uniform(0.0, 0.3, (leaves, n)) * (rng.uniform(0, 1, (leaves, n)) < 0.3)
    psi1 = psi0 + xi0[None] + (T - lat.times)[:, None, None] * xi1[None]
    if coupling == "z":
        b = _scaled(_random_diagonal(rng, n, 0.8), 0.45, lat.sqrt_h)
        kw = dict(b_coef=lambda s, m=b: m, uses_z=True, lip_z=1.0)
    else:
        c0 = rng.uniform(-1.5, 1.5, n)
        c1 = rng.uniform(-3.0, 3.0, n)
        kw = dict(
            c_coef=lambda t, c0=c0, c1=c1: _stacked_diag(c0 + c1 * t),
            uses_z=False, uses_zeta=True,
        )
    lo = backward.BsvieSpec(
        n, TerminalField(lat, n, psi0), h_fn=h_lo, lip_y=1.0, stacked_t=True, **kw
    )
    hi = backward.BsvieSpec(
        n, TerminalField(lat, n, psi1), h_fn=h_hi, lip_y=1.0, stacked_t=True, **kw
    )
    return lo, hi
