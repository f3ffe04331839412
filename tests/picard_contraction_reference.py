"""The picard-contraction scenario as it was built one trial at a time.

The family once drew each trial's comparator and upper spec, with
generators closing over that trial's data, and ran one frozen-y scheme per
trial.  It now draws arrays and runs one scheme per trial stack; this
builder, kept as it was, is the reference those stacks must reproduce bit
for bit.
"""

import numpy as np

from bsvielab import backward
from bsvielab.harness.scenarios import (
    Check,
    HypothesisReport,
    ScenarioOutcome,
    _random_diagonal,
    _scaled,
    _worst_trial,
)
from bsvielab.lattice import BinaryLattice, TerminalField


def _build_picard_contraction(depth: int, seed: int, trials: int) -> ScenarioOutcome:
    rng = np.random.default_rng(seed)

    def trial(k):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(5, depth + 1))
        lat = BinaryLattice(1.0, N)
        leaves = 2**N
        b = _scaled(_random_diagonal(rng, n, 0.6), 0.45, lat.sqrt_h)
        eps = rng.uniform(0.1, 0.5, n)
        psibar = rng.standard_normal((N + 1, leaves, n))
        psi1 = psibar + rng.uniform(0.0, 0.5, (N + 1, leaves, n))

        def gbar(t, s, y, z, zeta, nd, b=b):
            return np.arctan(y) + (b @ z.mT).mT

        comp = backward.BsvieSpec(
            n, TerminalField(lat, n, psibar), generator=gbar, lip_y=1.0, lip_z=0.6,
            stacked_t=True,
        )
        upper = backward.BsvieSpec(
            n, TerminalField(lat, n, psi1),
            generator=lambda t, s, y, z, zeta, nd: gbar(t, s, y, z, zeta, nd) + eps,
            lip_y=1.0, lip_z=0.6, stacked_t=True,
        )
        _, hist = backward.picard_bsvie(upper, comp, lat)
        ratio = float(np.max(hist.ratios)) if hist.ratios else 0.0
        return -ratio, float(np.max(hist.max_increase))

    worst, witness, results = _worst_trial(trials, trial)
    worst_increase = float(np.max([0.0, *(r[1] for r in results)]))
    return ScenarioOutcome(
        hypotheses=HypothesisReport.by_construction("metzler_y", "diagonal_z", "monotone_selection"),
        checks=[
            Check("weighted_norm_ratio", -worst, 1.0 - 1e-9),
            Check("iterate_increase", worst_increase, 1e-12),
        ],
        witness=witness,
    )
