"""Pass times rescaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose single-core speed
drifts by up to ~1.7x for seconds to minutes at a time; process CPU time
drifts with it, so it is not time taken from the VM that CPU time could
exclude.  A raw pass time mixes that drift with the program's own cost.  A
:class:`Meter` cuts a pass into segments at operation boundaries and, at
every boundary, times a fixed calibration kernel made only of numpy and
Python work (no bsvielab code, so a change to the program cannot move it).
Each segment's wall time is divided by the kernel's speed at its two ends,
relative to the kernel's reference time::

    scaled = raw * 2 / (speed_before + speed_after),   speed = kernel_s / REF

so ``scaled`` reads in seconds on a host on which the kernel takes its
reference time.  The calibration time itself is outside every segment.
Boundaries come from :meth:`Meter.marking`, wrapped around the program's public
functions and the benchmark's callbacks; a mark less than ``MIN_SEGMENT_S``
after the last calibration is skipped.  Each workload weights the kernel
parts that behaved most like its own work under the drift: ``tiny`` for the
suite, ``tiny`` and ``wide`` for deep, ``wide`` and ``python`` for
crosscheck.  The calibrations disturb the program's caches a little: with
the callback marks, crosscheck's rescaled pass time read about 3% higher
than with marks at the program's public functions only.
"""

from __future__ import annotations

import functools
import time

import numpy as np

_TINY = np.linspace(0.0, 1.0, 64)
_MAT = np.array([[0.9, 0.1], [0.2, 0.8]])
_WIDE = np.linspace(0.0, 1.0, 2 * 65536).reshape(65536, 2)


def _tiny() -> None:
    """Many numpy calls on tiny arrays, like the suite's small-lattice trials."""
    for _ in range(150):
        b = _TINY * 1.0001
        b.sum()
        _MAT @ _MAT
        np.maximum(b, 0.0)


def _wide() -> None:
    """Whole-lattice array traffic (65,536 x 2), like deep and crosscheck."""
    w = _WIDE * 1.0001
    w[:, 0] + w[:, 1]
    w.sum(axis=0)


def _python() -> None:
    """Pure interpreter work."""
    s = 0.0
    for i in range(10000):
        s += i * 0.5


# kernel part -> (function, reference seconds); the references are round
# figures near each part's fast-state time on a 2-vCPU Xeon VM
PARTS = {"tiny": (_tiny, 0.9e-3), "wide": (_wide, 1.6e-3), "python": (_python, 0.65e-3)}


# shortest segment between two calibrations; a calibration takes 1-3 ms
MIN_SEGMENT_S = 0.05


class Meter:
    """Wall time of a pass, raw and rescaled, cut into segments by :meth:`mark`.

    ``weights`` gives each kernel part's share of the speed estimate.
    """

    def __init__(self, weights: dict[str, float]) -> None:
        total = sum(weights.values())
        self.weights = {k: w / total for k, w in weights.items()}
        self.raw = 0.0
        self.scaled = 0.0
        self.log: list = []  # per pass: [[segment raw s, {part: kernel s}], ...]
        self.active = False  # while true, functions wrapped by marking() mark
        self._t = 0.0
        self._speed = 1.0

    def _calibrate(self) -> float:
        times = {}
        for name in self.weights:
            fn = PARTS[name][0]
            t0 = time.perf_counter()
            fn()
            times[name] = time.perf_counter() - t0
        self.log[-1].append([None, times])
        return sum(w * times[k] / PARTS[k][1] for k, w in self.weights.items())

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self.log.append([])
        self._speed = self._calibrate()
        self._t = time.perf_counter()

    def mark(self, force: bool = False) -> None:
        """Close the running segment and open the next, unless it is shorter
        than ``MIN_SEGMENT_S`` and ``force`` is false."""
        seg = time.perf_counter() - self._t
        if seg < MIN_SEGMENT_S and not force:
            return
        self.log[-1][-1][0] = seg
        speed = self._calibrate()
        self.raw += seg
        self.scaled += seg * 2.0 / (self._speed + speed)
        self._speed = speed
        self._t = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Close the last segment; return the pass's (raw, scaled) seconds."""
        self.mark(force=True)
        return self.raw, self.scaled

    def marking(self, fn):
        """``fn``, starting a new segment at each call while the meter is active.

        Wrapped around the program's public functions and around the callbacks
        the benchmark hands to the program, so long calls are cut up too.
        """
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self.active:
                self.mark()
            return fn(*args, **kwargs)

        return marked
