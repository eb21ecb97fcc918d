"""Machine-speed sampling, so timings can be expressed in reference seconds.

The benchmark host is shared, and its speed drifts by up to about 1.8x over
seconds to minutes; our process keeps the CPU the whole time (its CPU time
equals its wall time), so the slowdown is invisible to the guest.  A fixed
calibration kernel, timed at regular intervals during the measured work,
tracks that speed.  Each stretch of measured time is divided by the kernel's
slowdown over it (relative to ``REF_SLICE_S``), which turns wall seconds into
reference seconds: the time the work would take at the reference speed.
Long native calls, whose speed the kernel does not track, count at their
wall time (see ``NATIVE_STRETCH_S``).

The kernel is pure Python plus small numpy calls, the same mix as the
package's optimizer loops, and it imports nothing from ``isingring``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: Duration of one calibration slice at the reference speed: the fast end of
#: what the slice measured on the 2-vCPU host the README describes, where the
#: median slice ranged from 1.4 to 2.1 ms between minutes.
REF_SLICE_S = 0.0012
#: Sampling period of the interval timer during timed rounds.
PERIOD_S = 0.2
#: Slices per sample; a sample is their median, which drops the single
#: slices that the host stalls for several times their usual length.
SLICES_PER_SAMPLE = 3
#: A stretch longer than this was a native call that held off the timer,
#: such as a dense ``eigh``.  The kernel does not track the speed of such
#: calls: on the host the README describes, 0.4 s ``eigh`` times and slice
#: times taken side by side were uncorrelated (r = -0.02), and dividing by
#: the slices widened the spread of the ``eigh`` times from 7% to 17%.  Such
#: a stretch therefore counts at its wall time.
NATIVE_STRETCH_S = 3 * PERIOD_S

_TENSOR = (np.arange(64.0).reshape((2,) * 6) % 7.0 + 1.0) / 64.0


def calibration_slice() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    t = _TENSOR
    for k in range(12):
        c, s = math.cos(0.1 * k), math.sin(0.1 * k)
        rot = np.array([[c, -s], [s, c]])
        for axis in range(6):
            t = np.moveaxis(np.tensordot(rot, t, axes=([1], [axis])), 0, axis)
        p = t.ravel() ** 2
        p = p / p.sum()
        float(-(p * np.log2(p)).sum())
    return time.perf_counter() - t0


class SpeedClock:
    """Accumulates reference seconds over the stretches it is started on.

    While running, SIGALRM fires every ``PERIOD_S`` and takes one sample,
    the median of ``SLICES_PER_SAMPLE`` slices.  A stretch between two
    samples counts ``elapsed * REF_SLICE_S / slice`` with the mean of its two
    end samples; the samples' own time is excluded.  The handler runs between
    bytecodes, so a long native call delays the next sample; a stretch
    longer than ``NATIVE_STRETCH_S`` counts at its wall time.
    """

    def __init__(self):
        calibration_slice()  # the first slice pays one-time costs in numpy
        self._last_t = None
        self._last_slice = None
        self._ref = 0.0

    def _sample(self, *_):
        now = time.perf_counter()
        d = statistics.median(calibration_slice() for _ in range(SLICES_PER_SAMPLE))
        if self._last_t is not None:
            elapsed = now - self._last_t
            if elapsed > NATIVE_STRETCH_S:
                self._ref += elapsed
            else:
                self._ref += elapsed * REF_SLICE_S / (0.5 * (d + self._last_slice))
        self._last_t, self._last_slice = time.perf_counter(), d

    def start(self) -> None:
        self._last_t = None
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; return the reference seconds since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        ref, self._ref = self._ref, 0.0
        return ref

