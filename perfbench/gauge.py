"""Machine-speed gauge: rescales wall times to a nominal machine speed.

On a shared host the same code runs at different speeds from moment to
moment. On the 2-core Xeon this benchmark was built on, a fixed loop's time
flipped between two levels 2x apart about once a second, and drifted
between them for minutes at a time; raw batch times of one workload
spread by 20-50% (quartile distance over median) between runs.

While a gauge runs, a timer signal interrupts the process every PERIOD_S
and times a short calibration loop that does not touch rosevent. A job that
ran from t0 to t1 is reported as

    (wall time - calibration time inside [t0, t1]) * CAL_NOMINAL_S / c

where c is the mean calibration time over [t0, t1] (or over the
MIN_SAMPLES ticks nearest to it, for short jobs). The job and the loop slow
down nearly together, so the rescaled time follows the program rather than
the host: the same spread fell to 2-4%. The loop does not touch rosevent,
so a change to the program moves the rescaled times as it moves the raw
ones. The loop mixes small-array numpy calls and interpreted Python, the
mix rosevent's stepping spends its time on.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
#: the calibration loop's duration at the nominal speed
CAL_NOMINAL_S = 0.0013
MIN_SAMPLES = 5

_A = np.array([[1.0, 0.1], [0.2, 1.0]])
_V = np.array([1.0, 2.0])


def calibration_loop() -> float:
    acc = 0.0
    for i in range(300):
        w = (np.eye(2) - 0.3 * _A) @ _V
        acc += float(w[0]) * 0.5 + i % 7
    return acc


class SpeedGauge:
    """Calibration ticks taken while the gauge is entered (main thread
    only: it uses SIGALRM)."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _ticks(self) -> tuple:
        """(starts, durations) of the ticks so far; a tick may land between
        the two reads, so both are cut to the shorter one."""
        cal = np.array(self.durations)
        return np.array(self.starts[:len(cal)]), cal

    def _inside(self, t0: float, t1: float) -> np.ndarray:
        """Durations of the ticks that ran within [t0, t1]."""
        starts, cal = self._ticks()
        lo = int(np.searchsorted(starts, t0))
        hi = int(np.searchsorted(starts + cal, t1, side="right"))
        return cal[lo:hi]

    def net(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] less the ticks inside it."""
        return t1 - t0 - float(np.sum(self._inside(t0, t1)))

    def rescale(self, t0s, t1s) -> np.ndarray:
        """Rescaled durations of the intervals [t0, t1]."""
        starts, cal = self._ticks()
        k = min(MIN_SAMPLES, len(cal))
        out = []
        for t0, t1 in zip(t0s, t1s):
            inside = self._inside(t0, t1)
            if len(inside) >= k:
                c = float(np.mean(inside))
            else:
                mid = int(np.searchsorted(starts, 0.5 * (t0 + t1)))
                first = int(np.clip(mid - k // 2, 0, len(cal) - k))
                c = float(np.mean(cal[first:first + k]))
            out.append(self.net(t0, t1) * CAL_NOMINAL_S / c)
        return np.array(out)

    def scale(self) -> float:
        """Factor from raw to rescaled time, averaged over the whole run."""
        return CAL_NOMINAL_S / float(np.mean(self.durations))
