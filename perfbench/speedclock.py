"""Reference seconds: elapsed time weighted by the host's current speed.

Shared hosts change speed by up to 2x within seconds, so wall time alone
cannot tell a 10% saving from noise.  `SpeedClock` times a fixed probe loop
on a 20 Hz timer signal and integrates wall time times the host's speed, the
median of the last three probes.  One reference second is the time in which
the probe loop runs 1 / PROBE_REF_S times; the time spent in probes is left
out.  The probe does the same kind of work as the library (Fraction
arithmetic, tuple keys, dict stores), but it is benchmark code and does not
change with the library.  It runs with the garbage collector off, so neither
the library's heap nor its collector settings change the probe's speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

PROBE_REF_S = 0.001  # the probe's duration in reference seconds
PROBE_ITERATIONS = 150
INTERVAL_S = 0.05
PROBES_KEPT = 3  # the speed is the median of this many latest probes


def probe_loop(iterations=PROBE_ITERATIONS):
    d = {}
    s = Fraction(0)
    for i in range(1, iterations):
        s = s * Fraction(i % 7 + 1, i % 11 + 2) + Fraction(1, i % 97 + 1)
        s = Fraction(s.numerator % 10007, s.denominator % 10009 + 1)
        d[(i, i % 13)] = s
    return len(d)


def probe_speed():
    """Reference seconds per wall second, from one probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe_loop()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return PROBE_REF_S / dt


class SpeedClock:
    """Use as a context manager; `now()` reads reference seconds so far."""

    def __init__(self):
        # (reference seconds at the mark, the mark, current speed), replaced in
        # one assignment so that `now()` never sees a half-updated state
        self._state = (0.0, 0.0, 1.0)
        self._probes = deque(maxlen=PROBES_KEPT)
        self._old_handler = None

    def _on_alarm(self, signum, frame):
        now = time.perf_counter()
        ref, mark, speed = self._state
        # close the interval at the speed `now()` has been using, so the clock
        # never steps back; it stands still while the probe runs
        ref += (now - mark) * speed
        self._probes.append(probe_speed())
        self._state = (ref, time.perf_counter(), statistics.median(self._probes))

    def __enter__(self):
        self._probes.extend(probe_speed() for _ in range(PROBES_KEPT))
        self._state = (0.0, time.perf_counter(), statistics.median(self._probes))
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    @property
    def speed(self):
        return self._state[2]

    def now(self):
        ref, mark, speed = self._state
        return ref + (time.perf_counter() - mark) * speed
