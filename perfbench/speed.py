"""Timing in reference-speed seconds.

A shared 2-core host ran the same pure-Python code up to 1.7 times slower
in some stretches than in others, stretches lasting from seconds to
minutes, longer than one run: raw wall times of identical runs differed
by more than any useful bound (a quartile spread of 0.3 to 0.45 of the
median). So a command is timed together with a fixed probe that
interrupts it every PROBE_INTERVAL seconds. Each stretch of the command
between two probes is scaled by REFERENCE_PROBE_S over the mean time of
those two probes, and the probes' own time is left out. The result is the
command's time on a host where the probe takes REFERENCE_PROBE_S. The
probe does what the program does most, exact fractions in small
dictionaries, so that it slows down as the program does when the host is
busy. Its table is small enough to stay in the first-level caches and it
runs with the cyclic garbage collector off, so that its time depends on
the host and not on the size of the program's heap: a change to the
program's working set shows in reference seconds as it does in raw ones.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PROBE_LOOPS = 700
PROBE_INTERVAL = 0.25
REFERENCE_PROBE_S = 0.003

TABLE_ROWS = 64
_TABLE = {(i, i % 7): Fraction(i + 1, 2 * i + 3) for i in range(TABLE_ROWS)}


def probe():
    """The fixed pure-Python probe loop; it also calibrates the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        terms = {}
        previous = Fraction(1)
        for i in range(PROBE_LOOPS):
            row = (i * 2654435761) % TABLE_ROWS
            value = _TABLE[row, row % 7]
            terms[i % 13,] = value * previous + value
            previous = value
        return len(terms)
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Context manager timing its body in raw and in reference seconds."""

    def __init__(self):
        self.probes = []  # (start, seconds) of each probe run
        self.raw_s = 0.0
        self.reference_s = 0.0

    def _run_probe(self, *_signal_args):
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._run_probe()
        self._previous = signal.signal(signal.SIGALRM, self._run_probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._run_probe()
        self.raw_s, self.reference_s = reference_seconds(self.probes)
        return False


def reference_seconds(probes):
    """(raw, reference) seconds between the first and the last probe.

    Raw time excludes the probes. Each stretch between two probes counts
    REFERENCE_PROBE_S / (mean of the two probe times) per second.
    """
    raw = reference = 0.0
    for (start, took), (next_start, next_took) in zip(probes, probes[1:]):
        stretch = next_start - (start + took)
        raw += stretch
        reference += stretch * REFERENCE_PROBE_S * 2 / (took + next_took)
    return raw, reference
