"""Host-speed gauge: how much slower than calm the machine is running.

The benchmark's hosts are shared: for seconds to minutes at a time every
CPU-bound program on them runs 1.2 to 1.9 times slower than a minute before
(a neighbour on the sibling hardware thread), and an evaluation measured then
reads as a regression.  While a :class:`Gauge` is started, a 10 Hz interval
timer interrupts the process and times a fixed reference loop (arithmetic
plus scattered reads of a 4 MB buffer) in thread CPU time; the loop's time
over :data:`REFERENCE_LOOP_S` is the slowdown at that instant.  The timed
pass divides each evaluation's CPU-bound time by the mean slowdown sampled
while it ran, which on this host cuts the run-to-run spread of the timing
metrics by about 2.5 (evaluation walls: from a CV of 0.10 to 0.045).

The handler is the harness's, not a wrapper on the program: it costs about
1.6 ms in every 100 ms, the same on every commit.  Child processes do not
inherit the timer.
"""

from __future__ import annotations

import bisect
import os
import signal
import time
from typing import Any, List

#: Thread CPU seconds of one reference loop on the calm 2-core host the first
#: baseline was recorded on.  Another host scales every speed-corrected
#: metric by one constant, which no comparison between commits sees.
REFERENCE_LOOP_S = 1.5e-3
LOOP_STEPS = 6000
PERIOD_S = 0.1
BUFFER_MASK = (1 << 22) - 1


class Gauge:
    """Samples the host's slowdown on a timer; query it over any past interval."""

    def __init__(self) -> None:
        self._buffer = bytearray(os.urandom(BUFFER_MASK + 1))
        self._position = 0
        self._times: List[float] = []
        self._loop_s: List[float] = []

    def sample(self, *_signal: Any) -> None:
        buffer, position, total = self._buffer, self._position, 0
        started = time.thread_time()
        for _ in range(LOOP_STEPS):
            position = (position * 1103515245 + 12345) & BUFFER_MASK
            total += buffer[position]
        self._loop_s.append(time.thread_time() - started)
        self._times.append(time.perf_counter())
        self._position = position

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, started: float, ended: float) -> float:
        """Mean slowdown over the samples taken between two ``perf_counter`` times."""
        low = bisect.bisect_left(self._times, started)
        high = bisect.bisect_right(self._times, ended)
        if low == high:  # shorter than a period: take the sample now
            self.sample()
            low, high = len(self._times) - 1, len(self._times)
        return sum(self._loop_s[low:high]) / (high - low) / REFERENCE_LOOP_S
