"""A clock that advances at the speed of a reference machine.

The benchmark shares its host with other work.  There, the same pass of ops
can take 1.6 times as long at one moment as a few seconds later, so wall time
alone spreads too far between runs to gate a change.  This clock measures
the speed of the core as it goes instead: a SIGALRM timer fires every
INTERVAL_S, and its handler times a fixed probe (an integer loop, a float
loop and one big-integer product: the interpreter, oracle and engine work
grlb does).  Each interval between two probes is scaled by PROBE_REF_S over
the mean of the last WINDOW probe times, so a reading is the time the same
work would have taken had the probe taken PROBE_REF_S.  The probes' own time
is left out.

Of the probes tried (the big-integer product alone, a strided walk over
4 MiB, and this sum), the sum tracked all three workloads best in ten-run
trials: between-run spreads of 18-38% in raw pass times fell to 2-3%.

PROBE_REF_S was set on a 2-vCPU Intel Xeon virtual machine under CPython
3.11.7 when the host was quiet, so readings there come close to wall time.
"""

from __future__ import annotations

import math
import signal
import time
from collections import deque

INTERVAL_S = 0.01
WINDOW = 8
PROBE_REF_S = 1.35e-4

_BIG = 3**6000
_FLOATS = [float(i) for i in range(256)]


def probe() -> float:
    """The fixed work whose duration measures the current speed of the core."""
    s = 0
    for i in range(500):
        s += i * i % 7
    f = 0.0
    for x in _FLOATS:
        f += math.sqrt(x) * 1.0001
    return s + f + (_BIG * (_BIG + 1)).bit_length()


class RefClock:
    """Reference-speed clock; use as a context manager around what it times.

    now() may be called only inside the `with` block.  The timer is process
    wide, so only one RefClock may be active at a time.
    """

    def __init__(self) -> None:
        self._probes: deque[float] = deque(maxlen=WINDOW)
        self._elapsed = 0.0
        self._last = 0.0
        self._rate = 1.0
        self._ticks = 0

    def _sample(self) -> tuple[float, float]:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self._probes.append(end - start)
        return start, end

    def _tick(self, signum, frame) -> None:
        start, end = self._sample()
        # The interval is scaled at the rate now() used during it, so the
        # clock never jumps; the new probe sets the rate from here on.
        self._elapsed += (start - self._last) * self._rate
        self._rate = PROBE_REF_S * len(self._probes) / sum(self._probes)
        self._last = end
        self._ticks += 1

    def __enter__(self) -> "RefClock":
        for _ in range(4 * WINDOW):  # the first probes run cold
            self._sample()
        self._rate = PROBE_REF_S * len(self._probes) / sum(self._probes)
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Reference seconds since the clock was entered."""
        while True:
            ticks = self._ticks
            value = self._elapsed + (time.perf_counter() - self._last) * self._rate
            if ticks == self._ticks:  # no tick landed while reading
                return value
