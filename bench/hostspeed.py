"""Host speed sampled while requests run, and request times scaled to it.

The benchmark runs on vCPUs of a shared host whose speed switches between
states up to 2x apart for seconds to minutes at a time (a 2-vCPU Xeon VM
was measured switching between them several times a minute).  A run of
tens of seconds then reports whichever state it happened to fall in.

A SIGALRM timer interrupts the caller every PERIOD_S to time a fixed
pure-Python reference loop in the same thread, so the loop sees the same
vCPU state as the request around it.  A request's time, less the sampler's
own time, is scaled by REFERENCE_S over the reference loop's mean time
during the request and within WINDOW_S either side of it: the result reads
as the request's seconds on a host where the loop takes REFERENCE_S.  The
program's own changes move the scaled time in full, since the reference
loop never changes; only the host's state is divided out.  The raw seconds
are reported alongside.

Stdlib only, so that it can time `import wsdirac` in a fresh interpreter.
"""
from __future__ import annotations

import bisect
import signal
import sys
import time

PERIOD_S = 0.025
# the reference loop's time on a 2-vCPU Xeon VM; the unit of scaled seconds
REFERENCE_S = 2.5e-4
# samples this close to a request also describe it: short requests see few
# or no samples of their own, and the host's state lasts seconds
WINDOW_S = 0.1


def reference_loop() -> float:
    s = 0.0
    for j in range(2000):
        s += (j * 0.5) ** 0.5
    return s


class HostSpeed:
    """Context manager that samples the reference loop every PERIOD_S."""

    def __init__(self):
        self.stamps: list[float] = []  # end of each sample
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent inside the sampler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def end(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(raw seconds, start, end) of the interval since `mark`; the raw
        seconds leave the sampler's own time out."""
        t1 = time.perf_counter()
        t0, spent0 = mark
        return (t1 - t0) - (self.spent - spent0), t0, t1

    def settle(self) -> None:
        """Run until WINDOW_S has passed, so the latest interval has samples
        after it too."""
        stop = time.perf_counter() + WINDOW_S
        while time.perf_counter() < stop:
            pass

    def scale(self, raw: float, start: float, end: float) -> float:
        """`raw` seconds of the interval [start, end] in scaled seconds."""
        return raw * REFERENCE_S / self.reference_s(start - WINDOW_S,
                                                    end + WINDOW_S)

    def reference_s(self, lo: float, hi: float) -> float:
        """Mean reference-loop time over samples ending in [lo, hi]; the
        latest few samples when none does."""
        i = bisect.bisect_left(self.stamps, lo)
        j = bisect.bisect_right(self.stamps, hi)
        window = self.durations[i:j] or self.durations[-4:]
        if not window:
            raise RuntimeError("no host-speed sample taken yet")
        return sum(window) / len(window)


def import_probe(src: str) -> None:
    """Print raw and scaled seconds of a cold `import wsdirac` from `src`."""
    sys.path.insert(0, src)
    with HostSpeed() as host:
        host.settle()
        mark = host.begin()
        import wsdirac  # noqa: F401
        timing = host.end(mark)
        host.settle()
    print(timing[0], host.scale(*timing))
