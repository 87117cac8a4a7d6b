"""Latency summaries and failure counting for one benchmark run."""
from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

# requests that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
# the tail's percentile is capped here: the highest one with TAIL_BEYOND
# samples beyond it, p98-p99 in a run of ~1000 requests, moved by 0.09-0.15
# of its median between runs of the same code; p90 by 0.05
TAIL_MAX_PERCENTILE = 90

# the one failure the benchmark expects from the program as it stands: the
# shooting oracle's grid scan skips states of its ladder.  It counts toward
# `failed` but does not make the run incorrect; any other failure does.
KNOWN_DEFECTS = frozenset({"ladder-node-gap"})


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples above it, at most the TAIL_MAX_PERCENTILE-th.

    Below 2 * TAIL_BEYOND samples that statistic would lie under the median,
    so the median is reported instead.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    k = min(n - TAIL_BEYOND, n * TAIL_MAX_PERCENTILE // 100)  # 1-based rank
    if k < math.ceil(n / 2):
        return statistics.median(ordered), 50.0
    return ordered[k - 1], 100.0 * k / n


@dataclass
class Checked:
    """Outcome of one request's checks."""

    failures: list[str]
    work: int  # units of work done (cells, eigenvalues or commands)
    eigenvalues_ok: int = 0


@dataclass
class Tally:
    """Attempted requests, failed requests by kind, and failed run-level checks."""

    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    run_errors: list[str] = field(default_factory=list)

    def record(self, failure_kinds: list[str]) -> None:
        """Count one request; it failed when any of its checks named a failure."""
        self.attempted += 1
        if failure_kinds:
            self.failed += 1
            self.kinds.update(failure_kinds)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return not self.run_errors and all(k in KNOWN_DEFECTS for k in self.kinds)
