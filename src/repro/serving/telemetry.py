"""Latency and throughput measurement for the decision service.

Timing the serving path is diagnostic output, not simulated behavior,
so the wall-clock contract (rule R3) does not apply — this module lives
under the ``*/telemetry.py`` allowlist for exactly that reason.  The
load generator and the CLI drive their measurement loops through
:class:`LatencyRecorder` so no clock read ever leaks into simulation
code.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Accumulates per-call latencies and the decisions they answered."""

    def __init__(self) -> None:
        self._latencies: List[float] = []
        self._decisions = 0

    @contextmanager
    def observe(self, decisions: int = 1) -> Iterator[None]:
        """Time one serving call answering ``decisions`` lookups."""
        start = perf_counter()
        try:
            yield
        finally:
            self._latencies.append(perf_counter() - start)
            self._decisions += decisions

    @property
    def decision_count(self) -> int:
        """Decisions answered across all timed calls."""
        return self._decisions

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds spent inside timed calls."""
        return sum(self._latencies)

    def decisions_per_second(self) -> float:
        """Aggregate serving throughput over the timed calls."""
        total = self.total_seconds
        if total <= 0.0:
            return 0.0
        return self._decisions / total

    def percentile(self, fraction: float) -> float:
        """The latency (seconds) at ``fraction`` (0..1), nearest-rank: the
        smallest sample that at least ``fraction`` of the samples do not
        exceed."""
        if not self._latencies:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        ranked = sorted(self._latencies)
        n = len(ranked)
        # The first rank k with k / n >= fraction; ``ceil(fraction * n)``
        # would miss where the product is inexact (0.07 * 100 > 7).
        rank = bisect_left(range(1, n + 1), fraction, key=lambda k: k / n)
        return ranked[min(rank, n - 1)]
