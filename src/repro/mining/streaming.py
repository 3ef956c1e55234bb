"""Bounded-memory mining over streamed recovery logs.

:class:`StreamingMiner` is the facade gluing the streaming pipeline
together: entries flow through a
:class:`~repro.recoverylog.stream.StreamingSegmenter` (emit-on-close
process extraction), every completed process's distinct symptom set is
counted in a distinct-transaction multiset, and from that multiset the
miner can rebuild — at any point, without re-reading anything —

* the union-find symptom clustering at any ``minp``
  (:meth:`StreamingMiner.clustering`),
* the noise fraction / single-cluster coverage the paper's Figure 3
  plots (:meth:`noise_fraction`, :meth:`coverage`, :meth:`coverage_curve`),
* full m-pattern mining (:meth:`m_patterns`).

The :class:`~repro.mining.dependence.SymptomCooccurrence` counts behind
the first two are folded from the multiset when first read, one
weighted add per distinct set, and kept until the next observation:
symptom sets repeat heavily, so this is far less work than one add per
process.

Memory is bounded by the number of *distinct* symptoms and symptom sets
plus the open per-machine buffers — never by log length, which is what
makes a 100M-entry log a supported workload
(``benchmarks/bench_mining_throughput.py`` pins the entries/s and
peak-RSS envelope).  Every result is pinned equal to the in-memory
reference pipeline by ``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.mining.clustering import SymptomClustering
from repro.mining.dependence import SymptomCooccurrence
from repro.mining.mpattern import Pattern, mine_m_patterns_from_counts
from repro.mining.noise import DEFAULT_MINP
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.io import (
    DEFAULT_CHUNK_SIZE,
    PathLike,
    iter_log_chunks,
)
from repro.recoverylog.process import RecoveryProcess
from repro.recoverylog.stream import (
    DEFAULT_MAX_OPEN_ENTRIES,
    StreamingSegmenter,
)

__all__ = ["StreamingMiner", "StreamingMiningResult", "mine_log_streaming"]

Transaction = FrozenSet[str]

#: Figure 3's default threshold sweep.
DEFAULT_COVERAGE_MINPS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class StreamingMiner:
    """Incremental ingest → co-occurrence → clustering → noise pipeline.

    Feed it entries (:meth:`feed`), chunks (:meth:`feed_chunks`), a file
    (:meth:`mine_file`) or already-extracted processes
    (:meth:`observe`, the online-retraining hook); query results at any
    time.

    Parameters
    ----------
    max_open_entries:
        Per-machine open-process buffer bound, passed to the segmenter.
    """

    def __init__(
        self, *, max_open_entries: int = DEFAULT_MAX_OPEN_ENTRIES
    ) -> None:
        self._segmenter = StreamingSegmenter(
            max_open_entries=max_open_entries
        )
        self._transaction_counts: Counter = Counter()
        # Folded from the multiset when read; dropped by the next
        # observation.
        self._cooccurrence: Optional[SymptomCooccurrence] = None
        self._process_count = 0
        self._downtime_total = 0.0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe(self, process: RecoveryProcess) -> None:
        """Count one completed recovery process: its symptom set and
        downtime.

        This is the online hook: a live producer (the cluster
        simulator's monitor, a :class:`~repro.core.online.RollingRetrainer`)
        hands over processes as they complete, and the mined statistics
        stay current without ever re-reading history.
        """
        self._transaction_counts[process.symptom_set] += 1
        self._process_count += 1
        self._downtime_total += process.downtime
        self._cooccurrence = None

    def feed(self, entries: Iterable[LogEntry]) -> int:
        """Consume time-ordered entries; returns entries consumed."""
        consumed = self._segmenter.entry_count
        for process in self._segmenter.feed_many(entries):
            self.observe(process)
        return self._segmenter.entry_count - consumed

    def feed_chunks(self, chunks: Iterable[Sequence[LogEntry]]) -> int:
        """Consume chunked entries; returns entries consumed."""
        consumed = 0
        for chunk in chunks:
            consumed += self.feed(chunk)
        return consumed

    def mine_file(
        self,
        path: PathLike,
        *,
        log_format: str = "auto",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> int:
        """Stream a log file through the pipeline; returns entries read."""
        return self.feed_chunks(
            iter_log_chunks(path, chunk_size=chunk_size, log_format=log_format)
        )

    # ------------------------------------------------------------------
    # Incremental state
    # ------------------------------------------------------------------
    @property
    def cooccurrence(self) -> SymptomCooccurrence:
        """The co-occurrence counts of the processes observed so far.

        Folded from the distinct-set multiset (one weighted add per
        distinct set, in first-occurrence order) and kept until the next
        observation; a reference held across observations keeps the
        counts it was read with.
        """
        if self._cooccurrence is None:
            cooccurrence = SymptomCooccurrence()
            for transaction, count in self._transaction_counts.items():
                cooccurrence.add(transaction, count)
            self._cooccurrence = cooccurrence
        return self._cooccurrence

    @property
    def segmenter(self) -> StreamingSegmenter:
        """The underlying per-machine extractor (open buffers, orphans)."""
        return self._segmenter

    @property
    def entry_count(self) -> int:
        """Entries consumed through the segmenter."""
        return self._segmenter.entry_count

    @property
    def process_count(self) -> int:
        """Completed processes folded into the counts."""
        return self._process_count

    @property
    def mean_downtime(self) -> float:
        """Mean downtime of the observed processes (0.0 before any)."""
        if self._process_count == 0:
            return 0.0
        return self._downtime_total / self._process_count

    def transaction_counts(self) -> Dict[Transaction, int]:
        """The distinct-symptom-set multiset (copy)."""
        return dict(self._transaction_counts)

    # ------------------------------------------------------------------
    # Rebuilt results
    # ------------------------------------------------------------------
    def clustering(self, minp: float = DEFAULT_MINP) -> SymptomClustering:
        """Union-find clustering rebuilt from the co-occurrence counts."""
        return SymptomClustering(self.cooccurrence, minp)

    def coverage(
        self,
        minp: float = DEFAULT_MINP,
        *,
        clustering: Optional[SymptomClustering] = None,
    ) -> float:
        """Fraction of processes whose symptoms lie in one cluster."""
        if self._process_count == 0:
            return 1.0
        if clustering is None:
            clustering = self.clustering(minp)
        covered = sum(
            count
            for transaction, count in self._transaction_counts.items()
            if clustering.is_cohesive(transaction)
        )
        return covered / self._process_count

    def noise_fraction(
        self,
        minp: float = DEFAULT_MINP,
        *,
        clustering: Optional[SymptomClustering] = None,
    ) -> float:
        """Fraction of processes the paper would filter as noisy.

        Computed as ``noisy / total`` (not ``1 - coverage``) so the
        value is bit-identical to
        :attr:`~repro.mining.noise.NoiseFilterResult.noise_fraction`.
        """
        if self._process_count == 0:
            return 0.0
        if clustering is None:
            clustering = self.clustering(minp)
        noisy = sum(
            count
            for transaction, count in self._transaction_counts.items()
            if not clustering.is_cohesive(transaction)
        )
        return noisy / self._process_count

    def coverage_curve(
        self, minps: Iterable[float] = DEFAULT_COVERAGE_MINPS
    ) -> Dict[float, float]:
        """Figure 3's coverage curve from the incremental counts."""
        return {minp: self.coverage(minp) for minp in minps}

    def m_patterns(
        self,
        minp: float = DEFAULT_MINP,
        *,
        min_size: int = 2,
        max_size: int = 0,
        min_support_count: int = 1,
    ) -> List[Pattern]:
        """All m-patterns over the streamed transactions."""
        return mine_m_patterns_from_counts(
            self._transaction_counts,
            minp,
            min_size=min_size,
            max_size=max_size,
            min_support_count=min_support_count,
        )

    def result(self, minp: float = DEFAULT_MINP) -> "StreamingMiningResult":
        """One-shot summary at ``minp`` (what ``repro mine`` prints)."""
        clustering = self.clustering(minp)
        return StreamingMiningResult(
            minp=minp,
            entry_count=self.entry_count,
            process_count=self._process_count,
            cluster_count=clustering.cluster_count(),
            noise_fraction=self.noise_fraction(minp, clustering=clustering),
            orphan_count=self._segmenter.orphan_count,
            incomplete_count=self._segmenter.open_machine_count,
        )


@dataclass(frozen=True)
class StreamingMiningResult:
    """Summary of one streamed mining run at a fixed ``minp``."""

    minp: float
    entry_count: int
    process_count: int
    cluster_count: int
    noise_fraction: float
    orphan_count: int
    incomplete_count: int


def mine_log_streaming(
    path: PathLike,
    minp: float = DEFAULT_MINP,
    *,
    log_format: str = "auto",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Tuple[StreamingMiner, StreamingMiningResult]:
    """Stream-mine a log file end to end; returns (miner, summary)."""
    miner = StreamingMiner()
    miner.mine_file(path, log_format=log_format, chunk_size=chunk_size)
    return miner, miner.result(minp)
