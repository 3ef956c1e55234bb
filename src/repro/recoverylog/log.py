"""The :class:`RecoveryLog` container."""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import LogFormatError
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.process import RecoveryProcess, SegmentationResult, segment_log

__all__ = ["RecoveryLog"]


def _entry_list(entries: Iterable[LogEntry]) -> List[LogEntry]:
    """The entries as a new list, refusing anything that is not a row.

    The check matters because rows sort as plain tuples: a 4-tuple
    with the same values would otherwise sort in silently.
    """
    listed = list(entries)
    if not all(map(isinstance, listed, repeat(LogEntry))):
        bad = next(e for e in listed if not isinstance(e, LogEntry))
        raise LogFormatError(f"expected LogEntry, got {type(bad).__name__}")
    return listed


class RecoveryLog:
    """A time-ordered collection of log entries with segmentation caching.

    The log accepts entries in any order and keeps them sorted in the
    rows' natural tuple order, which is the log's total order.  Calling
    :meth:`to_processes` segments the log into recovery processes; the
    result is cached until the log is mutated.
    """

    def __init__(self, entries: Iterable[LogEntry] = ()) -> None:
        self._entries = _entry_list(entries)
        self._entries.sort()
        self._segmentation: Optional[SegmentationResult] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> LogEntry:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecoveryLog):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        span = ""
        if self._entries:
            span = f", span=[{self._entries[0].time:.0f}, {self._entries[-1].time:.0f}]s"
        return f"RecoveryLog(entries={len(self._entries)}{span})"

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, entry: LogEntry) -> None:
        """Add one entry, maintaining time order."""
        if not isinstance(entry, LogEntry):
            raise LogFormatError(f"expected LogEntry, got {type(entry).__name__}")
        # Fast path: appended in order (the common case for simulators).
        if not self._entries or entry >= self._entries[-1]:
            self._entries.append(entry)
        else:
            import bisect

            bisect.insort(self._entries, entry)
        self._segmentation = None

    def extend(self, entries: Iterable[LogEntry]) -> None:
        """Add many entries, maintaining time order."""
        self._entries.extend(_entry_list(entries))
        self._entries.sort()
        self._segmentation = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def entries(self) -> Tuple[LogEntry, ...]:
        """All entries in time order."""
        return tuple(self._entries)

    def machines(self) -> Set[str]:
        """The distinct machine names appearing in the log."""
        return {e.machine for e in self._entries}

    @property
    def start_time(self) -> float:
        """Time of the earliest entry (0.0 for an empty log)."""
        return self._entries[0].time if self._entries else 0.0

    @property
    def end_time(self) -> float:
        """Time of the latest entry (0.0 for an empty log)."""
        return self._entries[-1].time if self._entries else 0.0

    def segmentation(self) -> SegmentationResult:
        """Segment the log into recovery processes (cached)."""
        if self._segmentation is None:
            self._segmentation = segment_log(self._entries)
        return self._segmentation

    def to_processes(self) -> Tuple[RecoveryProcess, ...]:
        """The completed recovery processes in start-time order."""
        return self.segmentation().processes

    def filtered(self, *, machines: Optional[Set[str]] = None) -> "RecoveryLog":
        """Return a new log restricted to the given machines."""
        if machines is None:
            return RecoveryLog(self._entries)
        return RecoveryLog(e for e in self._entries if e.machine in machines)
