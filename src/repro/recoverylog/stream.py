"""Streaming log segmentation: emit recovery processes as they close.

:func:`~repro.recoverylog.process.segment_log` needs the whole log in
memory (it groups by machine, sorts, then slices).  The
:class:`StreamingSegmenter` here consumes a *time-ordered* entry stream
and maintains only the per-machine open-process buffers: when a machine
reports success, its buffered entries become a completed
:class:`~repro.recoverylog.process.RecoveryProcess` and are released
immediately.  Peak memory is the sum of currently-open processes — a
handful of entries per machine — no matter how long the log is.

The segmentation semantics are pinned to the eager reference by
``tests/test_streaming_equivalence.py``: identical completed processes,
identical incomplete trailing buffers and identical orphan entries
(modulo emission order — the streaming path emits processes on close,
the eager path reports them sorted by start time).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, SegmentationError
from repro.recoverylog.entry import EntryKind, LogEntry
from repro.recoverylog.process import RecoveryProcess

__all__ = ["StreamingSegmenter", "DEFAULT_MAX_OPEN_ENTRIES"]

#: Per-machine open-buffer bound: a recovery process longer than this is
#: almost certainly a log defect (a machine whose success reports are
#: lost would otherwise grow without bound and defeat the memory
#: guarantee), so the segmenter fails loudly instead of swallowing RAM.
DEFAULT_MAX_OPEN_ENTRIES = 100_000

#: Orphan entries retained verbatim for diagnostics; beyond this only
#: the count grows (an adversarial all-orphan log must not re-create the
#: unbounded-memory problem streaming exists to solve).
DEFAULT_MAX_ORPHANS_KEPT = 10_000

_SYMPTOM = EntryKind.SYMPTOM
_SUCCESS = EntryKind.SUCCESS


class StreamingSegmenter:
    """Per-machine state machine that emits recovery processes on close.

    Entries must arrive in log order (the
    :class:`~repro.recoverylog.entry.LogEntry` total order — the order
    both the on-disk formats and the simulators produce); out-of-order
    input raises :class:`~repro.errors.SegmentationError` rather than
    silently mis-segmenting.

    Parameters
    ----------
    max_open_entries:
        Upper bound on any one machine's open-process buffer.
    max_orphans_kept:
        Orphan entries (actions/successes with no opening symptom)
        retained for diagnostics; all orphans are *counted* regardless.
    """

    def __init__(
        self,
        *,
        max_open_entries: int = DEFAULT_MAX_OPEN_ENTRIES,
        max_orphans_kept: int = DEFAULT_MAX_ORPHANS_KEPT,
    ) -> None:
        if max_open_entries < 2:
            raise ConfigurationError(
                f"max_open_entries must be >= 2, got {max_open_entries}"
            )
        if max_orphans_kept < 0:
            raise ConfigurationError(
                f"max_orphans_kept must be >= 0, got {max_orphans_kept}"
            )
        self._max_open = max_open_entries
        self._max_orphans = max_orphans_kept
        self._open: Dict[str, List[LogEntry]] = {}
        self._orphans: List[LogEntry] = []
        self._orphan_count = 0
        self._entry_count = 0
        self._emitted_count = 0
        self._last: Optional[LogEntry] = None

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, entry: LogEntry) -> Optional[RecoveryProcess]:
        """Consume one entry; return the process it completed, if any."""
        return next(self.feed_many((entry,)), None)

    def feed_many(
        self, entries: Iterable[LogEntry]
    ) -> Iterator[RecoveryProcess]:
        """Consume entries, yielding each completed process as it closes.

        This loop is the segmentation rule (:meth:`feed` runs it on one
        entry); the state lives on the instance, so it reads the same
        between yields and after an error as after one entry at a time.
        """
        open_buffers = self._open
        orphans = self._orphans
        for entry in entries:
            # One unpack reads the row; a named-tuple field read is a
            # descriptor call.
            time, machine, kind, _ = entry
            last = self._last
            # Fast path on the timestamp alone; whole rows compare (in
            # C) only on ties.
            if last is not None and not last.time < time and entry < last:
                raise SegmentationError(
                    f"entries out of stream order: {last!r} then {entry!r}; "
                    "the streaming segmenter needs time-ordered input"
                )
            self._last = entry
            self._entry_count += 1
            buffer = open_buffers.get(machine)
            if buffer is None:
                if kind is _SYMPTOM:
                    open_buffers[machine] = [entry]
                else:
                    self._orphan_count += 1
                    if len(orphans) < self._max_orphans:
                        orphans.append(entry)
                continue
            buffer.append(entry)
            if kind is _SUCCESS:
                del open_buffers[machine]
                self._emitted_count += 1
                yield RecoveryProcess(machine, tuple(buffer))
            elif len(buffer) > self._max_open:
                raise SegmentationError(
                    f"machine {machine!r} has an open recovery process "
                    f"exceeding {self._max_open} entries; the log likely "
                    "lost its success reports (raise max_open_entries to "
                    "override)"
                )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Entries consumed so far."""
        return self._entry_count

    @property
    def emitted_count(self) -> int:
        """Completed processes emitted so far."""
        return self._emitted_count

    @property
    def open_machine_count(self) -> int:
        """Machines with an open (unfinished) recovery process."""
        return len(self._open)

    @property
    def open_entry_count(self) -> int:
        """Entries currently buffered across all open processes."""
        return sum(len(buffer) for buffer in self._open.values())

    @property
    def orphan_count(self) -> int:
        """Entries that could not open a process (no leading symptom)."""
        return self._orphan_count

    @property
    def orphans(self) -> Tuple[LogEntry, ...]:
        """Retained orphan entries (capped at ``max_orphans_kept``)."""
        return tuple(self._orphans)

    def pending(self) -> Tuple[Tuple[LogEntry, ...], ...]:
        """Open per-machine buffers, in machine-name order.

        Matches the eager reference's ``incomplete`` tuples when the
        stream ends: trailing entries that never reached a success.
        """
        return tuple(
            tuple(self._open[machine]) for machine in sorted(self._open)
        )
