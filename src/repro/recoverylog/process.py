"""Recovery processes and log segmentation.

A :class:`RecoveryProcess` is one machine's journey from the advent of a new
error to the report of a successful recovery (Section 4.1).  The *error
type* of a process is its initial symptom (Section 3.1), and its *downtime*
is the span from first symptom to success.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SegmentationError
from repro.recoverylog.entry import EntryKind, LogEntry

__all__ = [
    "ActionAttempt",
    "RecoveryProcess",
    "SegmentationResult",
    "segment_log",
    "time_ordered_split",
]

_SYMPTOM = EntryKind.SYMPTOM
_ACTION = EntryKind.ACTION
_SUCCESS = EntryKind.SUCCESS


@dataclass(frozen=True)
class ActionAttempt:
    """One repair-action execution inside a recovery process.

    Attributes
    ----------
    action:
        The action name.
    start_time:
        When the action was issued.
    end_time:
        When its outcome was known: the time of the next action entry, or
        of the success report for the final action.  The difference is the
        action's contribution to downtime, *including* the observation
        period the paper notes is not negligible.
    succeeded:
        Whether this attempt ended the recovery process.
    """

    action: str
    start_time: float
    end_time: float
    succeeded: bool

    @property
    def duration(self) -> float:
        """Seconds from issuing the action to knowing its outcome."""
        return self.end_time - self.start_time


@dataclass(frozen=True)
class RecoveryProcess:
    """One error's full recovery: symptoms, repair attempts, success.

    Instances are built by :func:`segment_log`; constructing one directly
    validates the paper's structural invariants (starts with a symptom,
    ends with its only success report, times are non-decreasing, every
    entry is on ``machine``).
    """

    machine: str
    entries: Tuple[LogEntry, ...]

    def __hash__(self) -> int:
        # Same fields as the generated dataclass hash, but memoized:
        # value-keyed indexes (e.g. the simulation platform's process
        # index) hash processes on every replay, and rehashing the
        # whole entry tuple each time is O(|entries|).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.machine, self.entries))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # The memoized hash is only valid in the interpreter that
        # computed it (``str`` hashes are salted per process).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __post_init__(self) -> None:
        entries = self.entries
        if len(entries) < 2:
            raise SegmentationError(
                "a recovery process needs at least a symptom and a success"
            )
        if entries[0].kind is not _SYMPTOM:
            raise SegmentationError(
                "a recovery process must start with an error symptom, got "
                f"{entries[0]!r}"
            )
        if entries[-1].kind is not _SUCCESS:
            raise SegmentationError(
                "a recovery process must end with a success report, got "
                f"{entries[-1]!r}"
            )
        # Rows are unpacked, not read field by field: a named-tuple field
        # read is a descriptor call.
        last = len(entries) - 1
        machine = self.machine
        earlier = entries[0]
        earlier_time = earlier.time
        for position, entry in enumerate(entries):
            time, entry_machine, kind, _ = entry
            if entry_machine != machine:
                raise SegmentationError(
                    f"entry machine {entry_machine!r} differs from process "
                    f"machine {machine!r}"
                )
            if time < earlier_time:
                raise SegmentationError(
                    f"entries out of order: {earlier!r} then {entry!r}"
                )
            if kind is _SUCCESS and position != last:
                raise SegmentationError(
                    "success report in the middle of a recovery process"
                )
            earlier, earlier_time = entry, time

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def error_type(self) -> str:
        """The initial symptom, used to approximate the fault (Section 3.1)."""
        return self.entries[0].description

    @property
    def symptoms(self) -> Tuple[str, ...]:
        """All symptom descriptions in occurrence order (with repeats)."""
        return tuple([d for _, _, k, d in self.entries if k is _SYMPTOM])

    # The three views below are memoized in ``__dict__`` like
    # ``__hash__``: ``functools.cached_property`` takes a lock on every
    # first read (Python 3.10 and 3.11), which cost as much as building
    # the value.

    @property
    def symptom_set(self) -> FrozenSet[str]:
        """The distinct symptoms observed during this process."""
        cached = self.__dict__.get("_symptom_set")
        if cached is None:
            cached = frozenset(
                [d for _, _, k, d in self.entries if k is _SYMPTOM]
            )
            object.__setattr__(self, "_symptom_set", cached)
        return cached

    @property
    def actions(self) -> Tuple[str, ...]:
        """Repair-action names in execution order."""
        cached = self.__dict__.get("_actions")
        if cached is None:
            cached = tuple(
                [d for _, _, k, d in self.entries if k is _ACTION]
            )
            object.__setattr__(self, "_actions", cached)
        return cached

    @property
    def attempts(self) -> Tuple[ActionAttempt, ...]:
        """Action executions with their observed durations and outcomes.

        Memoized: replay and training touch this on every simulated step.
        """
        cached = self.__dict__.get("_attempts")
        if cached is None:
            actions = [(t, d) for t, _, k, d in self.entries if k is _ACTION]
            attempts: List[ActionAttempt] = []
            for i, (time, action) in enumerate(actions):
                if i + 1 < len(actions):
                    end = actions[i + 1][0]
                    succeeded = False
                else:
                    end = self.entries[-1].time
                    succeeded = True
                attempts.append(ActionAttempt(action, time, end, succeeded))
            cached = tuple(attempts)
            object.__setattr__(self, "_attempts", cached)
        return cached

    @property
    def start_time(self) -> float:
        """When the first symptom appeared."""
        return self.entries[0].time

    @property
    def end_time(self) -> float:
        """When success was reported."""
        return self.entries[-1].time

    @property
    def downtime(self) -> float:
        """Total seconds from first symptom to success."""
        return self.end_time - self.start_time

    @property
    def final_action(self) -> Optional[str]:
        """The last (curing) repair action, or ``None`` if none was taken."""
        actions = self.actions
        return actions[-1] if actions else None

    def render(self) -> str:
        """Render the process like the paper's Table 1."""
        header = f"Recovery process on {self.machine}"
        lines = [header, "-" * len(header)]
        lines.extend(entry.render() for entry in self.entries)
        return "\n".join(lines)


@dataclass(frozen=True)
class SegmentationResult:
    """Output of :func:`segment_log`.

    Attributes
    ----------
    processes:
        Completed recovery processes, in start-time order.
    incomplete:
        Per-machine trailing entries that never reached a success report
        (e.g. an error still being repaired when the log window closed).
    orphaned:
        Entries that could not open a process (an action or success with no
        preceding symptom), kept for diagnostics.
    """

    processes: Tuple[RecoveryProcess, ...]
    incomplete: Tuple[Tuple[LogEntry, ...], ...]
    orphaned: Tuple[LogEntry, ...]

    @property
    def completion_ratio(self) -> float:
        """Fraction of opened processes that completed."""
        opened = len(self.processes) + len(self.incomplete)
        if opened == 0:
            return 1.0
        return len(self.processes) / opened


def time_ordered_split(
    processes: Sequence[RecoveryProcess],
    train_fraction: float,
) -> Tuple[Tuple[RecoveryProcess, ...], Tuple[RecoveryProcess, ...]]:
    """Split processes into (train, test) by time order (Section 5).

    The paper trains on the chronologically first 20/40/60/80% of the
    log and tests on the remainder — never a random split, since a
    deployed learner only ever sees the past.
    """
    if not 0.0 < train_fraction < 1.0:
        raise SegmentationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    ordered = sorted(processes, key=lambda p: (p.start_time, p.machine))
    cut = int(round(len(ordered) * train_fraction))
    return tuple(ordered[:cut]), tuple(ordered[cut:])


def segment_log(
    entries: Sequence[LogEntry],
    *,
    keep_incomplete: bool = True,
) -> SegmentationResult:
    """Divide a recovery log into an ensemble of recovery processes.

    Entries are grouped by machine; within a machine, a process opens at
    the first symptom after the previous success (or the log start) and
    closes at the next success report.

    Parameters
    ----------
    entries:
        Log entries in any order; they are sorted by time per machine.
    keep_incomplete:
        When True (default), trailing unfinished processes are returned in
        :attr:`SegmentationResult.incomplete` instead of being discarded
        silently.
    """
    by_machine: Dict[str, List[LogEntry]] = {}
    for entry in entries:
        by_machine.setdefault(entry.machine, []).append(entry)

    processes: List[RecoveryProcess] = []
    incomplete: List[Tuple[LogEntry, ...]] = []
    orphaned: List[LogEntry] = []

    for machine in sorted(by_machine):
        machine_entries = sorted(by_machine[machine])
        current: List[LogEntry] = []
        for entry in machine_entries:
            kind = entry.kind
            if not current:
                if kind is _SYMPTOM:
                    current.append(entry)
                else:
                    orphaned.append(entry)
                continue
            current.append(entry)
            if kind is _SUCCESS:
                processes.append(RecoveryProcess(machine, tuple(current)))
                current = []
        if current and keep_incomplete:
            incomplete.append(tuple(current))

    processes.sort(key=lambda p: (p.start_time, p.machine))
    return SegmentationResult(
        processes=tuple(processes),
        incomplete=tuple(incomplete),
        orphaned=tuple(orphaned),
    )
