"""Recovery processes and log segmentation.

A :class:`RecoveryProcess` is one machine's journey from the advent of a new
error to the report of a successful recovery (Section 4.1).  The *error
type* of a process is its initial symptom (Section 3.1), and its *downtime*
is the span from first symptom to success.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SegmentationError
from repro.recoverylog.entry import LogEntry

__all__ = [
    "ActionAttempt",
    "RecoveryProcess",
    "SegmentationResult",
    "segment_log",
    "time_ordered_split",
]


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
    ends with a success report, times are non-decreasing).
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

    def __post_init__(self) -> None:
        if len(self.entries) < 2:
            raise SegmentationError(
                "a recovery process needs at least a symptom and a success"
            )
        if not self.entries[0].is_symptom:
            raise SegmentationError(
                "a recovery process must start with an error symptom, got "
                f"{self.entries[0]!r}"
            )
        if not self.entries[-1].is_success:
            raise SegmentationError(
                "a recovery process must end with a success report, got "
                f"{self.entries[-1]!r}"
            )
        for earlier, later in zip(self.entries, self.entries[1:]):
            if later.time < earlier.time:
                raise SegmentationError(
                    f"entries out of order: {earlier!r} then {later!r}"
                )
            if later.is_success and not later == self.entries[-1]:
                raise SegmentationError(
                    "success report in the middle of a recovery process"
                )
        for entry in self.entries:
            if entry.machine != self.machine:
                raise SegmentationError(
                    f"entry machine {entry.machine!r} differs from process "
                    f"machine {self.machine!r}"
                )

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
        return tuple(e.description for e in self.entries if e.is_symptom)

    @functools.cached_property
    def symptom_set(self) -> FrozenSet[str]:
        """The distinct symptoms observed during this process."""
        return frozenset(self.symptoms)

    @functools.cached_property
    def actions(self) -> Tuple[str, ...]:
        """Repair-action names in execution order."""
        return tuple(e.description for e in self.entries if e.is_action)

    @functools.cached_property
    def attempts(self) -> Tuple[ActionAttempt, ...]:
        """Action executions with their observed durations and outcomes.

        Cached: replay and training touch this on every simulated step.
        """
        action_entries = [e for e in self.entries if e.is_action]
        attempts: List[ActionAttempt] = []
        for i, entry in enumerate(action_entries):
            if i + 1 < len(action_entries):
                end = action_entries[i + 1].time
                succeeded = False
            else:
                end = self.entries[-1].time
                succeeded = True
            attempts.append(
                ActionAttempt(entry.description, entry.time, end, succeeded)
            )
        return tuple(attempts)

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
            if not current:
                if entry.is_symptom:
                    current.append(entry)
                else:
                    orphaned.append(entry)
                continue
            current.append(entry)
            if entry.is_success:
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
