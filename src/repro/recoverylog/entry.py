"""A single recovery-log entry.

Entries follow the paper's ``<time, machine name, description>`` format
(Section 4.1).  The description is one of:

* a *symptom* of an error (e.g. ``error:IFM-ISNWatchdog``),
* a *repair action* name (e.g. ``REBOOT``), or
* the literal ``Success`` report of a completed recovery.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import LogFormatError
from repro.util.timefmt import format_wallclock

__all__ = ["EntryKind", "LogEntry", "SUCCESS_DESCRIPTION"]

SUCCESS_DESCRIPTION = "Success"


class EntryKind(enum.Enum):
    """What a log entry's description denotes."""

    SYMPTOM = "symptom"
    ACTION = "action"
    SUCCESS = "success"

    # Members are singletons compared by identity, so the identity hash
    # (in C) is consistent with ``==``; ``Enum.__hash__`` is a Python
    # call in every sort key, kind lookup and ``LogEntry`` hash.
    __hash__ = object.__hash__


#: Tie-break rank when entries share (time, machine): at one instant a
#: symptom causally precedes the action reacting to it, which precedes
#: the success report.  (Enum members themselves do not define ``<``,
#: so ordering must not fall back to comparing ``kind`` directly.)
_KIND_RANK = {
    EntryKind.SYMPTOM: 0,
    EntryKind.ACTION: 1,
    EntryKind.SUCCESS: 2,
}


@dataclass(frozen=True)
class LogEntry:
    """One ``<time, machine, description>`` record.

    Ordering is by ``(time, machine, kind rank, description)`` so that
    sorting a list of entries yields global time order with a
    deterministic, causality-respecting tie-break: with zero detection
    and decision delays a symptom, the action answering it and the
    success report can share a timestamp, and they must sort in that
    order.
    """

    time: float
    machine: str
    kind: EntryKind
    description: str

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:  # NaN fails every comparison
            raise LogFormatError(
                f"entry time must be finite and >= 0, got {self.time}"
            )
        if not self.machine:
            raise LogFormatError("entry machine must be non-empty")
        if not self.description:
            raise LogFormatError("entry description must be non-empty")
        if self.kind is EntryKind.SUCCESS and self.description != SUCCESS_DESCRIPTION:
            raise LogFormatError(
                f"success entries must be described as {SUCCESS_DESCRIPTION!r}, "
                f"got {self.description!r}"
            )

    @classmethod
    def symptom(cls, time: float, machine: str, symptom: str) -> "LogEntry":
        """Build a symptom entry."""
        return cls(time, machine, EntryKind.SYMPTOM, symptom)

    @classmethod
    def action(cls, time: float, machine: str, action_name: str) -> "LogEntry":
        """Build a repair-action entry."""
        return cls(time, machine, EntryKind.ACTION, action_name)

    @classmethod
    def success(cls, time: float, machine: str) -> "LogEntry":
        """Build a successful-recovery report entry."""
        return cls(time, machine, EntryKind.SUCCESS, SUCCESS_DESCRIPTION)

    @property
    def sort_key(self) -> "tuple[float, str, int, str]":
        """The total-order key: ``(time, machine, kind rank, description)``.

        Distinct entries always compare unequal under this key except
        when all four components coincide — in which case the entries
        are equal outright — so the induced order is total and
        consistent with ``==``.
        """
        return (self.time, self.machine, _KIND_RANK[self.kind], self.description)

    def __lt__(self, other: "LogEntry") -> bool:
        if not isinstance(other, LogEntry):
            return NotImplemented
        return self.sort_key < other.sort_key

    def __le__(self, other: "LogEntry") -> bool:
        if not isinstance(other, LogEntry):
            return NotImplemented
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "LogEntry") -> bool:
        if not isinstance(other, LogEntry):
            return NotImplemented
        return self.sort_key > other.sort_key

    def __ge__(self, other: "LogEntry") -> bool:
        if not isinstance(other, LogEntry):
            return NotImplemented
        return self.sort_key >= other.sort_key

    @property
    def is_symptom(self) -> bool:
        return self.kind is EntryKind.SYMPTOM

    @property
    def is_action(self) -> bool:
        return self.kind is EntryKind.ACTION

    @property
    def is_success(self) -> bool:
        return self.kind is EntryKind.SUCCESS

    def render(self) -> str:
        """Render like the paper's Table 1 row, e.g. ``3:07:12 am  REBOOT``."""
        return f"{format_wallclock(self.time)}\t{self.description}"
