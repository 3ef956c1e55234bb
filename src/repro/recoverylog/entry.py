"""A single recovery-log entry.

Entries follow the paper's ``<time, machine name, description>`` format
(Section 4.1).  The description is one of:

* a *symptom* of an error (e.g. ``error:IFM-ISNWatchdog``),
* a *repair action* name (e.g. ``REBOOT``), or
* the literal ``Success`` report of a completed recovery.

A :class:`LogEntry` is an immutable tuple row ``(time, machine, kind,
description)``.  Being a tuple, a row equals and hashes like a plain
tuple with the same four values, and its natural tuple order is the
log's total order, so sorting rows compares them in C.  A changed copy
comes from ``_replace``, which checks it like the constructor does;
``dataclasses.replace`` does not apply.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple
from itertools import repeat
from typing import List, NoReturn, Sequence

import numpy as np

from repro.errors import LogFormatError
from repro.util.timefmt import format_wallclock

__all__ = ["EntryKind", "LogEntry", "SUCCESS_DESCRIPTION"]

SUCCESS_DESCRIPTION = "Success"


@functools.total_ordering
class EntryKind(enum.Enum):
    """What a log entry's description denotes.

    Kinds order by their tie-break rank (definition order): at one
    instant on one machine a symptom causally precedes the action
    reacting to it, which precedes the success report.  A row compares
    its kind only when it shares a time and a machine with the other.
    """

    SYMPTOM = "symptom"
    ACTION = "action"
    SUCCESS = "success"

    # Members are singletons compared by identity, so the identity hash
    # (in C) is consistent with ``==``; ``Enum.__hash__`` is a Python
    # call in every kind lookup and ``LogEntry`` hash.
    __hash__ = object.__hash__

    def __lt__(self, other: "EntryKind") -> bool:
        if type(other) is not EntryKind:
            return NotImplemented
        return _KIND_RANK[self] < _KIND_RANK[other]


#: Kinds in rank order: the kind codes of :meth:`LogEntry.from_columns`.
_KINDS = tuple(EntryKind)
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}

_SYMPTOM = EntryKind.SYMPTOM
_ACTION = EntryKind.ACTION
_SUCCESS = EntryKind.SUCCESS
_INF = math.inf
_tuple_new = tuple.__new__


def _check_time(time: object) -> None:
    # A bool is an int, but the JSONL writer would render it ``true``.
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise LogFormatError(
            f"entry time must be a number, got {type(time).__name__}"
        )
    if not 0 <= time < _INF:  # NaN fails every comparison
        raise LogFormatError(f"entry time must be finite and >= 0, got {time}")


def _check_text(field: str, text: object) -> None:
    if not isinstance(text, str):
        raise LogFormatError(
            f"entry {field} must be a string, got {type(text).__name__}"
        )
    if not text:
        raise LogFormatError(f"entry {field} must be non-empty")


def _refuse_success(description: str) -> NoReturn:
    raise LogFormatError(
        f"success entries must be described as {SUCCESS_DESCRIPTION!r}, "
        f"got {description!r}"
    )


def _check_ids(field: str, ids: np.ndarray, size: int) -> None:
    if ids.dtype.kind not in "iu":
        raise LogFormatError(
            f"entry {field} ids must be integers, got dtype {ids.dtype}"
        )
    if ids.size and not (ids.min() >= 0 and ids.max() < size):
        raise LogFormatError(
            f"entry {field} ids must lie in [0, {size}), got "
            f"[{ids.min()}, {ids.max()}]"
        )


class LogEntry(namedtuple("LogEntry", ("time", "machine", "kind", "description"))):
    """One ``<time, machine, description>`` record and its kind.

    Ordering is the tuple order ``(time, machine, kind, description)``,
    with kinds in rank order, so sorting a list of entries yields
    global time order with a deterministic, causality-respecting
    tie-break: with zero detection and decision delays a symptom, the
    action answering it and the success report can share a timestamp,
    and they must sort in that order.

    The constructor checks types and values: a time that is an ``int``
    (not a ``bool``) or a ``float``, finite and ``>= 0``; non-empty
    ``str`` machine and description; an :class:`EntryKind`; and the
    literal ``Success`` on success rows.  A failed check raises
    :class:`~repro.errors.LogFormatError`.
    """

    __slots__ = ()

    def __new__(
        cls, time: float, machine: str, kind: EntryKind, description: str
    ) -> "LogEntry":
        # The rows every reader and simulator builds pass this one test;
        # anything else takes the itemised checks.
        if (
            type(time) is float and 0.0 <= time < _INF
            and type(machine) is str and machine
            and type(description) is str and description
            and (
                kind is _SYMPTOM
                or kind is _ACTION
                or (kind is _SUCCESS and description == SUCCESS_DESCRIPTION)
            )
        ):
            return _tuple_new(cls, (time, machine, kind, description))
        _check_time(time)
        _check_text("machine", machine)
        if type(kind) is not EntryKind:
            raise LogFormatError(
                f"entry kind must be an EntryKind, got {type(kind).__name__}"
            )
        _check_text("description", description)
        if kind is _SUCCESS and description != SUCCESS_DESCRIPTION:
            _refuse_success(description)
        return _tuple_new(cls, (time, machine, kind, description))

    # ``_replace`` and unpickling both build through the checked
    # constructor (namedtuple's own ``_make`` calls ``tuple.__new__``).
    @classmethod
    def _make(cls, iterable) -> "LogEntry":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @classmethod
    def from_columns(
        cls,
        times: np.ndarray,
        machines: np.ndarray,
        kinds: np.ndarray,
        descriptions: np.ndarray,
        *,
        machine_names: Sequence[str],
        description_names: Sequence[str],
    ) -> List["LogEntry"]:
        """Build one row per position of four parallel columns.

        ``machines`` and ``descriptions`` hold ids into
        ``machine_names`` and ``description_names``; ``kinds`` holds
        kind ranks (0 symptom, 1 action, 2 success).  The columns are
        checked once, with the single-row constructor's messages: the
        times vectorised, each name once per vocabulary entry, and the
        descriptions of the success rows once per distinct id.  Every
        row is then built in C, with no Python frame per row.
        """
        times = np.asarray(times)
        machines = np.asarray(machines)
        kinds = np.asarray(kinds)
        descriptions = np.asarray(descriptions)
        if not len(times) == len(machines) == len(kinds) == len(descriptions):
            raise LogFormatError(
                "entry columns must have equal lengths, got "
                f"{len(times)}, {len(machines)}, {len(kinds)} and "
                f"{len(descriptions)}"
            )
        if times.dtype.kind not in "fiu":
            raise LogFormatError(
                f"entry times must be numbers, got dtype {times.dtype}"
            )
        bad = np.flatnonzero(~((times >= 0) & (times < _INF)))
        if bad.size:
            _check_time(times[bad[0]].item())
        for name in machine_names:
            _check_text("machine", name)
        for name in description_names:
            _check_text("description", name)
        _check_ids("machine", machines, len(machine_names))
        _check_ids("kind", kinds, len(_KINDS))
        _check_ids("description", descriptions, len(description_names))
        success_ids = np.unique(descriptions[kinds == _KIND_RANK[_SUCCESS]])
        for did in success_ids.tolist():
            if description_names[did] != SUCCESS_DESCRIPTION:
                _refuse_success(description_names[did])
        # Object-array gathers and ``tolist`` hand out the vocabularies'
        # own objects; ``tuple.__new__`` then builds each row in C.
        rows = zip(
            times.tolist(),
            np.array(machine_names, dtype=object)[machines].tolist(),
            np.array(_KINDS, dtype=object)[kinds].tolist(),
            np.array(description_names, dtype=object)[descriptions].tolist(),
        )
        return list(map(_tuple_new, repeat(cls), rows))

    @classmethod
    def symptom(cls, time: float, machine: str, symptom: str) -> "LogEntry":
        """Build a symptom entry."""
        return cls(time, machine, _SYMPTOM, symptom)

    @classmethod
    def action(cls, time: float, machine: str, action_name: str) -> "LogEntry":
        """Build a repair-action entry."""
        return cls(time, machine, _ACTION, action_name)

    @classmethod
    def success(cls, time: float, machine: str) -> "LogEntry":
        """Build a successful-recovery report entry."""
        return cls(time, machine, _SUCCESS, SUCCESS_DESCRIPTION)

    @property
    def is_symptom(self) -> bool:
        return self.kind is _SYMPTOM

    @property
    def is_action(self) -> bool:
        return self.kind is _ACTION

    @property
    def is_success(self) -> bool:
        return self.kind is _SUCCESS

    def render(self) -> str:
        """Render like the paper's Table 1 row, e.g. ``3:07:12 am  REBOOT``."""
        return f"{format_wallclock(self.time)}\t{self.description}"
