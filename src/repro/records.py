"""Every file's records, declared once, the readers of both file shapes,
and the one writer that publishes a file whole.

JSON documents (policies, Q tables, checkpoints, the lint baseline, the
RPROPOLB header) and JSONL lines (recovery logs, ``serve --queries``) are
read here, and checked against one declaration per record type.  Values
are checked, never converted: a string is not a number, a boolean is not
an integer, ``null`` is not a name; a JSON integer declared a number is
read as a float.  A refusal names the record, the field and the value.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, Optional, TextIO, TypeVar, Union,
)

from repro.errors import LogFormatError

__all__ = [
    "Kind", "Integer", "Record", "read_json", "read_lines", "open_text",
    "check_utf8", "write_atomic", "STATE", "RULE", "POLICY", "QTABLE_ENTRY",
    "QTABLE", "TRAINING", "CHECKPOINT", "LOG_LINE", "ARRAY_SPEC",
    "BINARY_HEADER", "FINDING", "BASELINE",
]

PathLike = Union[str, Path]
T = TypeVar("T")
MAX_INT64 = 2**63 - 1


class _Mismatch(LogFormatError):
    """A field value its kind refuses; the enclosing record words it."""


class Kind:
    """What one field may hold: ``check`` returns the value (or ``load``
    of it) or refuses it, showing only its type when ``by_type``."""

    def __init__(self, expected: str, accepts: Callable[[Any], bool],
                 load: Optional[Callable] = None, by_type: bool = False) -> None:
        self.expected, self.accepts = expected, accepts
        self.load, self.by_type = load, by_type

    def check(self, field: str, value: Any) -> Any:
        if not self.accepts(value):
            shown = type(value).__name__ if self.by_type else repr(value)
            raise _Mismatch(f"{field} must be {self.expected}, got {shown}")
        return value if self.load is None else self.load(value)


class Integer(Kind):
    """A JSON integer in ``[low, high]``."""

    def __init__(self, low: int, high: int = MAX_INT64) -> None:
        super().__init__("an integer", lambda v: type(v) is int)
        self.low, self.high = low, high

    def check(self, field: str, value: Any) -> int:
        super().check(field, value)
        if not self.low <= value <= self.high:
            bound = f">= {self.low}" if value < self.low else f"<= {self.high}"
            raise _Mismatch(f"{field} must be {bound}, got {value!r}")
        return value


class Record(Kind):
    """A JSON object whose declared ``fields`` are checked in order;
    ``defaults`` fill absent optional fields, undeclared fields pass
    unchecked, and a refusal shows the record itself when ``quote``."""

    def __init__(self, noun: str, /, defaults: Optional[Dict[str, Any]] = None,
                 quote: bool = True, **fields: Kind) -> None:
        super().__init__(
            "an object", lambda v: type(v) is dict, self.read, by_type=True
        )
        self.noun, self.fields = noun, fields
        self.defaults, self.quote = defaults or {}, quote

    def read(self, value: Any) -> Dict[str, Any]:
        """``value`` with its declared fields checked and defaults filled
        in: a copy only when a field was absent or widened, so a large
        file read as written holds no second set of records."""
        if not self.accepts(value):
            article = "an" if self.noun[0] in "aeiou" else "a"
            raise self.error(value, f"expected {article} {self.noun} "
                                    f"object, got {type(value).__name__}")
        checked = value
        try:
            for name, kind in self.fields.items():
                if name in value:
                    item = kind.check(name, value[name])
                    if item is value[name]:
                        continue
                elif name in self.defaults:
                    item = self.defaults[name]
                else:
                    raise _Mismatch(f"missing field {name!r}")
                if checked is value:
                    checked = dict(value)
                checked[name] = item
        except _Mismatch as exc:
            raise self.error(value, exc) from None
        return checked

    def error(self, value: Any, problem: object) -> LogFormatError:
        """A refusal of ``value``, worded as :meth:`read` words one."""
        shown = f" {value!r}" if self.quote else ""
        return LogFormatError(f"bad {self.noun}{shown}: {problem}")


def _finite(value: Any) -> bool:
    if type(value) is float:
        return math.isfinite(value)
    return type(value) is int and abs(value) <= sys.float_info.max


def _tag(*values: Any) -> Kind:
    """One of a closed set of JSON values: a format tag or an enum value."""
    return Kind(" or ".join(map(repr, values)), lambda v: any(
        type(v) is type(tag) and v == tag for tag in values
    ))


def _records(record: Record) -> Kind:
    return Kind("a list", lambda v: type(v) is list,
                lambda v: list(map(record.read, v)), by_type=True)


#: ``str.__instancecheck__`` runs in C: a 10^4-name RPROPOLB vocabulary
#: checks in ~0.3 ms.
TEXT = Kind("a string", str.__instancecheck__)
TEXTS = Kind("a list of strings", lambda v: (
    type(v) is list and all(map(str.__instancecheck__, v))
))
NAME = Kind("a non-empty string", lambda v: type(v) is str and v != "")
NUMBER = Kind("a finite number", _finite, float)
COUNT = Integer(0)
BOOLEAN = Kind("a boolean", lambda v: type(v) is bool)

POLICY_FORMAT = "repro/trained-policy@1"
QTABLE_FORMAT = "repro/qtable@1"
CHECKPOINT_FORMAT = "repro/type-checkpoint@1"
BINARY_POLICY_FORMAT = "repro/policy-bin@1"
BASELINE_VERSION = 1

#: A recovery state; also one line of a ``serve --queries`` file.
STATE = Record("state record", error_type=NAME, tried=TEXTS)
#: A policy rule; the table refuses an empty action in its own words.
RULE = Record("rule record", **STATE.fields, action=TEXT, expected_cost=NUMBER)
POLICY = Record(
    "policy", format=_tag(POLICY_FORMAT), label=TEXT, rules=_records(RULE),
    defaults={"label": "trained", "rules": ()}, quote=False,
)
QTABLE_ENTRY = Record(
    "entry record", **STATE.fields, action=TEXT, value=NUMBER,
    visits=Integer(1),
)
QTABLE = Record(
    "Q-table header", format=_tag(QTABLE_FORMAT), actions=TEXTS,
    initial_value=NUMBER, entries=_records(QTABLE_ENTRY),
    defaults={"initial_value": 0.0, "entries": ()}, quote=False,
)
TRAINING = Record(
    "training block", sweeps_run=COUNT, sweeps_to_convergence=COUNT,
    converged=BOOLEAN, episodes=COUNT, quote=False,
)
CHECKPOINT = Record(
    "checkpoint", format=_tag(CHECKPOINT_FORMAT), fingerprint=TEXT,
    error_type=NAME, training=TRAINING, qtable=QTABLE, rules=_records(RULE),
    expected_cost=Kind(
        "null or a finite number", lambda v: v is None or _finite(v),
        lambda v: v if v is None else float(v),
    ),
    candidates_evaluated=COUNT, wall_clock=NUMBER, quote=False,
    defaults={
        "expected_cost": None, "candidates_evaluated": 0, "wall_clock": 0.0,
    },
)
#: A JSONL log line.  ``recoverylog.io`` tests these types inline, and a
#: test pins it to this declaration; the entry refuses a negative time
#: and empty names in its own words.
LOG_LINE = Record(
    "record", time=NUMBER, machine=TEXT,
    kind=_tag("symptom", "action", "success"), description=TEXT,
)
ARRAY_SPEC = Record(
    "array spec", dtype=TEXT,
    shape=Kind("a list of counts", lambda v: type(v) is list and all(
        type(n) is int and n >= 0 for n in v
    )),
    offset=COUNT, quote=False,
)
BINARY_HEADER = Record(
    "header", format=_tag(BINARY_POLICY_FORMAT), label=TEXT,
    error_types=TEXTS, history_actions=TEXTS, decided_actions=TEXTS,
    max_history=COUNT, rule_count=COUNT, data_crc32=Integer(0, 2**32 - 1),
    arrays=Record(
        "array directory", keys=ARRAY_SPEC, actions=ARRAY_SPEC,
        costs=ARRAY_SPEC, quote=False,
    ),
    quote=False,
)
#: A lint finding; its line and column come from ``ast`` nodes.
FINDING = Record(
    "finding", path=TEXT, line=COUNT, column=COUNT, rule=TEXT, message=TEXT,
    suggestion=TEXT, defaults={"column": 0, "suggestion": ""},
)
BASELINE = Record(
    "baseline", version=_tag(BASELINE_VERSION), findings=_records(FINDING),
    quote=False,
)


def read_json(path: PathLike) -> Any:
    """The JSON document at ``path``; text not UTF-8 JSON is refused."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise LogFormatError(f"{path}: bad JSON: {exc}") from None


def open_text(path: PathLike) -> TextIO:
    """Open a line file; bytes that are not UTF-8 become lone surrogates."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def check_utf8(path: PathLike, line_no: int, line: str) -> None:
    """Refuse a line of :func:`open_text` that holds bytes not UTF-8."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogFormatError(
            f"{path}:{line_no}: not valid UTF-8: {exc}"
        ) from None


def read_lines(path: PathLike, build: Callable[[Any], T]) -> Iterator[T]:
    """``build`` of each non-blank line's JSON value, in file order.

    Bad UTF-8, bad JSON and refusals by ``build`` raise with a
    ``path:line_no:`` prefix.  This runs once per log entry, so only
    non-ASCII lines are UTF-8 checked, and the C scanner parses each
    line (``json.loads`` runs only to word an error).
    """
    scan = json.JSONDecoder().scan_once
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.isascii():
                check_utf8(path, line_no, line)
            line = line.strip()
            if not line:
                continue
            try:
                value, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):
                try:
                    value = json.loads(line)
                except ValueError as exc:
                    raise LogFormatError(
                        f"{path}:{line_no}: bad JSON: {exc}"
                    ) from None
            try:
                item = build(value)
            except LogFormatError as exc:
                raise LogFormatError(f"{path}:{line_no}: {exc}") from None
            yield item


def write_atomic(path: PathLike, chunks: Iterable[bytes]) -> None:
    """Publish ``chunks`` as the file at ``path``: a reader of ``path``
    sees the previous file or the whole new one, never a part.

    The bytes go to a temporary file beside ``path`` whose name no other
    writer holds (created with ``"xb"``, so it gets the mode any new
    file gets), are synced to disk, and replace ``path`` in one rename.
    Writers racing on one path each publish a complete file, the last
    rename winning.  A step that raises removes the temporary file.
    """
    path = Path(path)
    for attempt in itertools.count():
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{attempt}.tmp")
        try:
            handle = open(tmp, "xb")
        except FileExistsError:
            continue
        break
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
