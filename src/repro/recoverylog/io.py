"""Serialization of recovery logs.

Two formats are supported:

* **text** — the paper's human-readable ``<time, machine, description>``
  format, tab-separated, one entry per line.  The entry kind is inferred
  from the description (the literal ``Success``, a known action name, or
  otherwise a symptom), exactly the ambiguity a real operations log has.
* **jsonl** — one JSON object per line with an explicit ``kind`` field;
  lossless round-trip.

Every reader exists in two shapes: a streaming iterator
(:func:`iter_log_text`, :func:`iter_log_jsonl`) that yields one
:class:`~repro.recoverylog.entry.LogEntry` at a time and never holds the
file in memory, and the historical eager reader
(:func:`read_log_text`, :func:`read_log_jsonl`) which is now a thin
wrapper that drains the iterator into a
:class:`~repro.recoverylog.log.RecoveryLog`.  Both shapes report parse
failures with identical ``path:line_no`` diagnostics.
:func:`iter_log_chunks` batches either iterator into bounded lists for
chunk-at-a-time consumers.

The JSONL writer formats each line itself, byte for byte as the compact
``json`` encoder would (entries whose time is an ``int`` go through that
encoder; :class:`~repro.recoverylog.entry.LogEntry` admits no other
types).  Both writers unpack each row rather than read its fields.  The
JSONL reader reads lines through :func:`repro.records.read_lines` and
checks each against :data:`repro.records.LOG_LINE`: values of the wrong
JSON type are refused, not converted.  A byte that is not UTF-8 is reported like
every other defect: as a ``LogFormatError`` that begins
``path:line_no:``.
``benchmarks/bench_mining_throughput.py`` reports both writers' speed
against the historical one-``write``-per-entry shapes.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Set, Union

from repro.errors import ConfigurationError, LogFormatError
from repro.recoverylog.entry import SUCCESS_DESCRIPTION, EntryKind, LogEntry
from repro.recoverylog.log import RecoveryLog
from repro.records import LOG_LINE, check_utf8, open_text, read_lines

__all__ = [
    "write_log_text",
    "read_log_text",
    "write_log_jsonl",
    "read_log_jsonl",
    "iter_log_text",
    "iter_log_jsonl",
    "iter_log_entries",
    "iter_log_chunks",
    "read_log",
    "sniff_log_format",
    "resolve_log_format",
    "DEFAULT_ACTION_NAMES",
    "DEFAULT_CHUNK_SIZE",
    "LOG_FORMATS",
]

PathLike = Union[str, Path]

DEFAULT_ACTION_NAMES = frozenset({"TRYNOP", "REBOOT", "REIMAGE", "RMA"})

#: Entries per list yielded by :func:`iter_log_chunks`.
DEFAULT_CHUNK_SIZE = 65_536

#: Explicit on-disk formats (``auto`` additionally sniffs the content).
LOG_FORMATS = ("auto", "text", "jsonl")

#: The compact encoder and its renderings of a finite float, a str and a
#: kind; the JSONL writer formats lines from the last three itself.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":")).encode
_FLOAT_JSON = float.__repr__
_STR_JSON = json.encoder.encode_basestring_ascii
_KIND_JSON = {kind: _STR_JSON(kind.value) for kind in EntryKind}

#: Kind value -> kind; faster than ``EntryKind(value)``.
_KINDS = {kind.value: kind for kind in EntryKind}


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
def write_log_text(log: Iterable[LogEntry], path: PathLike) -> int:
    """Write entries as tab-separated ``time  machine  description`` lines.

    Returns the number of entries written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        write = handle.write
        for time, machine, _, text in log:
            # repr() keeps full float precision so parsing round-trips.
            write(f"{time!r}\t{machine}\t{text}\n")
            count += 1
    return count


def write_log_jsonl(log: Iterable[LogEntry], path: PathLike) -> int:
    """Write entries as JSON lines with explicit kinds.

    Records are rendered compactly (no separator whitespace).  Returns
    the number of entries written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        write = handle.write
        for time, machine, kind, text in log:
            if isinstance(time, float):
                write(
                    f'{{"time":{_FLOAT_JSON(time)},'
                    f'"machine":{_STR_JSON(machine)},'
                    f'"kind":{_KIND_JSON[kind]},'
                    f'"description":{_STR_JSON(text)}}}\n'
                )
            else:
                write(_COMPACT_JSON({
                    "time": time, "machine": machine,
                    "kind": kind.value, "description": text,
                }) + "\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# Streaming readers
# ----------------------------------------------------------------------
def iter_log_text(
    path: PathLike,
    *,
    action_names: Optional[Set[str]] = None,
) -> Iterator[LogEntry]:
    """Yield entries of a text-format log one at a time.

    Parameters
    ----------
    path:
        File to read.
    action_names:
        Descriptions to classify as repair actions.  Defaults to the
        paper's four actions.
    """
    names = DEFAULT_ACTION_NAMES if action_names is None else set(action_names)
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.isascii():
                check_utf8(path, line_no, line)
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise LogFormatError(
                    f"{path}:{line_no}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            time_text, machine, description = parts
            try:
                time = float(time_text)
            except ValueError:
                raise LogFormatError(
                    f"{path}:{line_no}: bad timestamp {time_text!r}"
                ) from None
            if description == SUCCESS_DESCRIPTION:
                kind = EntryKind.SUCCESS
            elif description in names:
                kind = EntryKind.ACTION
            else:
                kind = EntryKind.SYMPTOM
            try:
                entry = LogEntry(time, machine, kind, description)
            except LogFormatError as exc:
                raise LogFormatError(f"{path}:{line_no}: {exc}") from None
            yield entry


def _log_entry(record: Any) -> LogEntry:
    """The entry a :data:`~repro.records.LOG_LINE` record holds.

    A generic check would cost about a quarter of every log read, so a
    record with a ``float`` time goes straight to
    :class:`~repro.recoverylog.entry.LogEntry`, which checks the other
    fields' types itself (a hypothesis differential pins this to
    ``LOG_LINE``).  A record that fails either test is read through
    ``LOG_LINE``, which refuses it with the declared message or reads
    an integer time as a float.
    """
    try:
        time = record["time"]
        if type(time) is float:
            return LogEntry(
                time,
                record["machine"],
                _KINDS[record["kind"]],
                record["description"],
            )
    except (KeyError, TypeError, LogFormatError):
        pass
    fields = LOG_LINE.read(record)
    try:
        return LogEntry(
            fields["time"],
            fields["machine"],
            _KINDS[fields["kind"]],
            fields["description"],
        )
    except LogFormatError as exc:
        raise LOG_LINE.error(record, exc) from None


def iter_log_jsonl(path: PathLike) -> Iterator[LogEntry]:
    """Yield entries of a JSONL-format log one at a time."""
    return read_lines(path, _log_entry)


def sniff_log_format(path: PathLike) -> str:
    """Guess ``"text"`` or ``"jsonl"`` from the first non-blank line.

    A JSONL log's every record is an object, so a leading ``{`` decides;
    an empty file defaults to ``"text"`` (both parsers accept it).
    """
    with open_text(path) as handle:
        for line in handle:
            stripped = line.strip()
            if stripped:
                return "jsonl" if stripped.startswith("{") else "text"
    return "text"


def resolve_log_format(path: PathLike, log_format: str = "auto") -> str:
    """Resolve ``auto`` to a concrete format by sniffing the content.

    Explicit ``"text"`` / ``"jsonl"`` pass through unchanged; anything
    else must be ``"auto"``, which inspects the file rather than
    trusting the suffix (operations logs routinely carry ``.log``
    regardless of their syntax).
    """
    if log_format in ("text", "jsonl"):
        return log_format
    if log_format != "auto":
        raise ConfigurationError(
            f"log format must be one of {', '.join(LOG_FORMATS)}, "
            f"got {log_format!r}"
        )
    return sniff_log_format(path)


def iter_log_entries(
    path: PathLike,
    *,
    log_format: str = "auto",
    action_names: Optional[Set[str]] = None,
) -> Iterator[LogEntry]:
    """Yield entries of a log in either format, resolving ``auto``."""
    resolved = resolve_log_format(path, log_format)
    if resolved == "jsonl":
        return iter_log_jsonl(path)
    return iter_log_text(path, action_names=action_names)


def iter_log_chunks(
    path: PathLike,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    log_format: str = "auto",
    action_names: Optional[Set[str]] = None,
) -> Iterator[List[LogEntry]]:
    """Yield lists of at most ``chunk_size`` entries, in file order.

    The bounded chunks are what the streaming miner consumes; peak
    memory is one chunk regardless of the log's size.
    """
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    entries = iter_log_entries(
        path, log_format=log_format, action_names=action_names
    )
    while True:
        chunk = list(islice(entries, chunk_size))
        if not chunk:
            return
        yield chunk


# ----------------------------------------------------------------------
# Eager readers (thin wrappers over the iterators)
# ----------------------------------------------------------------------
def read_log_text(
    path: PathLike,
    *,
    action_names: Optional[Set[str]] = None,
) -> RecoveryLog:
    """Parse a text-format log back into a :class:`RecoveryLog`."""
    return RecoveryLog(iter_log_text(path, action_names=action_names))


def read_log_jsonl(path: PathLike) -> RecoveryLog:
    """Parse a JSONL-format log back into a :class:`RecoveryLog`."""
    return RecoveryLog(iter_log_jsonl(path))


def read_log(
    path: PathLike,
    *,
    log_format: str = "auto",
    action_names: Optional[Set[str]] = None,
) -> RecoveryLog:
    """Read a log in either format, resolving ``auto`` by sniffing."""
    return RecoveryLog(
        iter_log_entries(path, log_format=log_format, action_names=action_names)
    )
