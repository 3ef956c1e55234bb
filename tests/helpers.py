"""Shared test helpers.

Compact construction of processes and logs, :func:`snapshot_digest`
for pinning results to frozen SHA-256 digests, and the out-of-range
Q-table fields every Q-table loader must refuse.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.recoverylog.entry import LogEntry
from repro.recoverylog.log import RecoveryLog
from repro.recoverylog.process import RecoveryProcess

DEFAULT_STEP = 600.0


def make_process(
    actions: Sequence[str],
    *,
    machine: str = "m-test",
    error_type: str = "error:X",
    start: float = 0.0,
    step: float = DEFAULT_STEP,
    durations: Optional[Sequence[float]] = None,
    extra_symptoms: Sequence[str] = (),
    detection_delay: float = 60.0,
) -> RecoveryProcess:
    """Build a recovery process with controlled attempt durations.

    The first symptom fires at ``start``; the first action after
    ``detection_delay``; each attempt lasts ``durations[i]`` (or ``step``
    for all when omitted); success closes the final attempt.
    ``extra_symptoms`` are emitted right after the initial one.
    """
    if durations is None:
        durations = [step] * len(actions)
    if len(durations) != len(actions):
        raise ValueError("durations must match actions")
    entries: List[LogEntry] = [LogEntry.symptom(start, machine, error_type)]
    for offset, symptom in enumerate(extra_symptoms, start=1):
        entries.append(
            LogEntry.symptom(start + offset * 1.0, machine, symptom)
        )
    time = start + detection_delay
    for action, duration in zip(actions, durations):
        entries.append(LogEntry.action(time, machine, action))
        time += duration
    entries.append(LogEntry.success(time, machine))
    return RecoveryProcess(machine, tuple(entries))


def make_log(processes: Iterable[RecoveryProcess]) -> RecoveryLog:
    """Flatten processes back into a raw log."""
    log = RecoveryLog()
    for process in processes:
        log.extend(process.entries)
    return log


#: Realistic per-action attempt durations for ladder fixtures (seconds).
ACTION_DURATIONS = {
    "TRYNOP": 300.0,
    "REBOOT": 2_700.0,
    "REIMAGE": 7_200.0,
    "RMA": 172_800.0,
}


def ladder_processes(
    error_type: str,
    counts: Sequence[Tuple[Sequence[str], int]],
    *,
    machine_prefix: str = "m",
    gap: float = 500_000.0,
    step: Optional[float] = None,
    realistic_durations: bool = False,
) -> List[RecoveryProcess]:
    """Build ``n`` copies of each action sequence, spaced in time.

    ``counts`` is ``[(action sequence, copies), ...]``.  Each process
    lands on its own machine so segmentation stays trivial.  With
    ``realistic_durations`` each attempt lasts its action's nominal
    duration (TRYNOP cheap, RMA days); otherwise every attempt lasts
    ``step`` (default 600 s).
    """
    processes = []
    index = 0
    for sequence, copies in counts:
        if realistic_durations:
            durations = [ACTION_DURATIONS[a] for a in sequence]
        else:
            durations = [step if step is not None else DEFAULT_STEP] * len(
                sequence
            )
        for _ in range(copies):
            processes.append(
                make_process(
                    sequence,
                    machine=f"{machine_prefix}-{index:04d}",
                    error_type=error_type,
                    start=index * gap,
                    durations=durations,
                )
            )
            index += 1
    return processes


def _canonical(obj: object) -> object:
    """A backend-neutral, order-stable image of a result structure.

    Floats become their exact hex spelling, numpy scalars plain Python
    values, dataclasses ``(class name, fields)`` and mappings sorted item
    lists, so two structures digest alike exactly when they are equal
    value for value.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            [
                _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            ],
        )
    if isinstance(obj, dict):
        return sorted(
            ((_canonical(k), _canonical(v)) for k, v in obj.items()),
            key=repr,
        )
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    return obj


def snapshot_digest(obj: object) -> str:
    """SHA-256 of :func:`_canonical`'s image of ``obj``.

    Frozen digests pin results that a deleted reference implementation
    once produced: equal digests mean bit-identical floats, counts,
    states and ordering of every list.
    """
    return hashlib.sha256(repr(_canonical(obj)).encode("utf-8")).hexdigest()


#: Q-table payload fields every loader must refuse, as
#: ``(where, field, value)``: ``where`` is ``"header"`` or ``"entry"``
#: (the first entry).  ``json.dumps`` writes NaN and infinities as the
#: non-standard ``NaN``/``Infinity`` tokens Python's parser accepts.
BAD_QTABLE_FIELDS = [
    pytest.param("entry", "visits", 10**30, id="visits-1e30"),
    pytest.param("entry", "visits", 2**63, id="visits-2^63"),
    pytest.param("entry", "visits", 3.9, id="visits-float"),
    pytest.param("entry", "visits", True, id="visits-bool"),
    pytest.param("entry", "visits", "7", id="visits-string"),
    pytest.param("entry", "value", float("nan"), id="value-nan"),
    pytest.param("entry", "value", float("inf"), id="value-infinity"),
    pytest.param("header", "initial_value", float("inf"), id="initial-inf"),
    pytest.param("header", "initial_value", float("nan"), id="initial-nan"),
    pytest.param("entry", "error_type", "", id="empty-error-type"),
]


#: Record fields of the wrong JSON type, as ``(field, value)``.  Every
#: loader of state, rule and Q-table entry records must refuse each one;
#: converting it with ``str`` would load a different state or action.
MISTYPED_RECORD_FIELDS = [
    pytest.param("tried", "TRYNOP", id="tried-string"),
    pytest.param("tried", ["TRYNOP", 3], id="number-in-tried"),
    pytest.param("error_type", 7, id="numeric-error-type"),
    pytest.param("action", None, id="null-action"),
    pytest.param("action", 3, id="numeric-action"),
]


def set_qtable_field(payload: dict, where: str, field: str, value) -> None:
    """Set one field of a Q-table payload in place (see above)."""
    target = payload if where == "header" else payload["entries"][0]
    target[field] = value


def binary_header(path: Path) -> dict:
    """The JSON header of an RPROPOLB container."""
    blob = Path(path).read_bytes()
    return json.loads(blob[20 : 20 + int.from_bytes(blob[12:20], "little")])


def write_binary_header(path: Path, header: object) -> None:
    """Rewrite a container's header in place, keeping its data section."""
    blob = Path(path).read_bytes()
    size = int.from_bytes(blob[12:20], "little")
    data = blob[-(-(20 + size) // 64) * 64 :]
    raw = json.dumps(header).encode("utf-8")
    prefix = blob[:12] + len(raw).to_bytes(8, "little") + raw
    Path(path).write_bytes(prefix + b"\x00" * (-len(prefix) % 64) + data)
