"""Persistence of trained policies and Q-tables.

A deployed recovery framework trains offline and ships the generated
rules to the online recovery component (Figure 1's dashed arrow), so the
rule tables must round-trip through storage.  Two formats exist:

* the JSON schema here — stable and human-auditable, so operators can
  review exactly which action the policy will take in which state
  before deploying it.  It is an interchange format only:
  :func:`load_policy` packs what it parses into the same
  :class:`~repro.policies.trained.TrainedPolicy` table;
* the zero-copy binary container in :mod:`repro.policies.binary`
  (re-exported below) — the table's own columns, which the decision
  server memory-maps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.errors import ConfigurationError, LogFormatError, TrainingError
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.binary import (
    load_policy_binary,
    save_policy_binary,
)
from repro.policies.trained import TrainedPolicy

__all__ = [
    "save_policy",
    "load_policy",
    "save_policy_binary",
    "load_policy_binary",
    "save_qtable",
    "load_qtable",
    "state_to_record",
    "state_from_record",
    "rule_from_record",
    "qtable_to_payload",
    "qtable_from_payload",
]

PathLike = Union[str, Path]

_POLICY_FORMAT = "repro/trained-policy@1"
_QTABLE_FORMAT = "repro/qtable@1"
#: Largest visit count a Q-table entry may carry (the int64 range).
_MAX_VISITS = 2**63 - 1


def state_to_record(state: RecoveryState) -> Dict[str, object]:
    """A (non-terminal) state as a JSON-serializable record."""
    return {
        "error_type": state.error_type,
        "tried": list(state.tried),
    }


def _text(record: Dict[str, object], field: str) -> str:
    """``record[field]``, which must be a JSON string."""
    value = record[field]
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, got {value!r}")
    return value


def _texts(record: Dict[str, object], field: str) -> List[str]:
    """``record[field]``, which must be a JSON list of strings."""
    value = record[field]
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise TypeError(f"{field} must be a list of strings, got {value!r}")
    return value


def state_from_record(record: Dict[str, object]) -> RecoveryState:
    """Invert :func:`state_to_record`.

    ``error_type`` must be a string and ``tried`` a list of strings:
    values of any other JSON type are refused, not converted, so a
    malformed record never loads as a different state.  Raises
    :class:`LogFormatError`.
    """
    try:
        return RecoveryState(
            error_type=_text(record, "error_type"),
            healthy=False,
            tried=tuple(_texts(record, "tried")),
        )
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise LogFormatError(f"bad state record {record!r}: {exc}") from None


def rule_from_record(
    record: Dict[str, object],
) -> Tuple[RecoveryState, Tuple[str, float]]:
    """A rule record of :func:`save_policy` as ``(state, (action, cost))``.

    The state as :func:`state_from_record` reads it; ``action`` must be
    a string.  Raises :class:`LogFormatError`.
    """
    state = state_from_record(record)
    try:
        return state, (
            _text(record, "action"),
            float(record["expected_cost"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise LogFormatError(f"bad rule record {record!r}: {exc}") from None


def save_policy(policy: TrainedPolicy, path: PathLike) -> int:
    """Write a trained policy's rules as JSON; returns the rule count."""
    rules = []
    for state, (action, cost) in sorted(
        policy.rules.items(),
        key=lambda item: (item[0].error_type, item[0].tried),
    ):
        record = state_to_record(state)
        record["action"] = action
        record["expected_cost"] = cost
        rules.append(record)
    payload = {
        "format": _POLICY_FORMAT,
        "label": policy.name,
        "rules": rules,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(rules)


def _read_json(path: PathLike) -> object:
    """The JSON document at ``path``; undecodable text is a format error."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise LogFormatError(f"{path}: bad JSON: {exc}") from None


def _policy_from_payload(payload: object) -> TrainedPolicy:
    """Pack a parsed policy document; raises without naming a path."""
    if not isinstance(payload, dict):
        raise LogFormatError(
            f"expected a policy object, got {type(payload).__name__}"
        )
    if payload.get("format") != _POLICY_FORMAT:
        raise LogFormatError(
            f"expected format {_POLICY_FORMAT!r}, "
            f"got {payload.get('format')!r}"
        )
    records = payload.get("rules", [])
    if not isinstance(records, list):
        raise LogFormatError(
            f"rules must be a list, got {type(records).__name__}"
        )
    rules: Dict[RecoveryState, Tuple[str, float]] = {}
    for record in records:
        state, rule = rule_from_record(record)
        rules[state] = rule
    return TrainedPolicy(rules, label=str(payload.get("label", "trained")))


def load_policy(path: PathLike) -> TrainedPolicy:
    """Read a trained policy saved by :func:`save_policy`.

    The rules are packed into a :class:`TrainedPolicy` as they are read:
    JSON is an interchange format only.  Every way a file can be
    malformed — not UTF-8 JSON, not an object, a bad format tag or rule
    record, a rule the table refuses — raises :class:`LogFormatError`
    prefixed with its path.
    """
    payload = _read_json(path)
    try:
        return _policy_from_payload(payload)
    except (LogFormatError, ConfigurationError) as exc:
        raise LogFormatError(f"{path}: {exc}") from None


def qtable_to_payload(qtable: QTable) -> Dict[str, object]:
    """A Q-table (values and visit counts) as a JSON-serializable payload.

    Persisting the visit counts preserves the equation-(6) learning-rate
    schedule, so a restored table can continue training where it left
    off.  Values round-trip exactly (``repr``-faithful floats), which the
    parallel engine's checkpoint/resume equivalence guarantee relies on.
    """
    entries = []
    for state in sorted(
        qtable.states(), key=lambda s: (s.error_type, s.tried)
    ):
        for action in qtable.action_names:
            visits = qtable.visit_count(state, action)
            if visits == 0:
                continue
            record = state_to_record(state)
            record["action"] = action
            record["value"] = qtable.value(state, action)
            record["visits"] = visits
            entries.append(record)
    return {
        "format": _QTABLE_FORMAT,
        "actions": list(qtable.action_names),
        "initial_value": qtable.initial_value,
        "entries": entries,
    }


def qtable_from_payload(
    payload: object, *, alpha_floor: float = 0.0
) -> QTable:
    """Invert :func:`qtable_to_payload`.

    ``alpha_floor`` is a training-time knob, not part of the payload,
    and is supplied by the caller.  Every way a payload can be malformed
    — not an object, a missing field, a non-finite ``initial_value``, a
    ``visits`` that is not a JSON integer in ``[1, 2**63 - 1]``, an
    action name or state field of the wrong JSON type (names are never
    converted to strings), an entry the table refuses (a non-finite
    value, an action outside ``actions``) — raises
    :class:`LogFormatError`.
    """
    if not isinstance(payload, dict):
        raise LogFormatError(
            f"expected a Q-table object, got {type(payload).__name__}"
        )
    if payload.get("format") != _QTABLE_FORMAT:
        raise LogFormatError(
            f"expected format {_QTABLE_FORMAT!r}, "
            f"got {payload.get('format')!r}"
        )
    entries = payload.get("entries", [])
    try:
        if not isinstance(entries, list):
            raise TypeError(f"entries must be a list, got {entries!r}")
        qtable = QTable(
            _texts(payload, "actions"),
            initial_value=float(payload.get("initial_value", 0.0)),
            alpha_floor=alpha_floor,
        )
    except (
        KeyError, TypeError, ValueError, OverflowError, ConfigurationError
    ) as exc:
        raise LogFormatError(f"bad Q-table header: {exc}") from None
    for record in entries:
        state = state_from_record(record)
        try:
            # ``restore`` refuses counts below 1.
            visits = record["visits"]
            if (
                isinstance(visits, bool)
                or not isinstance(visits, int)
                or visits > _MAX_VISITS
            ):
                raise ValueError(
                    f"visits must be a JSON integer <= {_MAX_VISITS}"
                )
            qtable.restore(
                state, _text(record, "action"), float(record["value"]), visits
            )
        except (
            KeyError,
            TypeError,
            ValueError,
            OverflowError,
            ConfigurationError,
            TrainingError,
        ) as exc:
            raise LogFormatError(
                f"bad entry record {record!r}: {exc}"
            ) from None
    return qtable


def save_qtable(qtable: QTable, path: PathLike) -> int:
    """Write a Q-table as JSON; see :func:`qtable_to_payload`.

    Returns the number of (state, action) pairs written.
    """
    payload = qtable_to_payload(qtable)
    entries = payload["entries"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(entries)


def load_qtable(path: PathLike, *, alpha_floor: float = 0.0) -> QTable:
    """Read a Q-table saved by :func:`save_qtable`.

    Values and visit counts are restored exactly; ``alpha_floor`` is a
    training-time knob supplied by the caller.  A malformed file raises
    :class:`LogFormatError` prefixed with its path.
    """
    payload = _read_json(path)
    try:
        return qtable_from_payload(payload, alpha_floor=alpha_floor)
    except LogFormatError as exc:
        raise LogFormatError(f"{path}: {exc}") from None
