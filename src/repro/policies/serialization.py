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
from typing import Any, Dict, Iterable, List, Mapping, Union

from repro.errors import ConfigurationError, LogFormatError, TrainingError
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.binary import (
    load_policy_binary,
    save_policy_binary,
)
from repro.policies.trained import Rule, TrainedPolicy
from repro.records import (
    POLICY,
    POLICY_FORMAT,
    QTABLE,
    QTABLE_ENTRY,
    QTABLE_FORMAT,
    STATE,
    read_json,
)

__all__ = [
    "save_policy",
    "load_policy",
    "save_policy_binary",
    "load_policy_binary",
    "save_qtable",
    "load_qtable",
    "state_to_record",
    "state_from_record",
    "rule_records",
    "rules_from_records",
    "qtable_to_payload",
    "qtable_from_payload",
]

PathLike = Union[str, Path]


def state_to_record(state: RecoveryState) -> Dict[str, object]:
    """A (non-terminal) state as a JSON-serializable record."""
    return {
        "error_type": state.error_type,
        "tried": list(state.tried),
    }


def state_from_record(record: object) -> RecoveryState:
    """Invert :func:`state_to_record`; see :data:`~repro.records.STATE`.

    Values of the wrong JSON type are refused, not converted, so a
    malformed record never loads as a different state.  Raises
    :class:`LogFormatError`.
    """
    fields = STATE.read(record)
    return RecoveryState(fields["error_type"], tried=tuple(fields["tried"]))


def rule_records(rules: Mapping[RecoveryState, Rule]) -> List[Dict[str, object]]:
    """A rule table as the rule records policies and checkpoints hold."""
    records = []
    for state, (action, cost) in sorted(
        rules.items(), key=lambda item: (item[0].error_type, item[0].tried)
    ):
        record = state_to_record(state)
        record["action"] = action
        record["expected_cost"] = cost
        records.append(record)
    return records


def rules_from_records(
    records: Iterable[Mapping[str, Any]],
) -> Dict[RecoveryState, Rule]:
    """Invert :func:`rule_records` over checked
    :data:`~repro.records.RULE` records."""
    return {
        state_from_record(record): (record["action"], record["expected_cost"])
        for record in records
    }


def save_policy(policy: TrainedPolicy, path: PathLike) -> int:
    """Write a trained policy's rules as JSON; returns the rule count."""
    rules = rule_records(policy.rules)
    payload = {
        "format": POLICY_FORMAT,
        "label": policy.name,
        "rules": rules,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(rules)


def load_policy(path: PathLike) -> TrainedPolicy:
    """Read a trained policy saved by :func:`save_policy`.

    The rules are packed into a :class:`TrainedPolicy` as they are read:
    JSON is an interchange format only.  Every way a file can be
    malformed — not UTF-8 JSON, a document or rule record that
    :data:`~repro.records.POLICY` refuses, a rule the table refuses —
    raises :class:`LogFormatError` prefixed with its path.
    """
    payload = read_json(path)
    try:
        fields = POLICY.read(payload)
        return TrainedPolicy(
            rules_from_records(fields["rules"]),
            label=fields["label"],
        )
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
        "format": QTABLE_FORMAT,
        "actions": list(qtable.action_names),
        "initial_value": qtable.initial_value,
        "entries": entries,
    }


def qtable_from_payload(
    payload: object, *, alpha_floor: float = 0.0
) -> QTable:
    """Invert :func:`qtable_to_payload`.

    ``alpha_floor`` is a training-time knob, not part of the payload,
    and is supplied by the caller.  A payload that
    :data:`~repro.records.QTABLE` refuses, or whose header or entries
    the table refuses (repeated action names, an entry's action outside
    ``actions``), raises :class:`LogFormatError`.
    """
    fields = QTABLE.read(payload)
    try:
        qtable = QTable(
            fields["actions"],
            initial_value=fields["initial_value"],
            alpha_floor=alpha_floor,
        )
    except ConfigurationError as exc:
        raise QTABLE.error(payload, exc) from None
    for entry in fields["entries"]:
        try:
            qtable.restore(
                state_from_record(entry),
                entry["action"],
                entry["value"],
                entry["visits"],
            )
        except (ConfigurationError, TrainingError) as exc:
            raise QTABLE_ENTRY.error(entry, exc) from None
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
    payload = read_json(path)
    try:
        return qtable_from_payload(payload, alpha_floor=alpha_floor)
    except LogFormatError as exc:
        raise LogFormatError(f"{path}: {exc}") from None
