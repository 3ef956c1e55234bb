"""The RL-trained recovery policy: one packed rule table.

A trained policy is a table of state-action *rules* extracted from a
learned Q-function (greedy extraction or the Section 5.3 selection tree).
Each rule carries the expected remaining recovery cost its Q value
predicted.  States absent from the table — the paper's "noisy" cases that
never appeared during training — raise
:class:`~repro.errors.UnhandledStateError`; the hybrid policy exists to
catch exactly that.

The table is held as :class:`RuleColumns`: sorted ``uint64`` state keys,
``uint32`` decided-action ids and ``float64`` expected costs, so a lookup
is a ``searchsorted`` against the key column.  The same class serves a
table built in memory, parsed from JSON
(:func:`~repro.policies.serialization.load_policy`) or memory-mapped from
a binary container (:func:`~repro.policies.binary.load_policy_binary`).

State keys pack ``(error_type, tried...)`` into one ``uint64`` via a
mixed-radix code: with ``B = len(history_actions) + 1`` and ``Lmax`` the
longest rule history, a state maps to ``(et_id * (Lmax + 1) + L) *
B**Lmax + horner(digits)`` where each history action contributes a
nonzero base-``B`` digit.  The code is injective (the high part fixes
the error type and history length, the low part the digits).  A table
whose key space would overflow 64 bits is refused when built; at the
paper's scale (4 actions, histories bounded by the N-cap) the bound is
astronomically far away.

Queries outside the vocabularies — an unseen error type, an action name
no rule history contains, or a history longer than ``Lmax`` — cannot
collide with any packed key and are reported as unhandled without a
lookup, which is exactly the semantics the hybrid fallback relies on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import (
    DecisionBatch,
    Policy,
    PolicyDecision,
    terminal_state_error,
)

__all__ = ["RuleColumns", "TrainedPolicy", "check_rules", "no_rule_error"]

Rule = Tuple[str, float]
"""``(action name, expected remaining cost)``."""

#: Key space ceiling: keys must fit uint64.
_KEY_LIMIT = 2**64


def check_rules(rules: Mapping[RecoveryState, Rule]) -> None:
    """Raise :class:`ConfigurationError` for a rule no table may hold.

    A rule may not be given for a terminal state, nor decide an empty
    action.
    """
    for state, (action, _cost) in rules.items():
        if state.is_terminal:
            raise ConfigurationError(f"rule given for terminal state {state}")
        if not action:
            raise ConfigurationError(f"empty action in rule for {state}")


def no_rule_error(state: RecoveryState) -> UnhandledStateError:
    """The miss a trained rule table reports for ``state``."""
    return UnhandledStateError(
        f"no trained rule for state {state}; the pattern did not "
        "appear in the training log",
        state=state,
    )


def _name_ids(field: str, names: Tuple[str, ...]) -> Dict[str, int]:
    """``{name: position}`` over a vocabulary, which may not repeat a name
    (a repeat would map to its last position only)."""
    ids = {name: i for i, name in enumerate(names)}
    if len(ids) != len(names):
        repeated = next(name for i, name in enumerate(names) if ids[name] != i)
        raise ConfigurationError(f"{field} repeats the name {repeated!r}")
    return ids


class RuleColumns(NamedTuple):
    """A packed rule table: its vocabularies and three aligned columns.

    Row ``i`` is the rule for the state with key ``keys[i]`` (keys
    strictly increase); ``actions[i]`` indexes ``decided_actions``.
    """

    error_types: Tuple[str, ...]
    history_actions: Tuple[str, ...]
    decided_actions: Tuple[str, ...]
    max_history: int
    keys: np.ndarray
    actions: np.ndarray
    costs: np.ndarray


class TrainedPolicy(Policy):
    """Greedy policy over extracted state-action rules.

    Parameters
    ----------
    rules:
        ``{state: (action, expected cost)}``.  Terminal states must not
        appear, and the table's key space must fit 64 bits.
    label:
        Report name; defaults to ``"trained"``.
    """

    def __init__(
        self,
        rules: Mapping[RecoveryState, Rule],
        label: str = "trained",
    ) -> None:
        check_rules(rules)
        self._set_vocabularies(
            sorted({state.error_type for state in rules}),
            sorted({name for state in rules for name in state.tried}),
            sorted({action for action, _cost in rules.values()}),
            max((state.attempt_count for state in rules), default=0),
        )
        action_ids = self._action_ids
        keys = np.array([self._encode(state) for state in rules], dtype=np.uint64)
        actions = np.array(
            [action_ids[action] for action, _cost in rules.values()],
            dtype=np.uint32,
        )
        costs = np.array([cost for _action, cost in rules.values()], dtype=np.float64)
        # Keys are distinct (the encoding is injective), so the sorted
        # order is unique.
        order = np.argsort(keys)
        self._set_columns(
            label, keys[order], actions[order], costs[order], source_path=None
        )

    @classmethod
    def from_columns(
        cls,
        columns: RuleColumns,
        *,
        label: str,
        source_path: Optional[Path] = None,
    ) -> "TrainedPolicy":
        """The table over already packed columns, reading none of them.

        Only the vocabularies are checked (the key space must fit 64
        bits); :meth:`check_columns` checks the rows.
        """
        policy = cls.__new__(cls)
        policy._set_vocabularies(*columns[:4])
        policy._set_columns(label, *columns[4:], source_path=source_path)
        return policy

    def _set_vocabularies(
        self,
        error_types: Sequence[str],
        history_actions: Sequence[str],
        decided_actions: Sequence[str],
        max_history: int,
    ) -> None:
        self._error_types = tuple(error_types)
        self._history_actions = tuple(history_actions)
        self._decided_actions = tuple(decided_actions)
        self._max_history = max_history
        self._base = len(self._history_actions) + 1
        # A state's key splits into an error-type part and a history
        # part: key = et_id * stride + history_code(tried), with
        # history_code = L * B**Lmax + horner(digits).  With B >= 2 a
        # 64-deep history alone overflows; checking that first keeps a
        # corrupt header's huge Lmax from building a huge integer.
        too_deep = self._base > 1 and max_history >= 64
        self._span = 1 if too_deep else self._base**max_history
        self._stride = (max_history + 1) * self._span
        if too_deep or max(len(self._error_types), 1) * self._stride > _KEY_LIMIT:
            raise ConfigurationError(
                f"policy key space overflows uint64 "
                f"({len(self._error_types)} error types x base {self._base} "
                f"x history {max_history})"
            )
        self._et_ids = _name_ids("error_types", self._error_types)
        self._digit_ids = _name_ids("history_actions", self._history_actions)
        self._action_ids = _name_ids("decided_actions", self._decided_actions)
        # Per error-type id the key offset, plus a trailing 0 for the
        # rows of states no rule can match.  With two or more error
        # types the key-space check bounds the stride by 2**63.
        self._type_offsets = np.zeros(len(self._error_types) + 1, dtype=np.uint64)
        if len(self._error_types) > 1:
            self._type_offsets[:-1] = np.arange(
                len(self._error_types), dtype=np.uint64
            ) * np.uint64(self._stride)

    def _set_columns(
        self,
        label: str,
        keys: np.ndarray,
        actions: np.ndarray,
        costs: np.ndarray,
        *,
        source_path: Optional[Path],
    ) -> None:
        # Plain read-only arrays: a memory map stays the views' base,
        # without the memmap subclass's per-call overhead.
        keys, actions, costs = (np.asarray(c) for c in (keys, actions, costs))
        for column in (keys, actions, costs):
            column.flags.writeable = False
        self._label = label
        self._keys = keys
        self._actions = actions
        self._costs = costs
        self._source_path = source_path

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._label

    @property
    def source_path(self) -> Optional[Path]:
        """The container file backing the columns, when file-backed."""
        return self._source_path

    @property
    def columns(self) -> RuleColumns:
        """The packed table (read-only arrays, in key order)."""
        return RuleColumns(
            self._error_types,
            self._history_actions,
            self._decided_actions,
            self._max_history,
            self._keys,
            self._actions,
            self._costs,
        )

    @property
    def rules(self) -> Dict[RecoveryState, Rule]:
        """The rule table decoded into a fresh dict, in key order."""
        actions = self._decided_actions
        return {
            self._decode(key): (actions[action], cost)
            for key, action, cost in zip(
                self._keys.tolist(), self._actions.tolist(), self._costs.tolist()
            )
        }

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    def error_types(self) -> Tuple[str, ...]:
        """Error types for which at least one rule exists."""
        return self._error_types

    def check_columns(self) -> None:
        """Check every row, reading every page of the columns.

        Keys must strictly increase and stay inside the error types' key
        space, and every action id must name a decided action; a table
        that breaks either raises :class:`ConfigurationError`.
        """
        keys, actions = self._keys, self._actions
        if not len(keys):
            return
        if not np.all(keys[1:] > keys[:-1]):
            raise ConfigurationError("rule keys do not strictly increase")
        if int(keys[-1]) >= len(self._error_types) * self._stride:
            raise ConfigurationError(
                f"rule key {int(keys[-1])} lies outside the key space of "
                f"{len(self._error_types)} error types"
            )
        worst = int(actions.max())
        if worst >= len(self._decided_actions):
            raise ConfigurationError(
                f"action id {worst} outside the "
                f"{len(self._decided_actions)} decided actions"
            )

    # ------------------------------------------------------------------
    def _history_code(self, tried: Tuple[str, ...]) -> int:
        """The history part of a key, or -1 when no rule can match it."""
        if len(tried) > self._max_history:
            return -1
        code = 0
        for name in tried:
            digit = self._digit_ids.get(name)
            if digit is None:
                return -1
            code = code * self._base + digit + 1
        return len(tried) * self._span + code

    def _encode(self, state: RecoveryState) -> Optional[int]:
        """``state``'s packed key, or ``None`` when definitionally absent."""
        et_id = self._et_ids.get(state.error_type)
        code = self._history_code(state.tried)
        if et_id is None or code < 0:
            return None
        return et_id * self._stride + code

    def _decode(self, key: int) -> RecoveryState:
        """The state packed into ``key`` (inverts :meth:`_encode`)."""
        high, code = divmod(key, self._span)
        et_id, length = divmod(high, self._max_history + 1)
        digits: List[str] = []
        for _ in range(length):
            code, digit = divmod(code, self._base)
            digits.append(self._history_actions[digit - 1])
        return RecoveryState(
            error_type=self._error_types[et_id],
            healthy=False,
            tried=tuple(reversed(digits)),
        )

    def _row_for(self, state: RecoveryState) -> int:
        """The rule row for ``state``, or -1 when unhandled."""
        key = self._encode(state)
        if key is None:
            return -1
        row = int(self._keys.searchsorted(np.uint64(key)))
        if row < len(self._keys) and int(self._keys[row]) == key:
            return row
        return -1

    def handles(self, state: RecoveryState) -> bool:
        """Whether a rule exists for ``state``."""
        return self._row_for(state) >= 0

    def expected_cost(self, state: RecoveryState) -> Optional[float]:
        """The rule's predicted remaining cost, if the state is handled."""
        row = self._row_for(state)
        return float(self._costs[row]) if row >= 0 else None

    def decide(self, state: RecoveryState) -> PolicyDecision:
        if state.is_terminal:
            raise terminal_state_error(state)
        row = self._row_for(state)
        if row < 0:
            raise no_rule_error(state)
        return PolicyDecision(
            action=self._decided_actions[int(self._actions[row])],
            source=self.name,
            expected_cost=float(self._costs[row]),
        )

    def decide_batch(self, states: Sequence[RecoveryState]) -> DecisionBatch:
        """One pass over the states, then one vectorized key search.

        The pass reads each state's error-type id and history code;
        numpy then adds the key parts, searches the sorted key column
        and gathers actions and costs.
        """
        type_ids = self._et_ids
        unknown = len(self._error_types)
        history_code = self._history_code
        types: List[int] = []
        codes: List[int] = []
        for state in states:
            if state.is_terminal:
                raise terminal_state_error(state)
            code = history_code(state.tried)
            if code < 0:
                types.append(unknown)
                codes.append(0)
            else:
                types.append(type_ids.get(state.error_type, unknown))
                codes.append(code)
        type_column = np.array(types, dtype=np.intp)
        keys = self._type_offsets[type_column] + np.array(codes, dtype=np.uint64)
        # Unknown rows miss without a lookup; on an empty table every
        # error type is unknown, so the gathers below never run.
        hit = type_column != unknown
        if hit.any():
            rows = self._keys.searchsorted(keys)
            np.minimum(rows, len(self._keys) - 1, out=rows)
            hit &= self._keys[rows] == keys
            action_ids = self._actions[rows].astype(np.intp)
            costs = self._costs[rows]
        else:
            action_ids = np.zeros(len(keys), dtype=np.intp)
            costs = np.zeros(len(keys), dtype=np.float64)
        return DecisionBatch(
            hit=hit,
            action_ids=action_ids,
            actions=self._decided_actions,
            costs=costs,
            estimated=hit,
            source_ids=np.zeros(len(keys), dtype=np.intp),
            sources=(self.name,),
            miss=lambda row: no_rule_error(states[row]),
        )

    def state_at(self, row: int) -> RecoveryState:
        """Decode the state of rule ``row`` (0-based, key order).

        Lets samplers (the query-storm load generator) draw known
        states without materializing the whole table.
        """
        if not 0 <= row < len(self._keys):
            raise ConfigurationError(
                f"rule row {row} out of range [0, {len(self._keys)})"
            )
        return self._decode(int(self._keys[row]))
