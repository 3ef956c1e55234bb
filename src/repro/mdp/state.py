"""Recovery states.

Section 3.2: a state is a tuple ``(e, r, a_0, a_1, ..., a_{t-1})`` where
``e`` is the error type, ``r`` is the recovery result so far (failure or
health) and the ``a_i`` are the repair actions already executed.  Before
the final, curing action the result is always failure; after it the state
is healthy and terminal.  Tracking the full action history keeps the
process Markov.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Counter as CounterType,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError

__all__ = ["RecoveryState", "StateIndex"]


@dataclass(frozen=True)
class RecoveryState:
    """One MDP state of a recovery process.

    Attributes
    ----------
    error_type:
        The induced error type (the process's initial symptom).
    healthy:
        The recovery result ``r``: False while the error persists,
        True once recovery succeeded (terminal).
    tried:
        Names of the repair actions executed so far, in order.
    """

    error_type: str
    healthy: bool = False
    tried: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.error_type:
            raise ConfigurationError("error_type must be non-empty")
        if self.healthy and not self.tried:
            raise ConfigurationError(
                "a healthy state implies at least one executed action"
            )

    @classmethod
    def initial(cls, error_type: str) -> "RecoveryState":
        """The starting state ``(e, f)`` right after an error is detected."""
        return cls(error_type=error_type, healthy=False, tried=())

    @property
    def is_terminal(self) -> bool:
        """Healthy states are terminal: no further action is selected."""
        return self.healthy

    @property
    def attempt_count(self) -> int:
        """How many repair actions have been executed."""
        return len(self.tried)

    @property
    def last_action(self) -> str:
        """The most recently executed action name.

        Raises :class:`ConfigurationError` when no action has run yet.
        """
        if not self.tried:
            raise ConfigurationError("no action has been executed yet")
        return self.tried[-1]

    def tried_counts(self) -> CounterType[str]:
        """Multiset of executed action names."""
        return Counter(self.tried)

    def after(self, action_name: str, healthy: bool) -> "RecoveryState":
        """The successor state after executing ``action_name``.

        Per equation (4), the successor is one of exactly two states: the
        failure continuation ``(e, f, ..., a)`` or the terminal healthy
        state ``(e, h, ..., a)``.
        """
        if self.healthy:
            raise ConfigurationError(
                "cannot execute an action in a terminal (healthy) state"
            )
        if not action_name:
            raise ConfigurationError("action_name must be non-empty")
        return RecoveryState(
            error_type=self.error_type,
            healthy=healthy,
            tried=self.tried + (action_name,),
        )

    def key(self) -> Tuple[str, bool, Tuple[str, ...]]:
        """A hashable key; equals the dataclass identity, provided for
        symmetry with serialized representations."""
        return (self.error_type, self.healthy, self.tried)

    def __str__(self) -> str:
        result = "h" if self.healthy else "f"
        history = ",".join(self.tried) if self.tried else "-"
        return f"({self.error_type}, {result}, [{history}])"


class StateIndex:
    """Interns :class:`RecoveryState` objects to dense integer ids.

    States are only ever created through :meth:`RecoveryState.initial`
    and :meth:`RecoveryState.after`, which makes interning a natural
    choke point: one index per training course assigns consecutive ids
    in first-seen order, and memoizes the successor relation so that the
    hot training loop can walk ``(state id, action id, outcome) ->
    successor id`` with two list indexings — no dataclass construction,
    hashing or validation after the first visit.

    Parameters
    ----------
    action_names:
        The action catalog, in catalog order; action *ids* are positions
        in this sequence.
    """

    def __init__(self, action_names: Sequence[str]) -> None:
        if not action_names:
            raise ConfigurationError("action_names must be non-empty")
        self._actions: Tuple[str, ...] = tuple(action_names)
        self._ids: Dict[RecoveryState, int] = {}
        self._states: List[RecoveryState] = []
        self._terminal: List[bool] = []
        self._attempts: List[int] = []
        # Per state id: successor ids for (action id, healthy) pairs,
        # laid out as [a0_fail, a0_healthy, a1_fail, a1_healthy, ...];
        # -1 marks a successor not yet materialized.
        self._successors: List[List[int]] = []

    @property
    def action_names(self) -> Tuple[str, ...]:
        return self._actions

    def __len__(self) -> int:
        """Number of interned states."""
        return len(self._states)

    def lookup(self, state: RecoveryState) -> Optional[int]:
        """The state's id if already interned, else ``None``.

        Read-only counterpart of :meth:`intern` for query paths that
        must not grow the index.
        """
        return self._ids.get(state)

    def intern(self, state: RecoveryState) -> int:
        """The state's dense id, assigning the next free one if new."""
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
            self._terminal.append(state.is_terminal)
            self._attempts.append(state.attempt_count)
            self._successors.append([-1] * (2 * len(self._actions)))
        return sid

    def state(self, sid: int) -> RecoveryState:
        """The interned state with id ``sid``."""
        return self._states[sid]

    def states(self, sids: Iterable[int]) -> List[RecoveryState]:
        """The interned states with ids ``sids``, in order (built in C)."""
        return list(map(self._states.__getitem__, sids))

    def is_terminal(self, sid: int) -> bool:
        return self._terminal[sid]

    def attempt_count(self, sid: int) -> int:
        return self._attempts[sid]

    def successor(self, sid: int, action_id: int, healthy: bool) -> int:
        """Id of ``state(sid).after(actions[action_id], healthy)``.

        Memoized: the successor state object is built (and interned) on
        first traversal only; afterwards this is a pure integer lookup.
        """
        slot = 2 * action_id + (1 if healthy else 0)
        row = self._successors[sid]
        nxt = row[slot]
        if nxt < 0:
            nxt = self.intern(
                self._states[sid].after(self._actions[action_id], healthy)
            )
            row[slot] = nxt
        return nxt
