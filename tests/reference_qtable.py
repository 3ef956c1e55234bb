"""The dict-of-dict Q table, kept as a test-only reference.

This is the reference implementation the library's dense
:class:`~repro.learning.qtable.QTable` was checked against while both
shipped, kept verbatim apart from its name and one docstring
cross-reference.  The hypothesis property test in
``test_backend_equivalence.py`` drives both through random operation
sequences and compares every observable, and
``test_session_equivalence.py`` trains on it with the frozen
pre-refactor episode loop.  It keeps the state-keyed reads
(``values_for``, ``underexplored_action``, ``bootstrap_value``,
``min_value``, ``total_visits``, ``known``) that the library table
answers by interned id instead.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TrainingError
from repro.mdp.state import RecoveryState

__all__ = ["ReferenceQTable"]


class ReferenceQTable:
    """A tabular Q-function over recovery states.

    Parameters
    ----------
    action_names:
        The actions available in every (non-terminal) state.
    initial_value:
        Q value reported for never-visited pairs.  The default of 0 is
        optimistic for cost minimization, which drives exploration toward
        untried actions.
    alpha_floor:
        Lower bound on the learning rate.  The paper's pure
        ``1/(1+visits)`` schedule (``alpha_floor=0``) weights every
        historical target equally, so targets computed from early, badly
        bootstrapped successor values fade only as ``1/n``; a small floor
        turns the tail into an exponential window, letting estimates
        heal within realistic sweep budgets.  Set to 0 for exact
        equation-(6) behaviour.
    """

    def __init__(
        self,
        action_names: Sequence[str],
        initial_value: float = 0.0,
        alpha_floor: float = 0.0,
    ) -> None:
        if not action_names:
            raise ConfigurationError("action_names must be non-empty")
        if len(set(action_names)) != len(action_names):
            raise ConfigurationError("action_names must be distinct")
        if not 0.0 <= alpha_floor <= 1.0:
            raise ConfigurationError(
                f"alpha_floor must be in [0, 1], got {alpha_floor}"
            )
        self._actions: Tuple[str, ...] = tuple(action_names)
        self._initial = initial_value
        self._alpha_floor = alpha_floor
        self._values: Dict[RecoveryState, Dict[str, float]] = {}
        self._visits: Dict[RecoveryState, Dict[str, int]] = {}
        self._last_signature: Optional[
            Tuple[Tuple[RecoveryState, str], ...]
        ] = None

    # ------------------------------------------------------------------
    @property
    def action_names(self) -> Tuple[str, ...]:
        return self._actions

    @property
    def initial_value(self) -> float:
        return self._initial

    def __len__(self) -> int:
        """Number of states with at least one visited action."""
        return len(self._values)

    def states(self) -> Iterator[RecoveryState]:
        """States with at least one visited action."""
        return iter(self._values)

    def known(self, state: RecoveryState) -> bool:
        """Whether any action was ever visited in ``state``."""
        return state in self._values

    def value(self, state: RecoveryState, action_name: str) -> float:
        """Current Q(s, a); the initial value when never visited."""
        self._check_action(action_name)
        return self._values.get(state, {}).get(action_name, self._initial)

    def values_for(self, state: RecoveryState) -> Dict[str, float]:
        """``{action: Q(s, action)}`` over all actions."""
        row = self._values.get(state, {})
        return {a: row.get(a, self._initial) for a in self._actions}

    def visit_count(self, state: RecoveryState, action_name: str) -> int:
        """How many updates (s, a) has received."""
        self._check_action(action_name)
        return self._visits.get(state, {}).get(action_name, 0)

    def total_visits(self, state: RecoveryState) -> int:
        """Updates summed over all actions of ``state``."""
        return sum(self._visits.get(state, {}).values())

    def min_value(self, state: RecoveryState) -> float:
        """``min_a Q(s, a)`` over all actions (used for bootstrapping).

        A terminal (healthy) state has remaining cost 0 by definition.
        """
        if state.is_terminal:
            return 0.0
        row = self._values.get(state)
        if not row:
            return self._initial
        return min(
            (row.get(a, self._initial) for a in self._actions),
        )

    def underexplored_action(
        self, state: RecoveryState, min_visits: int
    ) -> Optional[str]:
        """The least-visited action still below ``min_visits``, if any.

        Used for forced exploration: a single unlucky sample can park an
        action's Q estimate far above the pack, where cost-scale
        Boltzmann selection would effectively never revisit it; insisting
        on a minimum visit count per (state, action) removes that
        failure mode.  Ties break by catalog order.
        """
        if min_visits <= 0:
            return None
        visits = self._visits.get(state, {})
        candidate: Optional[Tuple[int, int]] = None  # (count, index)
        for index, action in enumerate(self._actions):
            count = visits.get(action, 0)
            if count < min_visits and (
                candidate is None or count < candidate[0]
            ):
                candidate = (count, index)
        if candidate is None:
            return None
        return self._actions[candidate[1]]

    def bootstrap_value(self, state: RecoveryState) -> float:
        """Continuation value used as the TD target's second term.

        Terminal states contribute 0.  For non-terminal states the
        minimum is taken over *visited* actions when any exist: with the
        optimistic 0 default, including never-tried actions would make
        continuations look free and bias upstream Q values low.  During
        an episode's reverse-order updates the successor state has always
        just been visited, so the visited minimum is well defined.
        """
        if state.is_terminal:
            return 0.0
        visits = self._visits.get(state)
        if not visits:
            return self._initial
        row = self._values[state]
        return min(row[a] for a, n in visits.items() if n > 0)

    def greedy_action(
        self, state: RecoveryState
    ) -> Optional[Tuple[str, float]]:
        """The visited action of minimum Q, or ``None`` if none visited.

        Only *visited* actions participate: never-tried actions still
        carry the optimistic initial value and must not be exploited.
        Ties break by catalog order (the order of ``action_names``).
        """
        visits = self._visits.get(state)
        if not visits:
            return None
        row = self._values[state]
        best: Optional[Tuple[str, float]] = None
        for action in self._actions:
            if visits.get(action, 0) == 0:
                continue
            value = row[action]
            if best is None or value < best[1]:
                best = (action, value)
        return best

    def ranked_actions(
        self, state: RecoveryState
    ) -> Tuple[Tuple[str, float], ...]:
        """Visited actions ranked by ascending Q (ties by catalog order)."""
        visits = self._visits.get(state)
        if not visits:
            return ()
        row = self._values[state]
        ranked = [
            (action, row[action])
            for action in self._actions
            if visits.get(action, 0) > 0
        ]
        ranked.sort(key=lambda pair: pair[1])
        return tuple(ranked)

    def greedy_policy_changed(self) -> bool:
        """Whether the greedy policy differs from the previous call.

        The greedy policy is the map ``{visited state: argmin-Q visited
        action}``; the convergence criterion counts consecutive sweeps
        during which it is unchanged.  The first call always reports a
        change (there is no previous policy to match).  This reference
        rescans and sorts every visited state — the library table
        (:class:`~repro.learning.qtable.QTable`) tracks the same answer
        incrementally inside ``update``.
        """
        signature = []
        for state in self._values:
            greedy = self.greedy_action(state)
            if greedy is not None:
                signature.append((state, greedy[0]))
        signature.sort(key=lambda pair: (pair[0].tried, pair[0].error_type))
        current = tuple(signature)
        changed = current != self._last_signature
        self._last_signature = current
        return changed

    # ------------------------------------------------------------------
    def update(
        self,
        state: RecoveryState,
        action_name: str,
        target: float,
    ) -> float:
        """Apply one equation-(6) update toward ``target``.

        Returns the absolute change in Q(s, a).
        """
        self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(
                f"cannot update a terminal state {state}"
            )
        row = self._values.setdefault(state, {})
        visit_row = self._visits.setdefault(state, {})
        visits = visit_row.get(action_name, 0)
        old = row.get(action_name, self._initial)
        alpha = max(self._alpha_floor, 1.0 / (1.0 + visits))
        new = (1.0 - alpha) * old + alpha * target
        row[action_name] = new
        visit_row[action_name] = visits + 1
        return abs(new - old)

    def restore(
        self,
        state: RecoveryState,
        action_name: str,
        value: float,
        visits: int,
    ) -> None:
        """Set a (state, action) entry directly, bypassing equation (6).

        Used by deserialization to reinstate a persisted table; the
        visit count must be positive so the learning-rate schedule
        resumes correctly.
        """
        self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot restore a terminal state {state}")
        if visits < 1:
            raise TrainingError(
                f"restored visits must be >= 1, got {visits}"
            )
        self._values.setdefault(state, {})[action_name] = float(value)
        self._visits.setdefault(state, {})[action_name] = int(visits)

    def _check_action(self, action_name: str) -> None:
        if action_name not in self._actions:
            raise ConfigurationError(
                f"unknown action {action_name!r}; table has {self._actions}"
            )
