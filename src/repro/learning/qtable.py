"""Tabular Q-function with visit-count learning rates (equation 6).

The table maps ``(RecoveryState, action name)`` to the expected remaining
recovery time when beginning with that action.  Updates follow

    Q_n(s, a) = (1 - a_n) Q_{n-1}(s, a) + a_n [c(s, a) + min_a' Q_{n-1}(s', a')]
    a_n = 1 / (1 + visits(s, a))

which makes ``Q_n`` exactly the running average of the sampled targets —
the contraction the paper cites for convergence with probability 1.

States are interned to dense row ids by a
:class:`~repro.mdp.state.StateIndex`, and each state owns one Python
``list`` of Q values and one of visit counts: catalogs are a handful of
actions wide, so the training loop reads and writes native floats by
list indexing, with no numpy scalar boxing.  The loop reads by id
(:meth:`QTable.q_row`, :meth:`QTable.underexplored_by_id`) and writes a
whole episode at a time (:meth:`QTable.apply_episode`, the one place
equation (6) is written); rule extraction and persistence read by
state.  The greedy policy is maintained incrementally, so the per-sweep
convergence check (:meth:`QTable.greedy_policy_changed`) touches only
the states whose argmin actually moved.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, TrainingError
from repro.mdp.state import RecoveryState, StateIndex

__all__ = ["QTable"]


class QTable:
    """A tabular Q-function over interned recovery states.

    Parameters
    ----------
    action_names:
        The actions available in every (non-terminal) state; action ids
        are positions in this sequence.
    initial_value:
        Q value reported for never-visited pairs; must be finite.  The
        default of 0 is optimistic for cost minimization, which drives
        exploration toward untried actions.
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
        initial = float(initial_value)
        if not math.isfinite(initial):
            raise ConfigurationError(
                f"initial_value must be finite, got {initial_value}"
            )
        self._actions: Tuple[str, ...] = tuple(action_names)
        self._action_ids: Dict[str, int] = {
            name: i for i, name in enumerate(self._actions)
        }
        self._n_actions = len(self._actions)
        self._initial = initial
        self._alpha_floor = alpha_floor
        self._index = StateIndex(self._actions)
        # Per interned state id (rows added by _grow): Q values and
        # visit counts by action id, the greedy entry (the first visited
        # action of minimum Q; -1: none visited), its snapshot at the
        # last greedy_policy_changed() call, and the states whose entry
        # moved since then.
        self._values: List[List[float]] = []
        self._visits: List[List[int]] = []
        self._greedy: List[int] = []
        self._greedy_mark: List[int] = []
        self._dirty: Set[int] = set()
        self._checked_once = False
        # States with at least one visited action, in first-visit order.
        self._known_order: List[int] = []

    # ------------------------------------------------------------------
    @property
    def action_names(self) -> Tuple[str, ...]:
        return self._actions

    @property
    def initial_value(self) -> float:
        return self._initial

    @property
    def index(self) -> StateIndex:
        """The state interner mapping states to row ids."""
        return self._index

    def __len__(self) -> int:
        """Number of states with at least one visited action."""
        return len(self._known_order)

    def states(self) -> Iterator[RecoveryState]:
        """States with at least one visited action, first-visit order."""
        return (self._index.state(sid) for sid in self._known_order)

    # ------------------------------------------------------------------
    # Row plumbing
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        """Give every state interned since the last call its rows."""
        n = self._n_actions
        for _ in range(len(self._values), len(self._index)):
            self._values.append([self._initial] * n)
            self._visits.append([0] * n)
            self._greedy.append(-1)
            self._greedy_mark.append(-1)

    def _check_action(self, action_name: str) -> int:
        aid = self._action_ids.get(action_name)
        if aid is None:
            raise ConfigurationError(
                f"unknown action {action_name!r}; table has {self._actions}"
            )
        return aid

    def _known_sid(self, state: RecoveryState) -> Optional[int]:
        """The state's id if it has a visited action, else ``None``."""
        sid = self._index.lookup(state)
        if sid is None or sid >= len(self._greedy) or self._greedy[sid] < 0:
            return None
        return sid

    def _refresh_greedy(self, sid: int) -> None:
        """Recompute the state's greedy entry after a write to its row.

        A tiny loop over the catalog (first minimum among visited
        actions, so ties break by catalog order) keeps the dirty set
        exact.
        """
        values = self._values[sid]
        visits = self._visits[sid]
        best = -1
        best_value = 0.0
        for aid in range(self._n_actions):
            if visits[aid] > 0:
                value = values[aid]
                if best < 0 or value < best_value:
                    best = aid
                    best_value = value
        if best != self._greedy[sid]:
            self._greedy[sid] = best
            self._dirty.add(sid)

    # ------------------------------------------------------------------
    # State-keyed reads and writes (extraction, persistence)
    # ------------------------------------------------------------------
    def value(self, state: RecoveryState, action_name: str) -> float:
        """Current Q(s, a); the initial value when never visited."""
        aid = self._check_action(action_name)
        sid = self._known_sid(state)
        if sid is None:
            return self._initial
        return self._values[sid][aid]

    def visit_count(self, state: RecoveryState, action_name: str) -> int:
        """How many updates (s, a) has received."""
        aid = self._check_action(action_name)
        sid = self._known_sid(state)
        if sid is None:
            return 0
        return self._visits[sid][aid]

    def greedy_action(
        self, state: RecoveryState
    ) -> Optional[Tuple[str, float]]:
        """The visited action of minimum Q, or ``None`` if none visited.

        Only *visited* actions participate: never-tried actions still
        carry the optimistic initial value and must not be exploited.
        Ties break by catalog order (the order of ``action_names``).
        """
        sid = self._known_sid(state)
        if sid is None:
            return None
        aid = self._greedy[sid]
        return self._actions[aid], self._values[sid][aid]

    def ranked_actions(
        self, state: RecoveryState
    ) -> Tuple[Tuple[str, float], ...]:
        """Visited actions ranked by ascending Q (ties by catalog order)."""
        sid = self._known_sid(state)
        if sid is None:
            return ()
        values = self._values[sid]
        visits = self._visits[sid]
        ranked = [
            (self._actions[aid], values[aid])
            for aid in range(self._n_actions)
            if visits[aid] > 0
        ]
        ranked.sort(key=lambda pair: pair[1])
        return tuple(ranked)

    def update(
        self,
        state: RecoveryState,
        action_name: str,
        target: float,
    ) -> float:
        """Apply one equation-(6) update toward ``target``.

        A one-step :meth:`apply_episode` whose cost is the whole target.
        Returns the absolute change in Q(s, a).
        """
        aid = self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot update a terminal state {state}")
        return self.apply_episode(
            (self._index.intern(state),), (aid,), (target,), None
        )

    def restore(
        self,
        state: RecoveryState,
        action_name: str,
        value: float,
        visits: int,
    ) -> None:
        """Set a (state, action) entry directly, bypassing equation (6).

        Used by deserialization to reinstate a persisted table; the
        value must be finite and the visit count positive, so the
        greedy policy and the learning-rate schedule resume correctly.
        """
        aid = self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot restore a terminal state {state}")
        value = float(value)
        if not math.isfinite(value):
            raise TrainingError(f"restored value must be finite, got {value}")
        if visits < 1:
            raise TrainingError(
                f"restored visits must be >= 1, got {visits}"
            )
        sid = self._index.intern(state)
        self._grow()
        self._values[sid][aid] = value
        self._visits[sid][aid] = int(visits)
        if self._greedy[sid] < 0:
            self._known_order.append(sid)
        self._refresh_greedy(sid)

    def greedy_policy_changed(self) -> bool:
        """Whether the greedy policy differs from the previous call.

        The greedy policy is the map ``{visited state: argmin-Q visited
        action}``; the convergence criterion counts consecutive sweeps
        during which it is unchanged.  Only states written since the
        last call are compared against their snapshot, so a net no-op
        sweep (an argmin that flipped and flipped back) correctly
        reports "unchanged".  The first call always reports a change
        (there is no previous policy to match).
        """
        changed = False
        for sid in self._dirty:
            if self._greedy[sid] != self._greedy_mark[sid]:
                self._greedy_mark[sid] = self._greedy[sid]
                changed = True
        self._dirty.clear()
        if not self._checked_once:
            self._checked_once = True
            return True
        return changed

    # ------------------------------------------------------------------
    # Id-keyed reads and the episode write (the training inner loop)
    # ------------------------------------------------------------------
    def q_row(self, sid: int) -> Sequence[float]:
        """The state's Q row over all actions, in catalog order.

        Never-visited entries hold the initial value; the returned list
        is the live row — callers must not mutate it.
        """
        if sid >= len(self._values):
            self._grow()
        return self._values[sid]

    def underexplored_by_id(self, sid: int, min_visits: int) -> int:
        """Id of the least-visited action below ``min_visits``, or -1.

        Used for forced exploration: a single unlucky sample can park an
        action's Q estimate far above the pack, where cost-scale
        Boltzmann selection would effectively never revisit it; insisting
        on a minimum visit count per (state, action) removes that
        failure mode.  Ties break by catalog order.
        """
        if min_visits <= 0:
            return -1
        if sid >= len(self._visits):
            self._grow()
        best = -1
        best_count = min_visits
        for aid, count in enumerate(self._visits[sid]):
            if count < best_count:
                best = aid
                best_count = count
        return best

    def bootstrap_by_id(self, sid: int) -> float:
        """Continuation value of the interned state ``sid``.

        The TD target's second term.  Terminal states contribute 0;
        unvisited states the initial value; otherwise the minimum over
        *visited* actions — the greedy entry's value: with the
        optimistic 0 default, including never-tried actions would make
        continuations look free and bias upstream Q values low.
        """
        if self._index.is_terminal(sid):
            return 0.0
        if sid >= len(self._greedy) or self._greedy[sid] < 0:
            return self._initial
        return self._values[sid][self._greedy[sid]]

    def apply_episode(
        self,
        sids: Sequence[int],
        aids: Sequence[int],
        costs: Sequence[float],
        tail: Optional[int],
    ) -> float:
        """Apply one episode's equation-(6) updates, deepest step first.

        Step ``i`` took action ``aids[i]`` in state ``sids[i]`` at cost
        ``costs[i]`` and led to ``sids[i + 1]``; the last step led to
        ``tail``.  Each target is the step's cost plus its successor's
        :meth:`bootstrap_by_id` value — or the cost alone for the last
        step when ``tail`` is ``None`` (:meth:`update`).  Reverse order
        means every bootstrap reads a successor value that the same
        episode just refreshed, which propagates terminal costs up the
        chain within a single episode.  Returns the largest absolute Q
        change the episode caused.
        """
        i = len(sids) - 1
        if i < 0:
            return 0.0
        values = self._values
        if len(values) < len(self._index):
            self._grow()
        visits = self._visits
        greedy = self._greedy
        dirty = self._dirty
        is_terminal = self._index.is_terminal
        alpha_floor = self._alpha_floor
        target = costs[i]
        if tail is not None:
            target += self.bootstrap_by_id(tail)
        max_delta = 0.0
        while True:
            sid = sids[i]
            aid = aids[i]
            if is_terminal(sid):
                raise TrainingError(
                    f"cannot update a terminal state {self._index.state(sid)}"
                )
            row = values[sid]
            counts = visits[sid]
            count = counts[aid]
            old = row[aid]
            alpha = 1.0 / (1.0 + count)
            if alpha < alpha_floor:
                alpha = alpha_floor
            new = (1.0 - alpha) * old + alpha * target
            row[aid] = new
            counts[aid] = count + 1
            # Incremental greedy maintenance.  Only one entry moved, so
            # the first-minimum-over-visited argmin can shift in exactly
            # three ways: the state had no greedy yet (its first visit:
            # aid takes over); a non-greedy entry dropped to or below
            # the greedy value (aid takes over iff strictly below, or
            # ties with an earlier catalog position); or the greedy
            # entry itself *increased* — the one case that needs a row
            # rescan.
            best = greedy[sid]
            if best < 0:
                greedy[sid] = aid
                dirty.add(sid)
                self._known_order.append(sid)
            elif best == aid:
                if new > old:
                    self._refresh_greedy(sid)
            elif new < row[best] or (new == row[best] and aid < best):
                greedy[sid] = aid
                dirty.add(sid)
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
            if i == 0:
                return max_delta
            i -= 1
            # The next step's successor is ``sid``, visited just now:
            # its bootstrap value is its greedy entry.
            target = costs[i] + row[greedy[sid]]
