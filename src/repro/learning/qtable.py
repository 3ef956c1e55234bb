"""Tabular Q-function with visit-count learning rates (equation 6).

The table maps ``(RecoveryState, action name)`` to the expected remaining
recovery time when beginning with that action.  Updates follow

    Q_n(s, a) = (1 - a_n) Q_{n-1}(s, a) + a_n [c(s, a) + min_a' Q_{n-1}(s', a')]
    a_n = 1 / (1 + visits(s, a))

which makes ``Q_n`` exactly the running average of the sampled targets —
the contraction the paper cites for convergence with probability 1.

Q values and visit counts live in growable ``(n_states, n_actions)``
numpy arrays, with states interned to dense row ids by a
:class:`~repro.mdp.state.StateIndex`.  The training inner loop reads and
writes by id (:meth:`QTable.q_row`, :meth:`QTable.underexplored_by_id`,
:meth:`QTable.bootstrap_by_id`, :meth:`QTable.update_by_id`), skipping
per-step state hashing; rule extraction and persistence read by state.
The greedy policy is maintained incrementally, so the per-sweep
convergence check (:meth:`QTable.greedy_policy_changed`) touches only
the states whose argmin actually moved.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

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
        self._action_ids: Dict[str, int] = {
            name: i for i, name in enumerate(self._actions)
        }
        self._n_actions = len(self._actions)
        self._initial = float(initial_value)
        self._alpha_floor = alpha_floor
        self._index = StateIndex(self._actions)
        self._capacity = 0
        self._values = np.empty((0, self._n_actions), dtype=np.float64)
        self._visits = np.zeros((0, self._n_actions), dtype=np.int64)
        # Greedy policy, maintained inside update()/restore(): the
        # visited action of minimum Q per state (-1: none visited), a
        # snapshot of it at the last greedy_policy_changed() call, and
        # the set of states whose entry moved since then.  Plain lists:
        # these are read and written one scalar at a time on the hot
        # path, where list indexing beats numpy scalar boxing.
        self._greedy: List[int] = []
        self._greedy_mark: List[int] = []
        self._dirty: Set[int] = set()
        self._checked_once = False
        # States with at least one visited action, in first-visit order.
        self._known: Set[int] = set()
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
        """The state interner mapping states to array rows."""
        return self._index

    def __len__(self) -> int:
        """Number of states with at least one visited action."""
        return len(self._known_order)

    def states(self) -> Iterator[RecoveryState]:
        """States with at least one visited action, first-visit order."""
        return (self._index.state(sid) for sid in self._known_order)

    # ------------------------------------------------------------------
    # Array plumbing
    # ------------------------------------------------------------------
    def _ensure_capacity(self, sid: int) -> None:
        if sid < self._capacity:
            return
        new_cap = max(16, 2 * self._capacity, sid + 1)
        values = np.full(
            (new_cap, self._n_actions), self._initial, dtype=np.float64
        )
        values[: self._capacity] = self._values
        visits = np.zeros((new_cap, self._n_actions), dtype=np.int64)
        visits[: self._capacity] = self._visits
        grow = new_cap - self._capacity
        self._greedy.extend([-1] * grow)
        self._greedy_mark.extend([-1] * grow)
        self._values, self._visits = values, visits
        self._capacity = new_cap

    def _check_action(self, action_name: str) -> int:
        aid = self._action_ids.get(action_name)
        if aid is None:
            raise ConfigurationError(
                f"unknown action {action_name!r}; table has {self._actions}"
            )
        return aid

    def _refresh_greedy(self, sid: int) -> None:
        """Recompute the state's greedy entry after a write to its row.

        A tiny loop over the catalog (first minimum among visited
        actions, so ties break by catalog order) beats vectorized argmin
        at this width and keeps the dirty set exact.  ``tolist``
        converts the rows to Python scalars in one pass — the values
        are the same IEEE doubles, just cheaper to compare.
        """
        values = self._values[sid].tolist()
        visits = self._visits[sid].tolist()
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

    def _touch(self, sid: int) -> None:
        if sid not in self._known:
            self._known.add(sid)
            self._known_order.append(sid)

    # ------------------------------------------------------------------
    # State-keyed reads and writes (extraction, persistence)
    # ------------------------------------------------------------------
    def value(self, state: RecoveryState, action_name: str) -> float:
        """Current Q(s, a); the initial value when never visited."""
        aid = self._check_action(action_name)
        sid = self._index.lookup(state)
        if sid is None or sid not in self._known:
            return self._initial
        if self._visits[sid, aid] == 0:
            return self._initial
        return float(self._values[sid, aid])

    def visit_count(self, state: RecoveryState, action_name: str) -> int:
        """How many updates (s, a) has received."""
        aid = self._check_action(action_name)
        sid = self._index.lookup(state)
        if sid is None or sid not in self._known:
            return 0
        return int(self._visits[sid, aid])

    def greedy_action(
        self, state: RecoveryState
    ) -> Optional[Tuple[str, float]]:
        """The visited action of minimum Q, or ``None`` if none visited.

        Only *visited* actions participate: never-tried actions still
        carry the optimistic initial value and must not be exploited.
        Ties break by catalog order (the order of ``action_names``).
        """
        sid = self._index.lookup(state)
        if sid is None or sid not in self._known:
            return None
        aid = int(self._greedy[sid])
        if aid < 0:
            return None
        return self._actions[aid], float(self._values[sid, aid])

    def ranked_actions(
        self, state: RecoveryState
    ) -> Tuple[Tuple[str, float], ...]:
        """Visited actions ranked by ascending Q (ties by catalog order)."""
        sid = self._index.lookup(state)
        if sid is None or sid not in self._known:
            return ()
        values = self._values[sid]
        visits = self._visits[sid]
        ranked = [
            (self._actions[aid], float(values[aid]))
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

        Returns the absolute change in Q(s, a).
        """
        aid = self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot update a terminal state {state}")
        return self.update_by_id(self._index.intern(state), aid, target)

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
        aid = self._check_action(action_name)
        if state.is_terminal:
            raise TrainingError(f"cannot restore a terminal state {state}")
        if visits < 1:
            raise TrainingError(
                f"restored visits must be >= 1, got {visits}"
            )
        sid = self._index.intern(state)
        self._ensure_capacity(sid)
        self._values[sid, aid] = float(value)
        self._visits[sid, aid] = int(visits)
        self._touch(sid)
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
    # Id-keyed reads and writes (the training inner loop)
    # ------------------------------------------------------------------
    def q_row(self, sid: int) -> np.ndarray:
        """The state's Q row over all actions, in catalog order.

        Never-visited entries hold the initial value; the returned array
        is a live view — callers must not mutate it.
        """
        self._ensure_capacity(sid)
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
        self._ensure_capacity(sid)
        visits = self._visits[sid].tolist()
        best = -1
        best_count = min_visits
        for aid in range(self._n_actions):
            count = visits[aid]
            if count < best_count:
                best = aid
                best_count = count
        return best

    def bootstrap_by_id(self, sid: int) -> float:
        """Continuation value of the interned state ``sid``.

        The TD target's second term.  Terminal states contribute 0;
        unvisited states the initial value; otherwise the minimum over
        *visited* actions: with the optimistic 0 default, including
        never-tried actions would make continuations look free and bias
        upstream Q values low.
        """
        if self._index.is_terminal(sid):
            return 0.0
        if sid not in self._known:
            return self._initial
        values = self._values[sid].tolist()
        visits = self._visits[sid].tolist()
        best = self._initial
        found = False
        for aid in range(self._n_actions):
            if visits[aid] > 0:
                value = values[aid]
                if not found or value < best:
                    best = value
                    found = True
        return best

    def update_by_id(self, sid: int, aid: int, target: float) -> float:
        """Equation-(6) update addressed by interned ids.

        Returns the absolute change in Q(s, a), like ``update``.
        """
        if self._index.is_terminal(sid):
            raise TrainingError(
                f"cannot update a terminal state {self._index.state(sid)}"
            )
        self._ensure_capacity(sid)
        # ``item`` yields Python scalars, so the arithmetic below runs on
        # native IEEE-754 doubles without numpy's scalar-object overhead.
        visits = self._visits.item(sid, aid)
        old = self._values.item(sid, aid)
        alpha = 1.0 / (1.0 + visits)
        if alpha < self._alpha_floor:
            alpha = self._alpha_floor
        new = (1.0 - alpha) * old + alpha * target
        self._values[sid, aid] = new
        self._visits[sid, aid] = visits + 1
        if sid not in self._known:
            self._known.add(sid)
            self._known_order.append(sid)
        # Incremental greedy maintenance.  Only one entry moved, so the
        # first-minimum-over-visited argmin can shift in exactly three
        # ways: the state had no greedy yet (aid takes over); a
        # non-greedy entry dropped to or below the greedy value (aid
        # takes over iff strictly below, or ties with an earlier catalog
        # position); or the greedy entry itself *increased* — the one
        # case that needs a row rescan.
        greedy = self._greedy[sid]
        if greedy < 0:
            self._greedy[sid] = aid
            self._dirty.add(sid)
        elif greedy == aid:
            if new > old:
                self._refresh_greedy(sid)
        else:
            greedy_value = self._values.item(sid, greedy)
            if new < greedy_value or (new == greedy_value and aid < greedy):
                self._greedy[sid] = aid
                self._dirty.add(sid)
        return abs(new - old)
