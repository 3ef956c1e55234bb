"""The policy interface.

A policy maps a :class:`~repro.mdp.state.RecoveryState` to the name of the
next repair action.  Policies are *stateless*: everything they need is in
the state (error type plus action history), which is what makes the
recovery process Markov.

:meth:`Policy.decide` answers one state; :meth:`Policy.decide_batch`
answers many at once as a :class:`DecisionBatch` — columns, not one
object per row, so that layers which only route or count decisions (the
hybrid rule, the decision server, the fleet engine) never build them.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError, UnhandledStateError
from repro.mdp.state import RecoveryState

__all__ = [
    "ColumnRows",
    "DecisionBatch",
    "Outcome",
    "Policy",
    "PolicyDecision",
    "terminal_state_error",
]


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's choice plus provenance, for auditing and the hybrid rule.

    Attributes
    ----------
    action:
        The chosen repair-action name.
    source:
        Which policy component produced the decision (e.g. ``"trained"``
        or ``"user-defined"`` inside a hybrid policy).
    expected_cost:
        The policy's own estimate of remaining cost, when it has one.
    """

    action: str
    source: str
    expected_cost: Optional[float] = None


Outcome = Union[PolicyDecision, UnhandledStateError]
"""One row of a batch answer: a decision, or the error ``decide`` raises."""

Row = TypeVar("Row")


def terminal_state_error(state: RecoveryState) -> ConfigurationError:
    """The error every policy raises when asked to act in ``state``."""
    return ConfigurationError(
        f"cannot decide an action in terminal state {state}"
    )


def _interner(vocabulary: Sequence[str]) -> Tuple[List[str], Callable[[str], int]]:
    """A growable copy of ``vocabulary`` and a name -> position function.

    Existing positions never move, so ids already pointing into
    ``vocabulary`` stay valid; a new name is appended once.
    """
    names = list(vocabulary)
    ids: Dict[str, int] = {}
    for position, name in enumerate(names):
        ids.setdefault(name, position)

    def intern(name: str) -> int:
        position = ids.get(name)
        if position is None:
            position = ids[name] = len(names)
            names.append(name)
        return position

    return names, intern


class ColumnRows(Sequence[Row]):
    """A read-only sequence of rows held as columns, built on read.

    Subclasses supply ``__len__``, ``__iter__`` and ``_row`` (row ``i``
    for ``0 <= i < len``); indexing, slicing, equality with another
    batch of the same type or a list of rows, and ``repr`` come from
    here.
    """

    __slots__ = ()

    @abc.abstractmethod
    def _row(self, row: int) -> Row:
        """Materialize row ``row`` (already bounds-checked)."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(row) for row in range(*index.indices(len(self)))]
        row = operator.index(index)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._row(row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (type(self), list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class DecisionBatch(ColumnRows[Outcome]):
    """A policy's answers to a batch of states, held as columns.

    Row ``i`` answers the ``i``-th state.  The columns, one entry per
    row (read-only numpy arrays):

    ``hit`` (bool)
        The policy decided.  A False row is a *miss*: a state per-state
        :meth:`Policy.decide` raises
        :class:`~repro.errors.UnhandledStateError` for.
    ``action_ids`` (intp)
        Positions in the ``actions`` vocabulary.
    ``costs`` (float64) and ``estimated`` (bool)
        The expected remaining cost, and whether the policy gave one.
        "No estimate" is the mask, not a float, so every float — NaN
        included — stays a real estimate.
    ``source_ids`` (intp)
        Positions in the ``sources`` vocabulary.

    The other columns of a miss row carry no meaning.  Indexing or
    iterating materializes a row exactly as :meth:`Policy.decide`
    answers the state: a :class:`PolicyDecision`, or the error
    ``miss(row)`` builds.  Misses are built only when read, so a layer
    that routes on the mask (the hybrid rule, the decision server)
    builds none.
    """

    __slots__ = (
        "hit",
        "action_ids",
        "actions",
        "costs",
        "estimated",
        "source_ids",
        "sources",
        "_miss",
    )

    def __init__(
        self,
        *,
        hit: np.ndarray,
        action_ids: np.ndarray,
        actions: Sequence[str],
        costs: np.ndarray,
        estimated: np.ndarray,
        source_ids: np.ndarray,
        sources: Sequence[str],
        miss: Optional[Callable[[int], UnhandledStateError]] = None,
    ) -> None:
        for column in (hit, action_ids, costs, estimated, source_ids):
            column.flags.writeable = False
        self.hit = hit
        self.action_ids = action_ids
        self.actions: Tuple[str, ...] = tuple(actions)
        self.costs = costs
        self.estimated = estimated
        self.source_ids = source_ids
        self.sources: Tuple[str, ...] = tuple(sources)
        self._miss = miss

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_outcomes(cls, outcomes: Iterable[Outcome]) -> "DecisionBatch":
        """Columns from row objects (policies that decide one by one)."""
        outcomes = list(outcomes)
        size = len(outcomes)
        errors = {
            row: outcome
            for row, outcome in enumerate(outcomes)
            if isinstance(outcome, UnhandledStateError)
        }
        decided = [row for row in range(size) if row not in errors]
        misses = cls(
            hit=np.zeros(size, dtype=bool),
            action_ids=np.zeros(size, dtype=np.intp),
            actions=(),
            costs=np.zeros(size, dtype=np.float64),
            estimated=np.zeros(size, dtype=bool),
            source_ids=np.zeros(size, dtype=np.intp),
            sources=(),
            miss=errors.__getitem__,
        )
        return misses._filled(
            np.array(decided, dtype=np.intp), [outcomes[row] for row in decided]
        )

    def with_sources(
        self, sources: Sequence[str], source_ids: Optional[np.ndarray] = None
    ) -> "DecisionBatch":
        """The same answers under a new source vocabulary (and ids)."""
        return DecisionBatch(
            hit=self.hit,
            action_ids=self.action_ids,
            actions=self.actions,
            costs=self.costs,
            estimated=self.estimated,
            source_ids=self.source_ids if source_ids is None else source_ids,
            sources=sources,
            miss=self._miss,
        )

    def with_fallback(
        self, states: Sequence[RecoveryState], fallback: "Policy"
    ) -> "DecisionBatch":
        """These answers with every miss decided by ``fallback``.

        The hybrid rule (Section 3.4) over columns, shared by
        :class:`~repro.policies.hybrid.HybridPolicy` and the decision
        server: hit rows keep their columns; each miss, in row order,
        is answered by ``fallback.decide`` on its state.  Misses are the
        rare rows, and deciding them one by one keeps the fallback's
        calls exactly those of the per-state path.  Every row of the
        result is a hit; ``~self.hit`` says which rows fell back.
        """
        missed = np.flatnonzero(~self.hit)
        if not missed.size:
            return self
        return self._filled(
            missed, [fallback.decide(states[row]) for row in missed.tolist()]
        )

    def _filled(
        self, rows: np.ndarray, decisions: Sequence[PolicyDecision]
    ) -> "DecisionBatch":
        """A copy with ``decisions`` written into ``rows`` as hits."""
        actions, intern_action = _interner(self.actions)
        sources, intern_source = _interner(self.sources)
        hit = self.hit.copy()
        hit[rows] = True
        action_ids = self.action_ids.copy()
        action_ids[rows] = [intern_action(d.action) for d in decisions]
        source_ids = self.source_ids.copy()
        source_ids[rows] = [intern_source(d.source) for d in decisions]
        costs = self.costs.copy()
        costs[rows] = [
            0.0 if d.expected_cost is None else d.expected_cost
            for d in decisions
        ]
        estimated = self.estimated.copy()
        estimated[rows] = [d.expected_cost is not None for d in decisions]
        return DecisionBatch(
            hit=hit,
            action_ids=action_ids,
            actions=actions,
            costs=costs,
            estimated=estimated,
            source_ids=source_ids,
            sources=sources,
            miss=self._miss,
        )

    def spread(
        self, rows: np.ndarray, size: int, *, action: str, source: str
    ) -> "DecisionBatch":
        """These answers at positions ``rows`` of a ``size``-row batch.

        Every other row decides ``action`` from ``source`` with no
        estimate (the session driver's cap-forced rows).
        """
        actions, intern_action = _interner(self.actions)
        sources, intern_source = _interner(self.sources)
        hit = np.ones(size, dtype=bool)
        action_ids = np.full(size, intern_action(action), dtype=np.intp)
        source_ids = np.full(size, intern_source(source), dtype=np.intp)
        costs = np.zeros(size, dtype=np.float64)
        estimated = np.zeros(size, dtype=bool)
        hit[rows] = self.hit
        action_ids[rows] = self.action_ids
        source_ids[rows] = self.source_ids
        costs[rows] = self.costs
        estimated[rows] = self.estimated
        inner = np.full(size, -1, dtype=np.intp)
        inner[rows] = np.arange(len(rows))
        return DecisionBatch(
            hit=hit,
            action_ids=action_ids,
            actions=actions,
            costs=costs,
            estimated=estimated,
            source_ids=source_ids,
            sources=sources,
            miss=lambda row: self[int(inner[row])],
        )

    # ------------------------------------------------------------------
    # Sequence protocol: rows materialize on read
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.hit.shape[0]

    def _row(self, row: int) -> Outcome:
        if not self.hit[row]:
            return self._miss(row)
        return PolicyDecision(
            self.actions[self.action_ids[row]],
            self.sources[self.source_ids[row]],
            float(self.costs[row]) if self.estimated[row] else None,
        )

    def __iter__(self) -> Iterator[Outcome]:
        actions, sources = self.actions, self.sources
        rows = zip(
            self.hit.tolist(),
            self.action_ids.tolist(),
            self.source_ids.tolist(),
            self.costs.tolist(),
            self.estimated.tolist(),
        )
        for row, (hit, action_id, source_id, cost, estimated) in enumerate(rows):
            if hit:
                yield PolicyDecision(
                    actions[action_id],
                    sources[source_id],
                    cost if estimated else None,
                )
            else:
                yield self._miss(row)


class Policy(abc.ABC):
    """Abstract recovery policy."""

    #: Whether batching decisions preserves this policy's behaviour.
    #: Deciding is a pure function of the state for every deterministic
    #: policy, so interleaving decisions across concurrent sessions is
    #: harmless; policies that consume internal RNG state per decision
    #: (``RandomPolicy``) set this False and are driven sequentially.
    batch_safe: bool = True

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier used in reports."""

    @abc.abstractmethod
    def decide(self, state: RecoveryState) -> PolicyDecision:
        """Choose the next repair action for ``state``.

        Raises
        ------
        UnhandledStateError
            If the policy has no rule for this state (the paper's "noisy"
            cases for a pure RL-trained policy).
        ConfigurationError
            If ``state`` is terminal.
        """

    def decide_batch(self, states: Sequence[RecoveryState]) -> DecisionBatch:
        """Decide for many concurrent sessions in one call.

        Returns one row per state, in order (see :class:`DecisionBatch`):
        the decision, or a miss standing for the
        :class:`~repro.errors.UnhandledStateError` the policy would have
        raised for that state (returned, not raised, so one unhandled
        state cannot sink a whole batch).  The default loops over
        :meth:`decide`; table-backed policies override it with a single
        vectorized pass.
        """
        outcomes: List[Outcome] = []
        for state in states:
            try:
                outcomes.append(self.decide(state))
            except UnhandledStateError as exc:
                outcomes.append(exc)
        return DecisionBatch.from_outcomes(outcomes)

    def action_for(self, state: RecoveryState) -> str:
        """Convenience: the chosen action name only."""
        return self.decide(state).action

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
