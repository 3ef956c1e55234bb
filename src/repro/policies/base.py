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
    "history_codes",
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
Code = TypeVar("Code")

# ``healthy`` is what ``RecoveryState.is_terminal`` reads; attribute
# getters read it (and ``tried``) for a whole batch without a Python
# frame per state.
_HEALTHY = operator.attrgetter("healthy")
_TRIED = operator.attrgetter("tried")


def terminal_state_error(state: RecoveryState) -> ConfigurationError:
    """The error every policy raises when asked to act in ``state``."""
    return ConfigurationError(
        f"cannot decide an action in terminal state {state}"
    )


def history_codes(
    states: Sequence[RecoveryState], code: Callable[[Tuple[str, ...]], Code]
) -> Tuple[List[Code], np.ndarray]:
    """``code(state.tried)`` for a batch, computed once per distinct history.

    Returns ``(codes, rows)``: ``codes`` holds one code per distinct
    history, in first-seen order, and ``rows`` (intp) gives each state's
    position in ``codes``, so ``codes[rows[i]]`` is ``code(states[i].tried)``
    and a column of codes is one numpy gather.  Waves repeat a few
    histories many times over, so ``code`` runs a handful of times per
    batch.  A terminal state raises :func:`terminal_state_error` for the
    first one, as deciding the states in order would.
    """
    if any(map(_HEALTHY, states)):
        raise terminal_state_error(next(filter(_HEALTHY, states)))
    histories = list(map(_TRIED, states))
    # dict.fromkeys dedupes in first-seen order (a set's order would
    # depend on string hashing).
    distinct = dict.fromkeys(histories)
    positions = dict(zip(distinct, range(len(distinct))))
    rows = np.fromiter(
        map(positions.__getitem__, histories), dtype=np.intp, count=len(histories)
    )
    return list(map(code, distinct)), rows


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
        """Columns from row objects (policies that decide one by one).

        One pass over the rows: this is every per-state policy's batch
        answer, one-row waves included, so it builds each column once.
        """
        # Name -> id, in first-seen order (dicts keep insertion order).
        actions: Dict[str, int] = {}
        sources: Dict[str, int] = {}
        errors: Dict[int, UnhandledStateError] = {}
        hit: List[bool] = []
        action_ids: List[int] = []
        source_ids: List[int] = []
        estimates: List[Optional[float]] = []
        for row, outcome in enumerate(outcomes):
            if isinstance(outcome, UnhandledStateError):
                errors[row] = outcome
                hit.append(False)
                action_ids.append(0)
                source_ids.append(0)
                estimates.append(None)
            else:
                hit.append(True)
                action_ids.append(
                    actions.setdefault(outcome.action, len(actions))
                )
                source_ids.append(
                    sources.setdefault(outcome.source, len(sources))
                )
                estimates.append(outcome.expected_cost)
        return cls(
            hit=np.array(hit, dtype=bool),
            action_ids=np.array(action_ids, dtype=np.intp),
            actions=tuple(actions),
            costs=np.array(
                [0.0 if cost is None else cost for cost in estimates],
                dtype=np.float64,
            ),
            estimated=np.array(
                [cost is not None for cost in estimates], dtype=bool
            ),
            source_ids=np.array(source_ids, dtype=np.intp),
            sources=tuple(sources),
            miss=errors.__getitem__,
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
        server: hit rows keep their columns, and the missed states, in
        row order, go to ``fallback.decide_batch`` in one call whose
        columns are merged in.  Every row of the result is a hit;
        ``~self.hit`` says which rows fell back.  A fallback that misses
        too raises the :class:`~repro.errors.UnhandledStateError` of the
        first such row, as per-state ``fallback.decide`` calls would.
        """
        missed = np.flatnonzero(~self.hit)
        if not missed.size:
            return self
        answer = fallback.decide_batch(
            list(map(states.__getitem__, missed.tolist()))
        )
        if not answer.hit.all():
            raise answer[int(np.argmin(answer.hit))]
        return self._filled(missed, answer)

    def _filled(
        self, rows: np.ndarray, answer: "DecisionBatch"
    ) -> "DecisionBatch":
        """A copy with ``answer``'s rows (all hits) written into ``rows``.

        ``answer``'s vocabulary entries join this batch's by name, once
        each, and its id columns are remapped by one gather.
        """
        actions, intern_action = _interner(self.actions)
        sources, intern_source = _interner(self.sources)
        action_map = np.array(
            [intern_action(name) for name in answer.actions], dtype=np.intp
        )
        source_map = np.array(
            [intern_source(name) for name in answer.sources], dtype=np.intp
        )
        hit = self.hit.copy()
        hit[rows] = True
        action_ids = self.action_ids.copy()
        action_ids[rows] = action_map[answer.action_ids]
        source_ids = self.source_ids.copy()
        source_ids[rows] = source_map[answer.source_ids]
        costs = self.costs.copy()
        costs[rows] = answer.costs
        estimated = self.estimated.copy()
        estimated[rows] = answer.estimated
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
        estimate (the cap-forced rows of
        :func:`~repro.session.core.decide_wave`).
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
