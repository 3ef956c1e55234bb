"""The decision server: policy lookups with atomic hot reload.

One :class:`DecisionServer` owns the currently deployed
:class:`PolicyVersion` — an immutable bundle of primary policy,
fallback and version number.  Readers take one snapshot reference per
call and answer every state in the call from that snapshot, so a
concurrent :meth:`DecisionServer.publish` can never expose a torn
table: a batch is answered entirely by version ``n`` or entirely by
version ``n + 1``, never a mix.  Publication itself is a single
reference assignment under the writer lock (reference swaps are atomic
under the interpreter), which is the same swap discipline
:class:`~repro.core.online.RollingRetrainer` uses in-process.

Unknown states degrade to the fallback policy — exactly the paper's
hybrid semantics (Section 3.4): the served system repairs every error
the user-defined policy repairs while keeping the trained policy's
savings on the common cases.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, Iterator, Optional, Sequence

import numpy as np

from repro.actions.action import default_catalog
from repro.errors import UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import (
    ColumnRows,
    DecisionBatch,
    Policy,
    terminal_state_error,
)
from repro.policies.hybrid import HybridPolicy
from repro.policies.user_defined import UserDefinedPolicy

__all__ = ["DecisionServer", "PolicyVersion", "ServedBatch", "ServedDecision"]


def _known_error_types(policy: Policy) -> Optional[FrozenSet[str]]:
    """The primary's rule-table error types, if it exposes them."""
    getter = getattr(policy, "error_types", None)
    if getter is None:
        return None
    return frozenset(getter())


@dataclass(frozen=True)
class PolicyVersion:
    """One immutable deployed policy generation.

    Attributes
    ----------
    version:
        Monotonically increasing generation number (1 = the policy the
        server started with).
    primary:
        The trained policy consulted first.
    fallback:
        The proper policy consulted when ``primary`` has no rule.
    known_types:
        The primary's rule-table error types, when it exposes them: a
        miss on a type outside this set counts as *unknown*, not as a
        fallback.  It lives and dies with its generation.
    """

    version: int
    primary: Policy
    fallback: Policy
    known_types: Optional[FrozenSet[str]] = None


@dataclass(frozen=True)
class ServedDecision:
    """A server answer: the chosen action plus serving provenance.

    ``source`` follows the hybrid convention
    (``"serving:<policy name>"``); ``fell_back`` says whether the
    primary policy missed and the fallback decided; ``version`` is the
    policy generation that answered, so a client can detect mid-stream
    hot reloads.
    """

    action: str
    source: str
    expected_cost: Optional[float]
    version: int
    fell_back: bool


class ServedBatch(ColumnRows[ServedDecision]):
    """A server's answer to one batch, held as columns.

    ``decisions`` holds every answer as a
    :class:`~repro.policies.base.DecisionBatch` in which each row is a
    hit, its sources already ``"serving:"``-prefixed; ``fell_back``
    (bool, one per row) marks the rows the fallback answered; and
    ``version`` is the one generation that answered them all.  Indexing
    or iterating materializes :class:`ServedDecision` rows.
    """

    __slots__ = ("decisions", "fell_back", "version")

    def __init__(
        self, decisions: DecisionBatch, fell_back: np.ndarray, version: int
    ) -> None:
        fell_back.flags.writeable = False
        self.decisions = decisions
        self.fell_back = fell_back
        self.version = version

    def __len__(self) -> int:
        return len(self.decisions)

    def _row(self, row: int) -> ServedDecision:
        decision = self.decisions[row]
        return ServedDecision(
            decision.action,
            decision.source,
            decision.expected_cost,
            self.version,
            bool(self.fell_back[row]),
        )

    def __iter__(self) -> Iterator[ServedDecision]:
        decisions = self.decisions
        actions, sources, version = (
            decisions.actions,
            decisions.sources,
            self.version,
        )
        for action_id, source_id, cost, estimated, fell_back in zip(
            decisions.action_ids.tolist(),
            decisions.source_ids.tolist(),
            decisions.costs.tolist(),
            decisions.estimated.tolist(),
            self.fell_back.tolist(),
        ):
            yield ServedDecision(
                actions[action_id],
                sources[source_id],
                cost if estimated else None,
                version,
                fell_back,
            )


class DecisionServer:
    """Serves ``(error_type, state) -> action`` lookups under hot reload.

    Parameters
    ----------
    policy:
        The initial primary policy (a
        :class:`~repro.policies.binary.ArrayTrainedPolicy` for the
        zero-copy serving path, or any other deterministic policy).
    fallback:
        The proper fallback; defaults to the paper's
        :class:`~repro.policies.user_defined.UserDefinedPolicy` over the
        default catalog.  Must be able to act in every non-terminal
        state.
    """

    def __init__(
        self, policy: Policy, fallback: Optional[Policy] = None
    ) -> None:
        if fallback is None:
            fallback = UserDefinedPolicy(default_catalog())
        self._write_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._current = PolicyVersion(
            version=1,
            primary=policy,
            fallback=fallback,
            known_types=_known_error_types(policy),
        )
        self._decisions = 0
        self._fallbacks = 0
        self._batches = 0
        self._by_version: Dict[int, int] = {}
        # Per error type, three counters.  A "fallback" is a known error
        # type whose particular state the primary could not answer;
        # "unknown" is an error type outside the primary's rule table
        # entirely.
        self._hits_by_type: Counter = Counter()
        self._fallbacks_by_type: Counter = Counter()
        self._unknown_by_type: Counter = Counter()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> PolicyVersion:
        """The currently deployed generation (one atomic read)."""
        return self._current

    @property
    def version(self) -> int:
        """The deployed generation number."""
        return self._current.version

    @property
    def decision_count(self) -> int:
        """Total decisions served across all generations."""
        return self._decisions

    @property
    def batch_count(self) -> int:
        """Non-empty ``decide_batch`` calls served."""
        return self._batches

    @property
    def fallback_count(self) -> int:
        """Decisions that degraded to the fallback policy."""
        return self._fallbacks

    @property
    def fallback_rate(self) -> float:
        """Fraction of decisions the fallback answered."""
        if self._decisions == 0:
            return 0.0
        return self._fallbacks / self._decisions

    def decisions_by_version(self) -> Dict[int, int]:
        """``{generation: decisions served}`` in generation order."""
        with self._stats_lock:
            return {v: self._by_version[v] for v in sorted(self._by_version)}

    def error_type_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-error-type serving counters, in error-type order.

        ``{error_type: {"hits": .., "fallbacks": .., "unknown": ..}}`` —
        *hits* answered by the primary policy, *fallbacks* degraded for
        a known error type (the primary had no rule for that particular
        state), *unknown* degraded because the error type is outside the
        primary's rule table.  When the primary does not expose
        ``error_types()`` the unknown column stays 0 and every miss
        counts as a fallback.
        """
        with self._stats_lock:
            hits = self._hits_by_type
            fallbacks = self._fallbacks_by_type
            unknown = self._unknown_by_type
            return {
                error_type: {
                    "hits": hits[error_type],
                    "fallbacks": fallbacks[error_type],
                    "unknown": unknown[error_type],
                }
                for error_type in sorted(
                    hits.keys() | fallbacks.keys() | unknown.keys()
                )
            }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def decide(self, state: RecoveryState) -> ServedDecision:
        """Answer one lookup from the current generation."""
        if state.is_terminal:
            raise terminal_state_error(state)
        current = self._current
        try:
            choice = current.primary.decide(state)
            fell_back = False
        except UnhandledStateError:
            choice = current.fallback.decide(state)
            fell_back = True
        if not fell_back:
            counter = self._hits_by_type
        elif self._is_unknown(current, state.error_type):
            counter = self._unknown_by_type
        else:
            counter = self._fallbacks_by_type
        with self._stats_lock:
            self._decisions += 1
            self._fallbacks += 1 if fell_back else 0
            self._by_version[current.version] = (
                self._by_version.get(current.version, 0) + 1
            )
            counter[state.error_type] += 1
        return ServedDecision(
            action=choice.action,
            source=f"serving:{choice.source}",
            expected_cost=choice.expected_cost,
            version=current.version,
            fell_back=fell_back,
        )

    def decide_batch(self, states: Sequence[RecoveryState]) -> ServedBatch:
        """Answer a whole wave of lookups from *one* generation.

        The snapshot is taken once, before the first lookup, so every
        row of the answer carries the same ``version`` (and was answered
        by that generation's fallback) even when a publish lands
        mid-batch.  The primary answers the batch in one
        ``decide_batch`` call; its misses go to the fallback one state
        at a time (:meth:`~repro.policies.base.DecisionBatch.with_fallback`).
        An empty batch answers nothing and counts nothing.
        """
        current = self._current
        if not states:
            return ServedBatch(
                DecisionBatch.from_outcomes(()),
                np.zeros(0, dtype=bool),
                current.version,
            )
        primary = current.primary.decide_batch(states)
        answered = primary.with_fallback(states, current.fallback)
        fell_back = ~primary.hit
        self._count_batch(current, states, fell_back)
        return ServedBatch(
            answered.with_sources(
                [f"serving:{source}" for source in answered.sources]
            ),
            fell_back,
            current.version,
        )

    def _count_batch(
        self,
        current: PolicyVersion,
        states: Sequence[RecoveryState],
        fell_back: np.ndarray,
    ) -> None:
        """Add one answered batch to the counters."""
        types = [state.error_type for state in states]
        unknown = []
        known = []
        for error_type in compress(types, fell_back.tolist()):
            if self._is_unknown(current, error_type):
                unknown.append(error_type)
            else:
                known.append(error_type)
        # Counter.update counts in C; the lock covers no Python loop.
        with self._stats_lock:
            self._decisions += len(types)
            self._fallbacks += len(unknown) + len(known)
            self._batches += 1
            self._by_version[current.version] = (
                self._by_version.get(current.version, 0) + len(types)
            )
            self._hits_by_type.update(
                compress(types, (~fell_back).tolist())
            )
            self._fallbacks_by_type.update(known)
            self._unknown_by_type.update(unknown)

    @staticmethod
    def _is_unknown(current: PolicyVersion, error_type: str) -> bool:
        """Whether a miss on ``error_type`` is outside the rule table."""
        known = current.known_types
        return known is not None and error_type not in known

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def publish(
        self, policy: Policy, *, fallback: Optional[Policy] = None
    ) -> PolicyVersion:
        """Atomically deploy a new primary policy (and optional fallback).

        Readers that already hold a snapshot finish on the old
        generation; every call that starts after the swap sees the new
        one.  Returns the deployed :class:`PolicyVersion`.
        """
        known_types = _known_error_types(policy)
        with self._write_lock:
            previous = self._current
            version = PolicyVersion(
                version=previous.version + 1,
                primary=policy,
                fallback=fallback if fallback is not None else previous.fallback,
                known_types=known_types,
            )
            self._current = version
        return version

    def attach_retrainer(self, retrainer) -> None:
        """Hot-reload from a retrainer's policy publications.

        Subscribes to :class:`~repro.core.online.RollingRetrainer`
        publications; hybrid policies are unbundled so the server keeps
        owning the fallback routing (and its fallback statistics).
        """
        retrainer.subscribe(self._on_retrained)

    def _on_retrained(self, policy: Policy) -> None:
        if isinstance(policy, HybridPolicy):
            self.publish(policy.trained, fallback=policy.fallback)
        else:
            self.publish(policy)
