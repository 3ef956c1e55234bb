"""The live one-episode session loop, kept as a test-only reference.

Live recovery used to run one episode at a time through a state
machine: :class:`RecoverySession` observed the state, asked the policy
(or the ``N``-cap) for a :class:`SessionDecision` and recorded each
outcome, and :func:`drive` closed that loop over a synchronous
:class:`Environment`, which reported an :class:`ExecutionResult` per
action, returning an :class:`EpisodeOutcome`.  ``src/`` now decides
every episode in lockstep waves over integer ids
(:func:`~repro.session.core.decide_wave`), so this module keeps the
session loop verbatim for the references that drive it.  The session
applies the library's own cap rule
(:func:`~repro.session.core.forced_action`) and emits the library's
:class:`~repro.session.trace.EpisodeTrace`.

* ``reference_cluster.py`` (the event-driven cluster reference) runs
  one :class:`RecoverySession` per recovering machine, deciding now and
  recording the outcome when the action's completion event fires;
* ``reference_replay.py`` drives sessions through its
  ``ReplayEnvironment`` (:func:`drive`, or ``drive_batch`` in waves);
* ``test_session_core.py`` tests the state machine and :func:`drive`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy
from repro.session.core import forced_action
from repro.session.trace import (
    FORCED_SOURCE,
    EpisodeTelemetry,
    EpisodeTrace,
    StepTrace,
)

__all__ = [
    "SessionDecision",
    "RecoverySession",
    "ExecutionResult",
    "Environment",
    "EpisodeOutcome",
    "drive",
]


@dataclass(frozen=True)
class SessionDecision:
    """The action a session settled on for the current state.

    Attributes
    ----------
    action:
        The repair action to execute next.
    forced:
        Whether the ``N``-action cap, not the policy, chose it.
    source:
        Decision provenance (the policy's source, or ``"forced:cap"``).
    expected_cost:
        The policy's own remaining-cost estimate, when it had one.
    """

    action: str
    forced: bool
    source: str
    expected_cost: Optional[float] = None


class RecoverySession:
    """One recovery episode: state, cap enforcement, cost, trace.

    Parameters
    ----------
    error_type:
        The error type being recovered.
    policy:
        The deciding policy (consulted while the cap permits).
    max_actions:
        The paper's ``N``: the episode is capped at this many actions,
        the last forced to ``forced_action_name``.
    forced_action_name:
        The manual (strongest) repair the cap falls back to.
    origin:
        Label recorded in the episode trace (``"replay"``,
        ``"cluster"``, ...).
    initial_cost:
        Detection-segment seconds charged before the first action.
    """

    def __init__(
        self,
        error_type: str,
        policy: Policy,
        *,
        max_actions: int,
        forced_action_name: str,
        origin: str = "session",
        initial_cost: float = 0.0,
    ) -> None:
        if max_actions < 2:
            raise ConfigurationError(
                f"max_actions must be >= 2, got {max_actions}"
            )
        if not forced_action_name:
            raise ConfigurationError("forced_action_name must be non-empty")
        self._policy = policy
        self._max_actions = max_actions
        self._forced_name = forced_action_name
        self._origin = origin
        self._state = RecoveryState.initial(error_type)
        self._total = initial_cost
        self._initial_cost = initial_cost
        self._steps: List[StepTrace] = []
        self._pending: Optional[SessionDecision] = None
        self._forced_manual = False
        self._aborted = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> RecoveryState:
        """The current recovery state."""
        return self._state

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def origin(self) -> str:
        return self._origin

    @property
    def max_actions(self) -> int:
        return self._max_actions

    @property
    def done(self) -> bool:
        """Whether the episode finished (cured or aborted)."""
        return self._aborted or self._state.is_terminal

    @property
    def handled(self) -> bool:
        """False once the policy failed to act and the session aborted."""
        return not self._aborted

    @property
    def forced_manual(self) -> bool:
        """Whether the ``N``-cap forced an action at any point."""
        return self._forced_manual

    @property
    def total_cost(self) -> float:
        """Initial cost plus recorded step costs, in execution order."""
        return self._total

    @property
    def actions(self) -> Tuple[str, ...]:
        """Actions executed so far."""
        return self._state.tried

    # ------------------------------------------------------------------
    def forced_action(self) -> Optional[str]:
        """The cap-forced action for the current state, if any."""
        return forced_action(
            self._state.attempt_count, self._max_actions, self._forced_name
        )

    def next_action(self) -> SessionDecision:
        """Observe the current state and decide the next action.

        The cap rule is consulted first; while it permits, the policy
        decides.  A policy raising
        :class:`~repro.errors.UnhandledStateError` aborts the session
        (``handled`` becomes False) and the error propagates so callers
        that must not swallow it (the live cluster) still see it.
        """
        if self.done:
            raise SimulationError("cannot decide in a finished session")
        if self._pending is not None:
            raise SimulationError(
                "previous decision has no recorded outcome yet"
            )
        forced = self.forced_action()
        if forced is not None:
            decision = SessionDecision(
                action=forced, forced=True, source=FORCED_SOURCE
            )
        else:
            try:
                chosen = self._policy.decide(self._state)
            except UnhandledStateError:
                self._aborted = True
                raise
            decision = SessionDecision(
                action=chosen.action,
                forced=False,
                source=chosen.source,
                expected_cost=chosen.expected_cost,
            )
        self._pending = decision
        return decision

    def record_outcome(
        self,
        cost: float,
        succeeded: bool,
        *,
        matched_log: Optional[bool] = None,
    ) -> RecoveryState:
        """Observe the executed action's outcome and advance the state.

        Returns the new current state.
        """
        decision = self._pending
        if decision is None:
            raise SimulationError("no pending decision to record against")
        self._pending = None
        if decision.forced:
            self._forced_manual = True
        self._steps.append(
            StepTrace(
                step=len(self._steps),
                attempt_count=self._state.attempt_count,
                action=decision.action,
                source=decision.source,
                forced=decision.forced,
                cost=cost,
                succeeded=succeeded,
                matched_log=matched_log,
                expected_cost=decision.expected_cost,
            )
        )
        self._state = self._state.after(decision.action, succeeded)
        self._total += cost
        return self._state

    def abort(self) -> None:
        """Mark the session unhandled (the policy could not act)."""
        self._pending = None
        self._aborted = True

    def trace(self) -> EpisodeTrace:
        """The episode's structured trace (valid at any point)."""
        return EpisodeTrace(
            origin=self._origin,
            error_type=self._state.error_type,
            initial_cost=self._initial_cost,
            steps=tuple(self._steps),
            handled=self.handled,
            forced_manual=self._forced_manual,
        )


@dataclass(frozen=True)
class ExecutionResult:
    """What executing one action did.

    Attributes
    ----------
    cost:
        Seconds charged for the attempt.
    succeeded:
        Whether the action cured the process.
    matched_log:
        Replay environments: whether the proposal coincided with the
        logged action at this position.  ``None`` elsewhere.
    """

    cost: float
    succeeded: bool
    matched_log: Optional[bool] = None


class Environment(abc.ABC):
    """Where a recovery session's actions take effect."""

    @property
    @abc.abstractmethod
    def error_type(self) -> str:
        """The error type this environment recovers."""

    @property
    @abc.abstractmethod
    def max_actions(self) -> int:
        """The paper's ``N``-action cap."""

    @property
    @abc.abstractmethod
    def forced_action_name(self) -> str:
        """The manual repair the cap forces on the final slot."""

    def initial_cost(self) -> float:
        """Detection-segment seconds charged before the first action."""
        return 0.0

    @abc.abstractmethod
    def execute(
        self, state: RecoveryState, action_name: str
    ) -> ExecutionResult:
        """Run ``action_name`` in ``state`` and report the outcome."""


@dataclass(frozen=True)
class EpisodeOutcome:
    """The result of running one recovery session to completion.

    Attributes
    ----------
    handled:
        False when the policy met a state it had no rule for and the
        session aborted mid-episode.
    cost:
        Initial cost plus step costs, accumulated in execution order
        (meaningless when ``handled`` is False).
    actions:
        The executed action sequence.
    forced_manual:
        Whether the ``N``-action cap forced the manual repair.
    trace:
        The structured per-step episode trace.
    """

    handled: bool
    cost: float
    actions: Tuple[str, ...]
    forced_manual: bool
    trace: EpisodeTrace


def _finish(
    session: RecoverySession, telemetry: Optional[EpisodeTelemetry]
) -> EpisodeOutcome:
    trace = session.trace()
    if telemetry is not None:
        telemetry.on_episode(trace)
    return EpisodeOutcome(
        handled=session.handled,
        cost=session.total_cost,
        actions=session.actions,
        forced_manual=session.forced_manual,
        trace=trace,
    )


def _make_session(
    environment: Environment, policy: Policy, origin: str
) -> RecoverySession:
    return RecoverySession(
        environment.error_type,
        policy,
        max_actions=environment.max_actions,
        forced_action_name=environment.forced_action_name,
        origin=origin,
        initial_cost=environment.initial_cost(),
    )


def drive(
    environment: Environment,
    policy: Policy,
    *,
    origin: str = "replay",
    telemetry: Optional[EpisodeTelemetry] = None,
) -> EpisodeOutcome:
    """Run ``policy`` against ``environment`` until the episode ends.

    An :class:`~repro.errors.UnhandledStateError` from the policy ends
    the episode with ``handled=False`` (the paper's unhandled cases);
    the actions executed up to that point are preserved in the outcome.
    """
    session = _make_session(environment, policy, origin)
    while not session.done:
        try:
            decision = session.next_action()
        except UnhandledStateError:
            break
        result = environment.execute(session.state, decision.action)
        session.record_outcome(
            result.cost,
            result.succeeded,
            matched_log=result.matched_log,
        )
    return _finish(session, telemetry)
