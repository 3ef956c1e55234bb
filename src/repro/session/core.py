"""The recovery-session core: one authoritative episode state machine.

The paper's whole pipeline is a single loop — observe
``(error_type, result, actions-tried)``, ask a policy, apply an action,
observe the outcome, stop at the ``N`` = 20 action cap.  Live recovery
runs it as a :class:`RecoverySession` (the cluster simulator's online
recovery, :func:`~repro.session.driver.drive` for the rolling
retrainer).  Log replay, policy evaluation, selection-tree scoring and
training run it on integer ids over the platform's compiled rows
(:meth:`~repro.simplatform.platform.CompiledReplay.step`), without
per-step objects; they share the session's cap rule
(:func:`forced_action`) and emit the same
:class:`~repro.session.trace.EpisodeTrace`.

The session is deliberately a *state machine*, not a closed loop:
``next_action()`` produces the next decision and ``record_outcome()``
advances the state.  Synchronous callers use
:func:`~repro.session.driver.drive`; the event-driven cluster simulator
calls the two halves directly across simulated time (decide now,
observe the outcome when the action's completion event fires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy
from repro.session.trace import FORCED_SOURCE, EpisodeTrace, StepTrace

__all__ = ["forced_action", "SessionDecision", "RecoverySession"]


def forced_action(
    attempt_count: int, max_actions: int, forced_name: str
) -> Optional[str]:
    """The action the ``N``-cap forces after ``attempt_count`` tries.

    The paper bounds every recovery at ``max_actions`` actions by forcing
    the manual (strongest) repair on the final slot — the last free
    choice happens at ``attempt_count == max_actions - 2`` and from
    ``max_actions - 1`` on the manual action is mandatory.  Returns
    ``None`` while the policy may still choose.  This is the single
    source of the cap rule: sessions and every compiled replay loop
    (via the platform) call it.
    """
    if attempt_count >= max_actions - 1:
        return forced_name
    return None


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
