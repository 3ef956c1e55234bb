"""Drivers that run recovery sessions to completion.

:func:`drive` couples one session to a synchronous
:class:`~repro.session.environment.Environment` and loops
observe → decide → act → update until the episode ends.  :func:`drive_batch`
advances many independent sessions in lockstep *waves*, collecting every
session that needs a policy decision and asking
:meth:`~repro.policies.base.Policy.decide_batch` once per wave — the
shape the ROADMAP's serving layer needs (one vectorized decision call
over all concurrently open recoveries).

Because policies are stateless functions of the recovery state, a
deterministic policy produces bit-identical per-session episodes under
either driver; only the *interleaving* of decide calls differs.
Policies whose decisions consume internal RNG state declare
``batch_safe = False`` and are driven sequentially instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch, Policy
from repro.session.core import RecoverySession
from repro.session.environment import Environment
from repro.session.trace import FORCED_SOURCE, EpisodeTelemetry, EpisodeTrace

__all__ = ["EpisodeOutcome", "decide_wave", "drive", "drive_batch"]


def decide_wave(
    policy: Policy,
    states: Sequence[RecoveryState],
    forced: np.ndarray,
    forced_name: str,
) -> DecisionBatch:
    """Resolve one lockstep decision wave over mixed forced/free states.

    This is the wave-splitting rule :func:`drive_batch` applies and the
    fleet backend's single policy touchpoint: rows whose ``N``-cap
    already forces an action (``forced[i]`` True) bypass the policy and
    decide ``forced_name`` from :data:`FORCED_SOURCE` with no estimate;
    all remaining states pool into **one**
    :meth:`~repro.policies.base.Policy.decide_batch` call.  The answer
    comes back as columns in input order; a policy miss stays a miss
    row — returned, not raised, so callers choose between aborting one
    session (the replay drivers) and propagating (the live cluster
    backends).
    """
    if len(states) != len(forced):
        raise ValueError("states and forced must align")
    free = np.flatnonzero(~forced)
    if free.size == len(states):
        return policy.decide_batch(states)
    if free.size:
        decided = policy.decide_batch([states[row] for row in free.tolist()])
    else:
        decided = DecisionBatch.from_outcomes(())
    return decided.spread(
        free, len(states), action=forced_name, source=FORCED_SOURCE
    )


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
            next_state=result.next_state,
        )
    return _finish(session, telemetry)


def drive_batch(
    environments: Sequence[Environment],
    policy: Policy,
    *,
    origin: str = "replay",
    telemetry: Optional[EpisodeTelemetry] = None,
) -> List[EpisodeOutcome]:
    """Run one session per environment, deciding in lockstep waves.

    Each wave gathers the states of every still-open session whose next
    action is not cap-forced and resolves them with a single
    :meth:`Policy.decide_batch` call; cap-forced sessions take the
    manual repair without consulting the policy.  Per-session episodes
    are identical to :func:`drive` for any deterministic policy (see
    module docstring); policies with ``batch_safe = False`` fall back
    to sequential driving to preserve their RNG draw order.

    Outcomes are returned in input order; telemetry fires once per
    episode, also in input order, after every session finished.
    """
    if not policy.batch_safe:
        return [
            drive(environment, policy, origin=origin, telemetry=telemetry)
            for environment in environments
        ]
    sessions = [
        _make_session(environment, policy, origin)
        for environment in environments
    ]
    active = [
        (session, environment)
        for session, environment in zip(sessions, environments)
        if not session.done
    ]
    while active:
        # Split the wave: cap-forced sessions act immediately; the rest
        # pool their states into one batched decision.
        deciding: List[Tuple[RecoverySession, Environment]] = []
        states: List[RecoveryState] = []
        for session, environment in active:
            if session.forced_action() is not None:
                session.force_pending()
            else:
                deciding.append((session, environment))
                states.append(session.state)
        if states:
            decisions = policy.decide_batch(states)
            for (session, _environment), decision in zip(deciding, decisions):
                session.resolve(decision)
        still_active = []
        for session, environment in active:
            if session.handled and not session.done:
                decision = session.pending
                result = environment.execute(session.state, decision.action)
                session.record_outcome(
                    result.cost,
                    result.succeeded,
                    matched_log=result.matched_log,
                    next_state=result.next_state,
                )
            if not session.done:
                still_active.append((session, environment))
        active = still_active
    return [_finish(session, telemetry) for session in sessions]
