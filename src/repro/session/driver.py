"""Driving recovery sessions, and the lockstep decision wave.

:func:`drive` couples one session to a synchronous
:class:`~repro.session.environment.Environment` and loops
observe → decide → act → update until the episode ends (online
recovery).  :func:`decide_wave` is the other shape: one policy call for
many concurrently open recoveries, each a row of a lockstep wave.  Log
replay (:meth:`SimulationPlatform.replay_many
<repro.simplatform.platform.SimulationPlatform.replay_many>`) and the
fleet engine advance their episodes through it.

Because policies are stateless functions of the recovery state, a
deterministic policy decides a state identically alone or inside a
wave; only the *interleaving* of decide calls differs.  Policies whose
decisions consume internal RNG state declare ``batch_safe = False``,
and wave callers then run one episode at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch, Policy
from repro.session.core import RecoverySession
from repro.session.environment import Environment
from repro.session.trace import FORCED_SOURCE, EpisodeTelemetry, EpisodeTrace

__all__ = ["EpisodeOutcome", "decide_wave", "drive"]


def decide_wave(
    policy: Policy,
    states: Sequence[RecoveryState],
    forced: np.ndarray,
    forced_name: str,
) -> DecisionBatch:
    """Resolve one lockstep decision wave over mixed forced/free states.

    This is the wave-splitting rule of the replay platform's waves and
    the fleet backend's single policy touchpoint: rows whose ``N``-cap
    already forces an action (``forced[i]`` True) bypass the policy and
    decide ``forced_name`` from :data:`FORCED_SOURCE` with no estimate;
    all remaining states pool into **one**
    :meth:`~repro.policies.base.Policy.decide_batch` call.  The answer
    comes back as columns in input order; a policy miss stays a miss
    row — returned, not raised, so callers choose between ending one
    replay unhandled (the replay platform) and propagating (the live
    cluster backends).
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
        )
    return _finish(session, telemetry)
