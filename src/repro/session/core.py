"""The two rules every episode loop applies: the cap and the wave.

The paper's recovery loop observes ``(error_type, result,
actions-tried)``, asks a policy, applies an action, observes the
outcome and stops at the ``N`` = 20 action cap.  Every loop in the
library runs it in lockstep waves over integer ids: log replay, policy
evaluation, selection-tree scoring and training on the platform's
compiled rows (:meth:`~repro.simplatform.platform.CompiledReplay.step`),
and the fleet engine over its machine arrays.  They share the cap rule
(:func:`forced_action`) and emit the same
:class:`~repro.session.trace.EpisodeTrace`; replay and the fleet engine
also share the wave's decision rule (:func:`decide_wave`): one policy
call for many concurrently open recoveries.

Because policies are stateless functions of the recovery state, a
deterministic policy decides a state identically alone or inside a
wave; only the *interleaving* of decide calls differs.  Policies whose
decisions consume internal RNG state declare ``batch_safe = False``,
and wave callers then run one episode at a time.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch, Policy
from repro.session.trace import FORCED_SOURCE

__all__ = ["forced_action", "decide_wave"]


def forced_action(
    attempt_count: int, max_actions: int, forced_name: str
) -> Optional[str]:
    """The action the ``N``-cap forces after ``attempt_count`` tries.

    The paper bounds every recovery at ``max_actions`` actions by forcing
    the manual (strongest) repair on the final slot — the last free
    choice happens at ``attempt_count == max_actions - 2`` and from
    ``max_actions - 1`` on the manual action is mandatory.  Returns
    ``None`` while the policy may still choose.  This is the single
    source of the cap rule: every compiled replay loop (via the
    platform) and the fleet engine call it.
    """
    if attempt_count >= max_actions - 1:
        return forced_name
    return None


def decide_wave(
    policy: Policy,
    states: Sequence[RecoveryState],
    forced: np.ndarray,
    forced_name: str,
) -> DecisionBatch:
    """Resolve one lockstep decision wave over mixed forced/free states.

    This is the wave-splitting rule of the replay platform's waves and
    the fleet engine's single policy touchpoint: rows whose ``N``-cap
    already forces an action (``forced[i]`` True) bypass the policy and
    decide ``forced_name`` from :data:`FORCED_SOURCE` with no estimate;
    all remaining states pool into **one**
    :meth:`~repro.policies.base.Policy.decide_batch` call.  The answer
    comes back as columns in input order; a policy miss stays a miss
    row — returned, not raised, so callers choose between ending one
    replay unhandled (the replay platform) and propagating (the cluster
    simulator).
    """
    if len(states) != len(forced):
        raise ValueError("states and forced must align")
    free = np.flatnonzero(~forced)
    if free.size == len(states):
        return policy.decide_batch(states)
    if free.size:
        decided = policy.decide_batch(
            list(map(states.__getitem__, free.tolist()))
        )
    else:
        decided = DecisionBatch.from_outcomes(())
    return decided.spread(
        free, len(states), action=forced_name, source=FORCED_SOURCE
    )
