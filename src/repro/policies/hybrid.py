"""The hybrid recovery policy (Section 3.4).

The RL-trained policy occasionally meets states it has no rule for —
noisy multi-error cases or patterns that only appear after training.  The
hybrid policy tries the trained policy first and automatically reverts to
the user-defined policy when the trained one cannot act, so it repairs
every error the user-defined policy repairs while keeping the trained
policy's savings on the common cases.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch, Policy, PolicyDecision

__all__ = ["HybridPolicy"]


class HybridPolicy(Policy):
    """Trained policy with automatic fallback to a user-defined one.

    Parameters
    ----------
    trained:
        The primary (RL-trained) policy.
    fallback:
        Policy consulted whenever ``trained`` raises
        :class:`UnhandledStateError`.  Must be proper (always able to
        act), e.g. :class:`~repro.policies.user_defined.UserDefinedPolicy`.
    """

    def __init__(self, trained: Policy, fallback: Policy) -> None:
        self._trained = trained
        self._fallback = fallback
        self._fallback_count = 0
        self._decision_count = 0
        # Batching is only order-preserving if both components are.
        self.batch_safe = trained.batch_safe and fallback.batch_safe

    @property
    def name(self) -> str:
        return "hybrid"

    @property
    def trained(self) -> Policy:
        return self._trained

    @property
    def fallback(self) -> Policy:
        return self._fallback

    @property
    def fallback_rate(self) -> float:
        """Fraction of decisions that reverted to the fallback policy."""
        if self._decision_count == 0:
            return 0.0
        return self._fallback_count / self._decision_count

    def decide(self, state: RecoveryState) -> PolicyDecision:
        self._decision_count += 1
        try:
            decision = self._trained.decide(state)
        except UnhandledStateError:
            self._fallback_count += 1
            fallback_decision = self._fallback.decide(state)
            return PolicyDecision(
                action=fallback_decision.action,
                source=f"{self.name}:{self._fallback.name}",
                expected_cost=fallback_decision.expected_cost,
            )
        return PolicyDecision(
            action=decision.action,
            source=f"{self.name}:{self._trained.name}",
            expected_cost=decision.expected_cost,
        )

    def decide_batch(self, states: Sequence[RecoveryState]) -> DecisionBatch:
        """Batch the trained pass, then the fallback's pass over its misses.

        The fallback decides every missed state in one ``decide_batch``
        call (:meth:`~repro.policies.base.DecisionBatch.with_fallback`).
        The fallback counters advance exactly as they would under
        per-state :meth:`decide` calls over the same states.
        """
        self._decision_count += len(states)
        primary = self._trained.decide_batch(states)
        fell_back = ~primary.hit
        self._fallback_count += int(np.count_nonzero(fell_back))
        answered = primary.with_fallback(states, self._fallback)
        return answered.with_sources(
            (
                f"{self.name}:{self._trained.name}",
                f"{self.name}:{self._fallback.name}",
            ),
            fell_back.astype(np.intp),
        )
