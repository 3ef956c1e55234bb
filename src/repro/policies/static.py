"""Static baseline policies used in ablation benchmarks.

None of these learn; they bound the design space the trained policy is
compared against:

* always try the cheapest action until the attempt cap forces escalation,
* always go straight to the strongest (manual) action,
* pick uniformly at random,
* follow a fixed action sequence.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.actions.action import ActionCatalog, default_catalog
from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy, PolicyDecision, terminal_state_error
from repro.util.rng import make_rng

__all__ = [
    "AlwaysCheapestPolicy",
    "AlwaysStrongestPolicy",
    "RandomPolicy",
    "FixedSequencePolicy",
]


def _require_non_terminal(state: RecoveryState) -> None:
    if state.is_terminal:
        raise terminal_state_error(state)


class AlwaysCheapestPolicy(Policy):
    """Retry the cheapest action forever, escalating only at the cap.

    ``max_attempts_per_action`` bounds how often the same action repeats
    before moving one step up the ladder, so the policy stays proper.
    """

    def __init__(
        self,
        catalog: Optional[ActionCatalog] = None,
        max_attempts_per_action: int = 3,
    ) -> None:
        if max_attempts_per_action < 1:
            raise ConfigurationError(
                "max_attempts_per_action must be >= 1, got "
                f"{max_attempts_per_action}"
            )
        self._catalog = catalog if catalog is not None else default_catalog()
        self._cap = max_attempts_per_action

    @property
    def name(self) -> str:
        return "always-cheapest"

    def decide(self, state: RecoveryState) -> PolicyDecision:
        _require_non_terminal(state)
        counts = state.tried_counts()
        for action in self._catalog.by_strength():
            if action.manual or counts.get(action.name, 0) < self._cap:
                return PolicyDecision(action=action.name, source=self.name)
        return PolicyDecision(
            action=self._catalog.strongest.name, source=self.name
        )


class AlwaysStrongestPolicy(Policy):
    """Skip straight to the strongest (manual) repair."""

    def __init__(self, catalog: Optional[ActionCatalog] = None) -> None:
        self._catalog = catalog if catalog is not None else default_catalog()

    @property
    def name(self) -> str:
        return "always-strongest"

    def decide(self, state: RecoveryState) -> PolicyDecision:
        _require_non_terminal(state)
        return PolicyDecision(
            action=self._catalog.strongest.name, source=self.name
        )


class RandomPolicy(Policy):
    """Choose uniformly at random among the catalog's actions."""

    #: Each decision consumes internal RNG state, so interleaving
    #: decisions across concurrent sessions changes the draws a given
    #: session sees.  Batched drivers fall back to sequential episodes.
    batch_safe = False

    def __init__(
        self,
        catalog: Optional[ActionCatalog] = None,
        seed: Optional[int] = None,
    ) -> None:
        self._catalog = catalog if catalog is not None else default_catalog()
        self._rng: np.random.Generator = make_rng(seed)

    @property
    def name(self) -> str:
        return "random"

    def decide(self, state: RecoveryState) -> PolicyDecision:
        _require_non_terminal(state)
        names = self._catalog.names()
        index = int(self._rng.integers(0, len(names)))
        return PolicyDecision(action=names[index], source=self.name)


class FixedSequencePolicy(Policy):
    """Execute a fixed action sequence, then repeat the final action.

    The final action of the sequence must be manual so the policy is
    proper.
    """

    def __init__(
        self,
        sequence: Sequence[str],
        catalog: Optional[ActionCatalog] = None,
    ) -> None:
        self._catalog = catalog if catalog is not None else default_catalog()
        if not sequence:
            raise ConfigurationError("sequence must be non-empty")
        for action_name in sequence:
            self._catalog[action_name]  # raises UnknownActionError
        if not self._catalog[sequence[-1]].manual:
            raise ConfigurationError(
                "the final action of a fixed sequence must be manual so the "
                "policy is proper"
            )
        self._sequence = tuple(sequence)

    @property
    def name(self) -> str:
        return "fixed:" + ">".join(self._sequence)

    @property
    def sequence(self) -> Sequence[str]:
        return self._sequence

    def decide(self, state: RecoveryState) -> PolicyDecision:
        _require_non_terminal(state)
        index = min(state.attempt_count, len(self._sequence) - 1)
        return PolicyDecision(action=self._sequence[index], source=self.name)
