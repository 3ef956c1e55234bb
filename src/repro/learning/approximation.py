"""Linear Q-function approximation (the paper's future-work extension).

Section 7 lists "using generalization functions to approximate the
Q-learning values" as a possible extension: instead of one table entry
per (state, action), a parametric function generalizes across states, so
rarely visited deep states borrow strength from frequent shallow ones.

This module implements the simplest credible instance — a per-error-type
linear value function over hand-crafted state-action features — with the
same TD(0) targets as the tabular learner (Section 2.2 notes the
Q-function "can be represented in a generalized way like multi-layer
neural networks and incrementally learned through temporal difference
methods"; a linear model keeps the reproduction dependency-free and the
learning dynamics analyzable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.actions.action import ActionCatalog
from repro.errors import ConfigurationError, TrainingError
from repro.learning.exploration import BoltzmannExplorer, TemperatureSchedule
from repro.mdp.state import RecoveryState
from repro.recoverylog.process import RecoveryProcess
from repro.simplatform.platform import SimulationPlatform
from repro.util.rng import make_rng

__all__ = [
    "LinearQFunction",
    "ApproximateTrainingConfig",
    "ApproximateTrainingResult",
    "ApproximateQLearningTrainer",
]


class LinearQFunction:
    """``Q(s, a) = w . phi(s, a)`` with hand-crafted recovery features.

    Features (per candidate action ``a`` in state ``s``):

    * bias,
    * one-hot of ``a``,
    * how many times each action was already tried (capped at 3),
    * the attempt index (normalized by the episode cap),
    * the strongest strength already tried (normalized),
    * whether ``a`` repeats an action that already failed.

    Costs are learned in hours (``cost_scale`` seconds per unit) so
    feature and weight magnitudes stay O(1).
    """

    def __init__(
        self,
        action_names: Sequence[str],
        strengths: Mapping[str, int],
        *,
        learning_rate: float = 0.05,
        cost_scale: float = 3_600.0,
        max_actions: int = 20,
    ) -> None:
        if not action_names:
            raise ConfigurationError("action_names must be non-empty")
        if learning_rate <= 0 or learning_rate > 1:
            raise ConfigurationError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        if cost_scale <= 0:
            raise ConfigurationError(
                f"cost_scale must be positive, got {cost_scale}"
            )
        self._actions: Tuple[str, ...] = tuple(action_names)
        self._index: Dict[str, int] = {
            a: i for i, a in enumerate(self._actions)
        }
        self._strengths = dict(strengths)
        self._max_strength = max(self._strengths.values()) or 1
        self._learning_rate = learning_rate
        self._cost_scale = cost_scale
        self._max_actions = max_actions
        count = len(self._actions)
        self._dimension = 1 + count + count + 3
        self._weights = np.zeros(self._dimension)
        self._updates = 0

    # ------------------------------------------------------------------
    @property
    def action_names(self) -> Tuple[str, ...]:
        return self._actions

    @property
    def dimension(self) -> int:
        """Number of parameters (contrast with the table's entry count)."""
        return self._dimension

    @property
    def updates(self) -> int:
        """TD updates applied so far."""
        return self._updates

    def features(self, state: RecoveryState, action_name: str) -> np.ndarray:
        """The feature vector ``phi(s, a)``."""
        if action_name not in self._index:
            raise ConfigurationError(f"unknown action {action_name!r}")
        count = len(self._actions)
        phi = np.zeros(self._dimension)
        phi[0] = 1.0  # bias
        phi[1 + self._index[action_name]] = 1.0
        counts = state.tried_counts()
        for name, tried in counts.items():
            if name in self._index:
                phi[1 + count + self._index[name]] = min(tried, 3) / 3.0
        base = 1 + 2 * count
        phi[base] = state.attempt_count / self._max_actions
        if state.tried:
            strongest = max(
                self._strengths.get(name, 0) for name in state.tried
            )
            phi[base + 1] = strongest / self._max_strength
        phi[base + 2] = 1.0 if counts.get(action_name, 0) > 0 else 0.0
        return phi

    def value(self, state: RecoveryState, action_name: str) -> float:
        """Predicted remaining cost in seconds."""
        phi = self.features(state, action_name)
        return float(self._weights @ phi) * self._cost_scale

    def values_for(self, state: RecoveryState) -> Dict[str, float]:
        """``{action: Q(s, action)}``."""
        return {a: self.value(state, a) for a in self._actions}

    def min_value(self, state: RecoveryState) -> float:
        """``min_a Q(s, a)``; 0 for terminal states."""
        if state.is_terminal:
            return 0.0
        return min(self.values_for(state).values())

    def greedy_action(self, state: RecoveryState) -> Tuple[str, float]:
        """The minimum-Q action (ties by catalog order)."""
        values = self.values_for(state)
        best = min(self._actions, key=lambda a: values[a])
        return best, values[best]

    def update(
        self, state: RecoveryState, action_name: str, target: float
    ) -> float:
        """One TD step toward ``target`` (seconds); returns |delta|."""
        phi = self.features(state, action_name)
        scaled_target = target / self._cost_scale
        prediction = float(self._weights @ phi)
        error = scaled_target - prediction
        # Normalized gradient step keeps the update stable regardless of
        # the feature vector's norm.
        self._weights += (
            self._learning_rate * error * phi / float(phi @ phi)
        )
        self._updates += 1
        return abs(error) * self._cost_scale


@dataclass(frozen=True)
class ApproximateTrainingConfig:
    """Hyper-parameters of the approximate training course."""

    sweeps: int = 200
    episodes_per_sweep: int = 32
    learning_rate: float = 0.05
    temperature: TemperatureSchedule = TemperatureSchedule(
        initial=20_000.0, decay=0.98, floor=50.0
    )
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ConfigurationError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.episodes_per_sweep < 1:
            raise ConfigurationError(
                "episodes_per_sweep must be >= 1, got "
                f"{self.episodes_per_sweep}"
            )


@dataclass(frozen=True)
class ApproximateTrainingResult:
    """One error type's approximate training outcome.

    Attributes
    ----------
    error_type:
        The trained type.
    qfunction:
        The fitted linear Q-function.
    rules:
        Greedy rules along the failure chain, ready for
        :class:`~repro.policies.trained.TrainedPolicy`.
    episodes:
        Episodes replayed.
    """

    error_type: str
    qfunction: LinearQFunction
    rules: Dict[RecoveryState, Tuple[str, float]]
    episodes: int


class ApproximateQLearningTrainer:
    """Train a linear Q-function per error type on the platform.

    Mirrors :class:`~repro.learning.qlearning.QLearningTrainer` with the
    table swapped for a :class:`LinearQFunction`; rule extraction walks
    the greedy failure chain (the approximator handles unseen states by
    generalization rather than by raising, so the chain's depth is the
    platform's action cap).
    """

    def __init__(
        self,
        platform: SimulationPlatform,
        config: Optional[ApproximateTrainingConfig] = None,
    ) -> None:
        self.platform = platform
        self.config = (
            config if config is not None else ApproximateTrainingConfig()
        )

    def _make_qfunction(self) -> LinearQFunction:
        catalog: ActionCatalog = self.platform.catalog
        return LinearQFunction(
            catalog.names(),
            {a.name: a.strength for a in catalog},
            learning_rate=self.config.learning_rate,
            max_actions=self.platform.max_actions,
        )

    def train_type(
        self,
        error_type: str,
        processes: Sequence[RecoveryProcess],
    ) -> ApproximateTrainingResult:
        """Run the approximate training course for one error type."""
        if not processes:
            raise TrainingError(
                f"no training processes for error type {error_type!r}"
            )
        platform = self.platform
        for process in processes:
            if process.error_type != error_type:
                raise TrainingError(
                    f"process of type {process.error_type!r} passed to the "
                    f"training course of {error_type!r}"
                )
        compiled = platform.compiled()
        rows = [platform.process_index(process) for process in processes]
        rng = make_rng(self.config.seed)
        explorer = BoltzmannExplorer(self.config.temperature, rng=rng)
        qfunction = self._make_qfunction()
        batch = min(self.config.episodes_per_sweep, len(processes))
        episodes = 0
        for sweep in range(self.config.sweeps):
            indices = rng.choice(len(processes), size=batch, replace=False)
            for index in indices:
                row = rows[index]
                executed = [0] * compiled.n_actions
                state = RecoveryState.initial(error_type)
                trajectory = []
                while not state.is_terminal:
                    depth = state.attempt_count
                    action_name = platform.forced_action(depth)
                    if action_name is None:
                        values = qfunction.values_for(state)
                        action_name = qfunction.action_names[
                            explorer.select_index(list(values.values()), sweep)
                        ]
                    aid = platform.action_id(action_name)
                    succeeded, cost = compiled.step(row, executed, depth, aid)
                    next_state = state.after(action_name, succeeded)
                    trajectory.append((state, action_name, cost, next_state))
                    state = next_state
                for s, action_name, cost, s_next in reversed(trajectory):
                    target = cost + qfunction.min_value(s_next)
                    qfunction.update(s, action_name, target)
                episodes += 1
        return ApproximateTrainingResult(
            error_type=error_type,
            qfunction=qfunction,
            rules=self.extract_rules(qfunction, error_type),
            episodes=episodes,
        )

    def extract_rules(
        self, qfunction: LinearQFunction, error_type: str
    ) -> Dict[RecoveryState, Tuple[str, float]]:
        """Greedy rules along the failure chain up to the action cap.

        Chains never weaken mid-recovery: under a cheapest-first log the
        required-action multisets are homogeneous, so a weaker follow-up
        cannot fix what the chain has not fixed yet (the same constraint
        the selection tree applies — see
        :class:`~repro.learning.selection_tree.SelectionTreeConfig`).
        """
        catalog = self.platform.catalog
        rules: Dict[RecoveryState, Tuple[str, float]] = {}
        state = RecoveryState.initial(error_type)
        floor = 0
        for _depth in range(self.platform.max_actions - 1):
            values = qfunction.values_for(state)
            eligible = [
                name
                for name in qfunction.action_names
                if catalog[name].strength >= floor
            ]
            action = min(eligible, key=lambda name: values[name])
            rules[state] = (action, values[action])
            floor = max(floor, catalog[action].strength)
            state = state.after(action, healthy=False)
        return rules
