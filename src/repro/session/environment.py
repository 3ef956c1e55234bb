"""The environment side of a recovery session.

A session decides; an environment executes.  :class:`Environment` is the
small protocol the synchronous drivers couple a session to — the replay
platform, a future live-serving executor, anything that can run one
repair action and report ``(cost, succeeded)``.  The event-driven
cluster simulator does not fit a blocking ``execute`` call and instead
drives :class:`~repro.session.core.RecoverySession` directly across
simulated time; everything else adapts here.

:class:`ReplayEnvironment` is the adapter for counterfactual log replay
(one :class:`~repro.recoverylog.process.RecoveryProcess` on a
:class:`~repro.simplatform.platform.SimulationPlatform`), used by
``SimulationPlatform.replay``, the policy evaluator and the rolling
retrainer's deployed path.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.mdp.state import RecoveryState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.recoverylog.process import RecoveryProcess
    from repro.simplatform.platform import SimulationPlatform

__all__ = ["ExecutionResult", "Environment", "ReplayEnvironment"]


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
    next_state:
        The successor state when the environment already computed it
        (saves the session rebuilding an identical one); ``None`` lets
        the session derive ``state.after(action, succeeded)``.
    """

    cost: float
    succeeded: bool
    matched_log: Optional[bool] = None
    next_state: Optional[RecoveryState] = None


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


class ReplayEnvironment(Environment):
    """Counterfactual replay of one recovery process on a platform.

    A thin adapter: success, cost and log-matching all come from
    :meth:`SimulationPlatform.step`, so a session driven through this
    environment executes exactly the platform's replay semantics.
    """

    __slots__ = ("_platform", "_process")

    def __init__(
        self, platform: "SimulationPlatform", process: "RecoveryProcess"
    ) -> None:
        self._platform = platform
        self._process = process

    @property
    def platform(self) -> "SimulationPlatform":
        return self._platform

    @property
    def process(self) -> "RecoveryProcess":
        return self._process

    @property
    def error_type(self) -> str:
        return self._process.error_type

    @property
    def max_actions(self) -> int:
        return self._platform.max_actions

    @property
    def forced_action_name(self) -> str:
        return self._platform.forced_action_name

    def initial_cost(self) -> float:
        return self._platform.initial_cost(self._process)

    def execute(
        self, state: RecoveryState, action_name: str
    ) -> ExecutionResult:
        outcome = self._platform.step(self._process, state, action_name)
        return ExecutionResult(
            cost=outcome.cost,
            succeeded=outcome.succeeded,
            matched_log=outcome.matched_log,
            next_state=outcome.next_state,
        )
