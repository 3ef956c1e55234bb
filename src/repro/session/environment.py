"""The environment side of a recovery session.

A session decides; an environment executes.  :class:`Environment` is the
small protocol :func:`~repro.session.driver.drive` couples a session to
— a live-serving executor, a test double, anything that can run one
repair action and report ``(cost, succeeded)``.  The event-driven
cluster simulator does not fit a blocking ``execute`` call and instead
drives :class:`~repro.session.core.RecoverySession` directly across
simulated time.  Counterfactual log replay needs no environment: it
runs on the platform's compiled rows
(:meth:`~repro.simplatform.platform.CompiledReplay.step`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.mdp.state import RecoveryState

__all__ = ["ExecutionResult", "Environment"]


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
