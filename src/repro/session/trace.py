"""Structured per-step episode traces and the observer hook they feed.

Every episode loop records one :class:`StepTrace` per executed action
and closes the episode with an :class:`EpisodeTrace`.  Log replay,
policy evaluation and the trainer's exploration loop run on integer ids
and build the trace from the ids they recorded, only when a recorder is
attached; the fleet engine builds its traces from its step columns.
The schema is the single observability record the ROADMAP's
serving-scale direction needs: uniform across origins, so a dashboard
aggregating "cost per step by error type" reads training, evaluation
and production recovery identically.

:class:`EpisodeTelemetry` is the hook interface; the standard recorder
(:class:`~repro.learning.telemetry.EpisodeRecorder`) lives next to the
training telemetry so all observability plumbing shares one module.
Hooks are strictly observers: they receive immutable traces and must
not influence the episode, so attaching telemetry never changes
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["StepTrace", "EpisodeTrace", "EpisodeTelemetry"]

#: Decision provenance recorded when the ``N``-action cap, not the
#: policy, chose the action.
FORCED_SOURCE = "forced:cap"


@dataclass(frozen=True)
class StepTrace:
    """One executed action inside a recovery session.

    Attributes
    ----------
    step:
        0-based position of the action within the episode.
    attempt_count:
        Actions already executed when this one was chosen (equals
        ``step`` — kept explicit because the ``N``-cap rule is stated in
        terms of it).
    action:
        The executed repair-action name.
    source:
        Decision provenance: the policy's ``PolicyDecision.source``, or
        ``"forced:cap"`` when the action cap forced the manual repair.
    forced:
        Whether the ``N``-action cap forced this action.
    cost:
        Seconds charged for the attempt by the environment.
    succeeded:
        Whether the action cured the process.
    matched_log:
        Replay environments: whether the proposal coincided with the
        logged action at this position.  ``None`` where the concept does
        not apply (live cluster recovery).
    expected_cost:
        The policy's own estimate of remaining cost, when it had one.
    """

    step: int
    attempt_count: int
    action: str
    source: str
    forced: bool
    cost: float
    succeeded: bool
    matched_log: Optional[bool] = None
    expected_cost: Optional[float] = None


@dataclass(frozen=True)
class EpisodeTrace:
    """Everything observable about one finished recovery session.

    Attributes
    ----------
    origin:
        Which loop ran the episode (``"replay"``, ``"evaluation"``,
        ``"training"``, ``"cluster"``, ...).
    error_type:
        The session's error type.
    initial_cost:
        Detection-segment seconds charged before the first action.
    steps:
        Per-action records, in execution order.
    handled:
        False when the policy met a state it had no rule for and the
        session was aborted mid-episode.
    forced_manual:
        Whether the ``N``-action cap forced the final manual repair.
    """

    origin: str
    error_type: str
    initial_cost: float
    steps: Tuple[StepTrace, ...]
    handled: bool
    forced_manual: bool

    @property
    def total_cost(self) -> float:
        """Initial cost plus step costs, accumulated in step order."""
        total = self.initial_cost
        for step in self.steps:
            total += step.cost
        return total

    def actions(self) -> Tuple[str, ...]:
        """The executed action sequence."""
        return tuple(step.action for step in self.steps)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def succeeded(self) -> bool:
        """Whether the episode ended in a cure (handled and terminal)."""
        return bool(self.steps) and self.steps[-1].succeeded


class EpisodeTelemetry:
    """Hook interface receiving one :class:`EpisodeTrace` per episode.

    The base class is a no-op; subclass and override :meth:`on_episode`.
    Hooks must treat the trace as read-only and must not raise — they
    observe episodes, they never steer them.
    """

    def on_episode(self, trace: EpisodeTrace) -> None:
        """A recovery session finished (cured, capped-out or aborted)."""
