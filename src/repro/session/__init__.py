"""Unified recovery-session core shared by every episode loop.

One state machine (:class:`RecoverySession`), one cap rule
(:func:`forced_action`), one trace schema (:class:`EpisodeTrace`), a
synchronous driver (:func:`drive`) behind a small :class:`Environment`
protocol, and the lockstep decision wave
(:func:`~repro.session.driver.decide_wave`).  Online recovery and the
cluster simulators execute through sessions.  Log replay, policy
evaluation and training run on the platform's compiled rows instead;
they share the cap rule and the trace schema, and replay decides
through the wave.
"""

from repro.session.core import RecoverySession, SessionDecision, forced_action
from repro.session.driver import EpisodeOutcome, drive
from repro.session.environment import Environment, ExecutionResult
from repro.session.trace import (
    FORCED_SOURCE,
    EpisodeTelemetry,
    EpisodeTrace,
    StepTrace,
)

__all__ = [
    "RecoverySession",
    "SessionDecision",
    "forced_action",
    "EpisodeOutcome",
    "drive",
    "Environment",
    "ExecutionResult",
    "FORCED_SOURCE",
    "EpisodeTelemetry",
    "EpisodeTrace",
    "StepTrace",
]
