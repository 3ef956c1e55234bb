"""Unified recovery-session core shared by every episode loop.

One state machine (:class:`RecoverySession`), one cap rule
(:func:`forced_action`), one trace schema (:class:`EpisodeTrace`), and
synchronous drivers (:func:`drive`, :func:`drive_batch`) behind a small
:class:`Environment` protocol.  Log replay, policy evaluation and online
cluster recovery execute through this package; the trainer's id-indexed
episode loop shares its cap rule and trace schema.
"""

from repro.session.core import RecoverySession, SessionDecision, forced_action
from repro.session.driver import EpisodeOutcome, drive, drive_batch
from repro.session.environment import (
    Environment,
    ExecutionResult,
    ReplayEnvironment,
)
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
    "drive_batch",
    "Environment",
    "ExecutionResult",
    "ReplayEnvironment",
    "FORCED_SOURCE",
    "EpisodeTelemetry",
    "EpisodeTrace",
    "StepTrace",
]
