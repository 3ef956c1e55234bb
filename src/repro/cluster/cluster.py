"""Parameters of a simulated cluster run.

:class:`ClusterConfig` sizes the fleet and sets its timing: fault
arrivals, detection and decision latencies, symptom emission and the
paper's action cap.  :func:`repro.cluster.simulate_cluster` runs it on
the vectorized :class:`~repro.cluster.fleet.FleetEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = ["ClusterConfig"]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of a simulated cluster run.

    Attributes
    ----------
    machine_count:
        Number of servers.
    duration:
        Simulated horizon in seconds (fault arrivals stop after this; any
        in-flight recovery is allowed to finish so processes complete).
    mean_time_between_failures:
        Per-machine mean seconds between recovery completion and the next
        fault arrival (exponential).
    detection_delay_mean:
        Mean seconds from first symptom to failure detection.
    decision_delay_mean:
        Mean seconds from an observed action failure to issuing the next
        action (operator/automation latency).
    secondary_symptom_window:
        Secondary symptoms appear within this many seconds of the primary.
    symptom_reemission_probability:
        Chance the fault's symptoms recur after a failed repair action.
    noise_probability:
        Chance a second, overlapping fault strikes at the same time,
        producing the paper's "noisy" multi-error cases (Section 3.1
        filters these; they are ~3.33% of the real log).
    max_actions:
        The paper's ``N``: a recovery process is capped at this many
        actions, the last being forced to the manual repair.
    machine_name_format:
        ``str.format`` pattern for machine names.
    backend:
        Always ``"fleet"``; nothing reads it.  The cluster simulator has
        one engine, :class:`~repro.cluster.fleet.FleetEngine`, which runs
        every fault model, cascading scenarios included.
    """

    machine_count: int = 200
    duration: float = 180 * SECONDS_PER_DAY
    mean_time_between_failures: float = 7.5 * SECONDS_PER_DAY
    detection_delay_mean: float = 180.0
    decision_delay_mean: float = 300.0
    secondary_symptom_window: float = 900.0
    symptom_reemission_probability: float = 0.7
    noise_probability: float = 0.042
    max_actions: int = 20
    machine_name_format: str = "m-{:05d}"
    backend: str = "fleet"

    def __post_init__(self) -> None:
        check_positive("machine_count", self.machine_count)
        check_positive("duration", self.duration)
        check_positive(
            "mean_time_between_failures", self.mean_time_between_failures
        )
        check_non_negative("detection_delay_mean", self.detection_delay_mean)
        check_non_negative("decision_delay_mean", self.decision_delay_mean)
        check_positive("secondary_symptom_window", self.secondary_symptom_window)
        check_probability(
            "symptom_reemission_probability", self.symptom_reemission_probability
        )
        check_probability("noise_probability", self.noise_probability)
        if self.max_actions < 2:
            raise ConfigurationError(
                f"max_actions must be >= 2, got {self.max_actions}"
            )
        if self.backend != "fleet":
            raise ConfigurationError(
                f"backend must be 'fleet', got {self.backend!r}: the "
                "cluster simulator has one engine, FleetEngine"
            )
