"""Load generation: simulated query storms against a decision server.

Two storm shapes, both deterministic under a seed:

* **Synthetic storm** — :func:`storm_states` samples lookup states
  straight from the deployed rule table (plus a controlled fraction of
  guaranteed-unknown states, to exercise the fallback path) and
  :func:`run_storm` fires them at the server in micro-batches, timing
  each call.  This isolates pure serving throughput and latency.
* **Fleet storm** — :func:`fleet_storm` plugs the server into the
  vectorized fleet engine through :class:`ServerBackedPolicy`, so every
  decide wave of a simulated fleet becomes a batched query: the cluster
  simulator doubles as the load generator, with arrival patterns shaped
  by actual fault dynamics instead of a synthetic distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.actions.action import ActionCatalog, default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.cluster.fleet import FleetEngine
from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch, Policy, PolicyDecision
from repro.policies.trained import TrainedPolicy
from repro.serving.server import DecisionServer
from repro.serving.telemetry import LatencyRecorder
from repro.util.rng import derive_rng

__all__ = [
    "ServerBackedPolicy",
    "StormReport",
    "default_storm_faults",
    "storm_states",
    "run_storm",
    "fleet_storm",
]

_DAY = 86_400.0

#: Error-type prefix used for guaranteed-unknown storm queries; no
#: mined error type carries it (mined types come from log symptoms).
_UNKNOWN_PREFIX = "error:__storm-unknown-"


def storm_states(
    policy: TrainedPolicy,
    n_queries: int,
    *,
    unknown_fraction: float = 0.1,
    seed: int = 0,
) -> List[RecoveryState]:
    """Sample a deterministic stream of lookup states for a storm.

    Known states are drawn uniformly (with replacement) from the
    policy's own rule table, by row in key order, so a table and its
    JSON and binary copies send the same storm.  ``unknown_fraction``
    of the stream is replaced by states no trained policy can handle,
    so the fallback path is exercised at a controlled rate.  The
    interleaving is a seeded permutation — same seed, same storm.
    """
    if n_queries < 0:
        raise ConfigurationError(f"n_queries must be >= 0, got {n_queries}")
    if not 0.0 <= unknown_fraction <= 1.0:
        raise ConfigurationError(
            f"unknown_fraction must be in [0, 1], got {unknown_fraction}"
        )
    rng = derive_rng(seed, "serving.storm")
    n_unknown = int(round(n_queries * unknown_fraction))
    rule_count = len(policy)
    if rule_count == 0:
        n_unknown = n_queries
    n_known = n_queries - n_unknown

    states: List[RecoveryState] = []
    if n_known:
        rows = rng.integers(0, rule_count, size=n_known)
        states.extend(policy.state_at(int(row)) for row in rows)
    for i in range(n_unknown):
        states.append(
            RecoveryState.initial(f"{_UNKNOWN_PREFIX}{i % 17}")
        )
    if states:
        order = rng.permutation(len(states))
        states = [states[int(i)] for i in order]
    return states


@dataclass(frozen=True)
class StormReport:
    """What one storm cost and how the server answered it.

    Latencies are per ``decide_batch`` call, in seconds; throughput is
    decisions per second aggregated over the timed calls.
    """

    decisions: int
    batches: int
    batch_size: int
    fallbacks: int
    decisions_per_second: float
    p50_latency_s: float
    p99_latency_s: float
    versions: Tuple[int, ...]

    @property
    def fallback_rate(self) -> float:
        if self.decisions == 0:
            return 0.0
        return self.fallbacks / self.decisions

    def render(self) -> str:
        lines = [
            f"decisions served:    {self.decisions:,} "
            f"({self.batches:,} batches of <= {self.batch_size:,})",
            f"throughput:          {self.decisions_per_second:,.0f} "
            "decisions/s",
            f"batch latency:       p50 {self.p50_latency_s * 1e6:,.0f} us, "
            f"p99 {self.p99_latency_s * 1e6:,.0f} us",
            f"fallback rate:       {self.fallback_rate:.2%} "
            f"({self.fallbacks:,} decisions)",
            "policy generations:  "
            + ", ".join(f"v{v}" for v in self.versions),
        ]
        return "\n".join(lines)


def run_storm(
    server: DecisionServer,
    states: Sequence[RecoveryState],
    *,
    batch_size: int = 1024,
    recorder: Optional[LatencyRecorder] = None,
) -> StormReport:
    """Fire ``states`` at the server in order, ``batch_size`` at a time."""
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    if recorder is None:
        recorder = LatencyRecorder()
    fallbacks = 0
    batches = 0
    versions: List[int] = []
    for start in range(0, len(states), batch_size):
        chunk = states[start : start + batch_size]
        with recorder.observe(len(chunk)):
            decisions = server.decide_batch(chunk)
        batches += 1
        fallbacks += int(np.count_nonzero(decisions.fell_back))
        version = decisions.version
        if not versions or versions[-1] != version:
            versions.append(version)
    return StormReport(
        decisions=len(states),
        batches=batches,
        batch_size=batch_size,
        fallbacks=fallbacks,
        decisions_per_second=recorder.decisions_per_second(),
        p50_latency_s=recorder.percentile(0.50),
        p99_latency_s=recorder.percentile(0.99),
        versions=tuple(versions),
    )


class ServerBackedPolicy(Policy):
    """A :class:`~repro.policies.base.Policy` that queries a server.

    Adapts the decision service back into the policy protocol so the
    fleet engine (or any wave loop) can be pointed at a live
    server: each lockstep decide wave becomes one micro-batched
    ``decide_batch`` query.  The server's fallback routing makes this
    policy proper — it never raises
    :class:`~repro.errors.UnhandledStateError`.
    """

    batch_safe = True

    def __init__(self, server: DecisionServer) -> None:
        self._server = server

    @property
    def name(self) -> str:
        return "served"

    @property
    def server(self) -> DecisionServer:
        return self._server

    def decide(self, state: RecoveryState) -> PolicyDecision:
        served = self._server.decide(state)
        return PolicyDecision(
            action=served.action,
            source=served.source,
            expected_cost=served.expected_cost,
        )

    def decide_batch(self, states: Sequence[RecoveryState]) -> DecisionBatch:
        """One server batch; its decision columns are the answer."""
        return self._server.decide_batch(states).decisions


def default_storm_faults() -> FaultCatalog:
    """A compact fault catalog for fleet-storm load generation."""
    return FaultCatalog(
        [
            FaultType(
                name="transient",
                primary_symptom="error:Transient",
                cure_probabilities={"TRYNOP": 0.7, "REBOOT": 0.95},
                weight=3.0,
            ),
            FaultType(
                name="hard",
                primary_symptom="error:Hard",
                secondary_symptoms=("warn:Side",),
                cure_probabilities={"REIMAGE": 0.95},
                weight=1.0,
            ),
        ]
    )


@dataclass(frozen=True)
class FleetStormResult:
    """Serving-side accounting of one fleet-engine storm."""

    machines: int
    days: float
    processes: int
    log_entries: int
    decisions: int
    fallbacks: int
    versions: Dict[int, int]


def fleet_storm(
    server: DecisionServer,
    *,
    machines: int,
    days: float,
    seed: int = 11,
    catalog: Optional[ActionCatalog] = None,
    faults: Optional[FaultCatalog] = None,
    mean_time_between_failures_days: float = 7.5,
) -> FleetStormResult:
    """Drive the server with a simulated fleet's real decide waves.

    Runs the vectorized fleet engine with every recovery decision routed
    through ``server``; the engine's lockstep waves are exactly the
    micro-batched query storm a fleet of ``machines`` machines would
    produce over ``days`` simulated days.
    """
    from repro.util.rng import RngStreams

    catalog = catalog if catalog is not None else default_catalog()
    faults = faults if faults is not None else default_storm_faults()
    decisions_before = server.decision_count
    fallbacks_before = server.fallback_count
    by_version_before = server.decisions_by_version()
    engine = FleetEngine(
        ClusterConfig(
            machine_count=machines,
            duration=days * _DAY,
            mean_time_between_failures=mean_time_between_failures_days
            * _DAY,
        ),
        faults,
        ServerBackedPolicy(server),
        catalog,
        RngStreams(seed),
    )
    result = engine.run()
    by_version = server.decisions_by_version()
    return FleetStormResult(
        machines=machines,
        days=days,
        processes=result.process_count,
        log_entries=result.entry_count,
        decisions=server.decision_count - decisions_before,
        fallbacks=server.fallback_count - fallbacks_before,
        versions={
            version: count - by_version_before.get(version, 0)
            for version, count in by_version.items()
            if count - by_version_before.get(version, 0) > 0
        },
    )
