"""End-to-end trace generation.

:func:`generate_trace` builds the ground-truth fault catalog, runs the
cluster simulator under the user-defined policy, and returns the log plus
provenance.  The downstream learning pipeline must only consume
``GeneratedTrace.log``; the fault catalog is carried along solely for
tests and calibration reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.actions.action import ActionCatalog, default_catalog
from repro.cluster.faults import FaultCatalog
from repro.cluster.fleet import simulate_cluster
from repro.policies.base import Policy
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog.log import RecoveryLog
from repro.scenario.model import FaultModel, ScenarioModel
from repro.scenario.presets import build_scenario_model
from repro.tracegen.catalog_gen import generate_fault_catalog
from repro.tracegen.workload import TraceConfig
from repro.util.rng import RngStreams

__all__ = ["GeneratedTrace", "generate_trace"]


@dataclass(frozen=True)
class GeneratedTrace:
    """A generated recovery log with its provenance.

    Attributes
    ----------
    log:
        The recovery log — the only field the learning pipeline may read.
    fault_catalog:
        Ground truth behind the log: the base (epoch-0) catalog
        (tests/calibration only).
    scenario:
        The concrete scenario model simulated, when the config carried a
        scenario spec; ``None`` for plain stationary traces.
    config:
        The workload configuration that produced the trace.
    policy_name:
        Name of the policy that drove recovery during generation.
    """

    log: RecoveryLog
    fault_catalog: FaultCatalog
    config: TraceConfig
    policy_name: str
    scenario: Optional[ScenarioModel] = None


def generate_trace(
    config: TraceConfig,
    policy: Optional[Policy] = None,
    actions: Optional[ActionCatalog] = None,
) -> GeneratedTrace:
    """Build the ground-truth fault catalog, simulate the cluster and
    return the trace bundle.

    Parameters
    ----------
    config:
        Workload configuration (see :mod:`repro.tracegen.workload`).
    policy:
        Recovery policy driving the simulated cluster; defaults to the
        paper's user-defined cheapest-first ladder.
    actions:
        Action catalog; defaults to the paper's four actions.
    """
    actions = actions if actions is not None else default_catalog()
    policy = policy if policy is not None else UserDefinedPolicy(actions)
    catalog = generate_fault_catalog(config.catalog, config.seed)
    scenario: Optional[ScenarioModel] = None
    faults: FaultModel = catalog
    spec = config.scenario
    if spec is not None and not spec.is_trivial:
        scenario = build_scenario_model(
            catalog,
            spec,
            duration=config.cluster.duration,
            seed=config.seed,
        )
        faults = scenario
    log = simulate_cluster(
        config.cluster, faults, policy, actions, RngStreams(config.seed)
    )
    return GeneratedTrace(
        log=log,
        fault_catalog=catalog,
        config=config,
        policy_name=policy.name,
        scenario=scenario,
    )
