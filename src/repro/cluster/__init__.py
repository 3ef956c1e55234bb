"""The cluster simulator.

This substrate stands in for the paper's production cluster (thousands of
servers over half a year).  It realizes the Figure 1 framework: machines
develop faults that emit symptoms; an event monitor records everything to
the recovery log; a fault detector notices failures and asks the recovery
manager, which consults the active policy and applies repair actions until
the machine is healthy again.  :func:`simulate_cluster` runs the
vectorized :class:`~repro.cluster.fleet.FleetEngine`, falling back to the
event-driven :class:`~repro.cluster.cluster.ClusterSimulator` for
cascading scenarios and ``batch_safe=False`` policies.

The learner never sees this package's ground-truth
:class:`~repro.cluster.faults.FaultType` objects — only the log the
monitor writes, preserving the paper's information barrier.
"""

from repro.cluster.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.detector import FaultDetector
from repro.cluster.engine import SimulationEngine
from repro.cluster.faults import FaultCatalog, FaultType, validate_fault_catalog
from repro.cluster.fleet import FleetEngine, FleetResult, simulate_cluster
from repro.cluster.machine import Machine, MachineState
from repro.cluster.monitor import EventMonitor
from repro.cluster.randomness import MachineRandomSource

__all__ = [
    "SimulationEngine",
    "FaultType",
    "FaultCatalog",
    "validate_fault_catalog",
    "Machine",
    "MachineState",
    "EventMonitor",
    "FaultDetector",
    "ClusterConfig",
    "ClusterSimulator",
    "FleetEngine",
    "FleetResult",
    "simulate_cluster",
    "MachineRandomSource",
]
