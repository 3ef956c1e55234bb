"""The cluster simulator.

This substrate stands in for the paper's production cluster (thousands of
servers over half a year).  It realizes the Figure 1 framework: machines
develop faults that emit symptoms; the event monitor records everything
to the recovery log; fault detection notices failures and asks the
recovery manager, which consults the active policy and applies repair
actions until the machine is healthy again.  :func:`simulate_cluster`
runs one engine, the vectorized :class:`~repro.cluster.fleet.FleetEngine`,
for every fault model: stationary, drifting, heterogeneous and
cascading.

The learner never sees this package's ground-truth
:class:`~repro.cluster.faults.FaultType` objects — only the log the
monitor writes, preserving the paper's information barrier.
"""

from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType, validate_fault_catalog
from repro.cluster.fleet import FleetEngine, FleetResult, simulate_cluster
from repro.cluster.randomness import MachineRandomSource

__all__ = [
    "FaultType",
    "FaultCatalog",
    "validate_fault_catalog",
    "ClusterConfig",
    "FleetEngine",
    "FleetResult",
    "simulate_cluster",
    "MachineRandomSource",
]
