"""The recovery decision service.

The paper's end product is a trained/hybrid policy that an online
recovery component queries on every detected error (Figure 1's dashed
arrow).  This package is that online half at fleet scale: a
:class:`DecisionServer` loads a policy (ideally the memory-mapped
binary form from :mod:`repro.policies.binary`), answers single
``decide`` and micro-batched ``decide_batch`` lookups, degrades to the
user-defined fallback on unknown states — the paper's hybrid semantics
— and hot-reloads atomically whenever the rolling retrainer publishes
a new version.  :mod:`repro.serving.loadgen` turns the fleet simulator
into the load generator for a simulated million-machine query storm.
"""

from repro.serving.loadgen import (
    FleetStormResult,
    ServerBackedPolicy,
    StormReport,
    default_storm_faults,
    fleet_storm,
    run_storm,
    storm_states,
)
from repro.serving.server import (
    DecisionServer,
    PolicyVersion,
    ServedBatch,
    ServedDecision,
)

__all__ = [
    "DecisionServer",
    "PolicyVersion",
    "ServedBatch",
    "ServedDecision",
    "ServerBackedPolicy",
    "StormReport",
    "FleetStormResult",
    "default_storm_faults",
    "storm_states",
    "run_storm",
    "fleet_storm",
]
