"""Recovery policies: state-action rules that schedule repair actions.

* :class:`UserDefinedPolicy` — the escalating cheapest-action-first rule
  the paper's production cluster ran (Section 4.1).
* :class:`TrainedPolicy` — greedy over a learned Q-function; raises
  :class:`~repro.errors.UnhandledStateError` on states never explored.
* :class:`HybridPolicy` — the trained policy with automatic fallback to
  the user-defined one (Section 3.4).
* :class:`DecisionBatch` — every policy's ``decide_batch`` answer, held
  as columns.
* static baselines for ablations (always cheapest, always strongest,
  uniformly random, fixed sequence).
"""

from repro.policies.base import DecisionBatch, Policy, PolicyDecision
from repro.policies.binary import ArrayTrainedPolicy
from repro.policies.hybrid import HybridPolicy
from repro.policies.index_policy import action_indices, design_index_policy
from repro.policies.serialization import (
    load_policy,
    load_policy_binary,
    load_qtable,
    save_policy,
    save_policy_binary,
    save_qtable,
)
from repro.policies.static import (
    AlwaysCheapestPolicy,
    AlwaysStrongestPolicy,
    FixedSequencePolicy,
    RandomPolicy,
)
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy

__all__ = [
    "save_policy",
    "load_policy",
    "save_policy_binary",
    "load_policy_binary",
    "ArrayTrainedPolicy",
    "save_qtable",
    "load_qtable",
    "action_indices",
    "design_index_policy",
    "DecisionBatch",
    "Policy",
    "PolicyDecision",
    "UserDefinedPolicy",
    "TrainedPolicy",
    "HybridPolicy",
    "AlwaysCheapestPolicy",
    "AlwaysStrongestPolicy",
    "RandomPolicy",
    "FixedSequencePolicy",
]
