"""Greedy rule extraction from trained Q tables.

The generated recovery policy is the set of state-action rules choosing,
in each state the training course visited, the action of minimal Q — the
expected shortest remaining recovery time (Section 2.2).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState

__all__ = ["extract_greedy_rules", "merge_rules"]

Rule = Tuple[str, float]


def extract_greedy_rules(qtable: QTable) -> Dict[RecoveryState, Rule]:
    """``{state: (argmin-Q action, its Q value)}`` over visited states.

    Only actions that were actually visited participate (never-tried
    actions still carry the optimistic initial value).  States with no
    visited action yield no rule — they become the trained policy's
    unhandled cases.
    """
    rules: Dict[RecoveryState, Rule] = {}
    for state in qtable.states():
        greedy = qtable.greedy_action(state)
        if greedy is not None:
            rules[state] = greedy
    return rules


def merge_rules(
    *rule_tables: Mapping[RecoveryState, Rule],
) -> Dict[RecoveryState, Rule]:
    """Union per-type rule tables into one policy table.

    Error types are disjoint across tables by construction (states carry
    their type), so collisions only arise from merging two tables for the
    same type; the later table wins, matching retraining semantics.
    """
    merged: Dict[RecoveryState, Rule] = {}
    for table in rule_tables:
        merged.update(table)
    return merged
