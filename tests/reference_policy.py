"""The dict-keyed trained policy, kept as a test-only reference.

This is the rule table :class:`~repro.policies.trained.TrainedPolicy`
was before it became the packed key table, kept verbatim apart from its
name.  The hypothesis properties in ``test_policies_binary.py`` compare
the packed table — built in memory, loaded from JSON and memory-mapped
from a binary container — with it on every rule and probe state.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.base import (
    DecisionBatch,
    Policy,
    PolicyDecision,
    terminal_state_error,
)
from repro.policies.trained import no_rule_error

__all__ = ["ReferenceTrainedPolicy"]

Rule = Tuple[str, float]
"""``(action name, expected remaining cost)``."""


class ReferenceTrainedPolicy(Policy):
    """Greedy policy over extracted state-action rules.

    Parameters
    ----------
    rules:
        ``{state: (action, expected cost)}``.  Terminal states must not
        appear.
    label:
        Report name; defaults to ``"trained"``.
    """

    def __init__(
        self,
        rules: Mapping[RecoveryState, Rule],
        label: str = "trained",
    ) -> None:
        actions = set()
        for state, (action, _cost) in rules.items():
            if state.is_terminal:
                raise ConfigurationError(
                    f"rule given for terminal state {state}"
                )
            if not action:
                raise ConfigurationError(f"empty action in rule for {state}")
            actions.add(action)
        self._rules: Dict[RecoveryState, Rule] = dict(rules)
        self._label = label
        # The action vocabulary of decide_batch's columns.
        self._actions = tuple(sorted(actions))
        self._action_ids = {name: i for i, name in enumerate(self._actions)}

    @property
    def name(self) -> str:
        return self._label

    @property
    def rules(self) -> Mapping[RecoveryState, Rule]:
        """The underlying rule table (read-only view semantics)."""
        return dict(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def handles(self, state: RecoveryState) -> bool:
        """Whether a rule exists for ``state``."""
        return state in self._rules

    def error_types(self) -> Tuple[str, ...]:
        """Error types for which at least one rule exists."""
        return tuple(sorted({s.error_type for s in self._rules}))

    def expected_cost(self, state: RecoveryState) -> Optional[float]:
        """The rule's predicted remaining cost, if the state is handled."""
        rule = self._rules.get(state)
        return rule[1] if rule is not None else None

    def decide(self, state: RecoveryState) -> PolicyDecision:
        if state.is_terminal:
            raise terminal_state_error(state)
        rule = self._rules.get(state)
        if rule is None:
            raise no_rule_error(state)
        action, cost = rule
        return PolicyDecision(action=action, source=self.name, expected_cost=cost)

    def decide_batch(self, states: Sequence[RecoveryState]) -> DecisionBatch:
        """One rule-table pass over a whole wave of concurrent states."""
        rules = self._rules
        action_ids = self._action_ids
        hit: List[bool] = []
        rows: List[int] = []
        costs: List[float] = []
        for state in states:
            if state.is_terminal:
                raise terminal_state_error(state)
            rule = rules.get(state)
            if rule is None:
                hit.append(False)
                rows.append(0)
                costs.append(0.0)
            else:
                hit.append(True)
                rows.append(action_ids[rule[0]])
                costs.append(rule[1])
        found = np.array(hit, dtype=bool)
        return DecisionBatch(
            hit=found,
            action_ids=np.array(rows, dtype=np.intp),
            actions=self._actions,
            costs=np.array(costs, dtype=np.float64),
            estimated=found,
            source_ids=np.zeros(len(found), dtype=np.intp),
            sources=(self.name,),
            miss=lambda row: no_rule_error(states[row]),
        )
