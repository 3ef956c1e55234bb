"""The user-defined policy of the paper's production cluster.

Section 4.1: "The recovery policy used in the real system is user-defined,
which mainly tries the cheapest action enabled by the state."  We model it
as an escalation ladder: each action has a retry budget; the policy picks
the weakest action whose budget is not exhausted, and once everything
below it is spent it requests the manual repair (RMA), which always
succeeds.  This is the class of simple policies (recursively attempt the
remaining cheapest action) the introduction attributes to microreboot-style
systems.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.actions.action import ActionCatalog, default_catalog
from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.base import (
    DecisionBatch,
    Policy,
    PolicyDecision,
    history_codes,
    terminal_state_error,
)

__all__ = ["UserDefinedPolicy", "DEFAULT_RETRY_BUDGETS"]

# How many times the production ladder tries each non-manual action before
# escalating.  Rebooting twice before reimaging mirrors common operator
# practice (transient faults often survive one reboot).
DEFAULT_RETRY_BUDGETS: Mapping[str, int] = {
    "TRYNOP": 1,
    "REBOOT": 2,
    "REIMAGE": 1,
}


class UserDefinedPolicy(Policy):
    """Escalating cheapest-action-first policy with per-action retry budgets.

    Parameters
    ----------
    catalog:
        Action catalog; defaults to the paper's four actions.
    retry_budgets:
        ``{action name: max attempts}`` for non-manual actions.  Actions
        missing from the mapping default to one attempt.  The manual
        (strongest) action has an implicit unlimited budget.  When
        omitted, the defaults apply to whichever of the paper's action
        names exist in the catalog (custom catalogs get one attempt per
        action).
    """

    def __init__(
        self,
        catalog: Optional[ActionCatalog] = None,
        retry_budgets: Optional[Mapping[str, int]] = None,
    ) -> None:
        self._catalog = catalog if catalog is not None else default_catalog()
        if retry_budgets is None:
            budgets = {
                name: budget
                for name, budget in DEFAULT_RETRY_BUDGETS.items()
                if name in self._catalog
            }
        else:
            budgets = dict(retry_budgets)
        for action_name, budget in budgets.items():
            if action_name not in self._catalog:
                raise ConfigurationError(
                    f"retry budget given for unknown action {action_name!r}"
                )
            if budget < 0:
                raise ConfigurationError(
                    f"retry budget for {action_name!r} must be >= 0, got {budget}"
                )
        self._budgets = budgets
        # The ladder's rungs, weakest first: (action name, budget).
        self._ladder = tuple(
            (action.name, self.budget_for(action.name))
            for action in self._catalog.by_strength()
        )
        self._names = tuple(name for name, _ in self._ladder)

    @property
    def name(self) -> str:
        return "user-defined"

    @property
    def catalog(self) -> ActionCatalog:
        """The action catalog this policy escalates through."""
        return self._catalog

    def budget_for(self, action_name: str) -> int:
        """The retry budget of ``action_name`` (manual actions: unbounded)."""
        action = self._catalog[action_name]
        if action.manual:
            return 10**9
        return self._budgets.get(action_name, 1)

    def _rung(self, tried: Tuple[str, ...]) -> int:
        """The ladder position of the action a state with history
        ``tried`` gets.

        The weakest rung whose budget ``tried`` has not spent; once
        every budget is spent, including (impossibly) the manual
        action's, the strongest rung regardless.
        """
        for rung, (name, budget) in enumerate(self._ladder):
            if tried.count(name) < budget:
                return rung
        return len(self._ladder) - 1

    def decide(self, state: RecoveryState) -> PolicyDecision:
        if state.is_terminal:
            raise terminal_state_error(state)
        return PolicyDecision(
            action=self._names[self._rung(state.tried)], source=self.name
        )

    def decide_batch(self, states: Sequence[RecoveryState]) -> DecisionBatch:
        """Decide every state by the ladder rule, as columns.

        The rung reads only the history, so it is computed once per
        distinct history.  The action vocabulary is the ladder, weakest
        first; no row has an estimate and every row is a hit.  A
        terminal state raises the
        :class:`~repro.errors.ConfigurationError` ``decide`` raises.
        """
        rungs, of_row = history_codes(states, self._rung)
        count = len(states)
        return DecisionBatch(
            hit=np.ones(count, dtype=bool),
            action_ids=np.array(rungs, dtype=np.intp)[of_row],
            actions=self._names,
            costs=np.zeros(count, dtype=np.float64),
            estimated=np.zeros(count, dtype=bool),
            source_ids=np.zeros(count, dtype=np.intp),
            sources=(self.name,),
        )
