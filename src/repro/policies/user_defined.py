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

from typing import Mapping, Optional

from repro.actions.action import ActionCatalog, default_catalog
from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy, PolicyDecision, terminal_state_error

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

    def decide(self, state: RecoveryState) -> PolicyDecision:
        if state.is_terminal:
            raise terminal_state_error(state)
        counts = state.tried_counts()
        for action in self._catalog.by_strength():
            if counts.get(action.name, 0) < self.budget_for(action.name):
                return PolicyDecision(action=action.name, source=self.name)
        # All budgets exhausted, including (impossibly) the manual action's:
        # escalate to manual repair regardless.
        return PolicyDecision(
            action=self._catalog.strongest.name, source=self.name
        )
