"""Tests for the user-defined cheapest-first ladder policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions import default_catalog
from repro.actions.action import ActionCatalog, RepairAction
from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.user_defined import DEFAULT_RETRY_BUDGETS, UserDefinedPolicy

CATALOG = default_catalog()


def walk(policy, error_type="error:X", steps=8):
    """The action chain the policy follows while everything fails."""
    state = RecoveryState.initial(error_type)
    chain = []
    for _ in range(steps):
        action = policy.decide(state).action
        chain.append(action)
        state = state.after(action, healthy=False)
    return chain


class TestLadder:
    def test_default_escalation_order(self):
        policy = UserDefinedPolicy(CATALOG)
        assert walk(policy, steps=5) == [
            "TRYNOP",
            "REBOOT",
            "REBOOT",
            "REIMAGE",
            "RMA",
        ]

    def test_manual_repeats_forever(self):
        policy = UserDefinedPolicy(CATALOG)
        chain = walk(policy, steps=8)
        assert chain[4:] == ["RMA"] * 4

    def test_custom_budgets(self):
        policy = UserDefinedPolicy(
            CATALOG, retry_budgets={"TRYNOP": 2, "REBOOT": 1, "REIMAGE": 1}
        )
        assert walk(policy, steps=5) == [
            "TRYNOP",
            "TRYNOP",
            "REBOOT",
            "REIMAGE",
            "RMA",
        ]

    def test_zero_budget_skips_action(self):
        policy = UserDefinedPolicy(
            CATALOG, retry_budgets={"TRYNOP": 0, "REBOOT": 1, "REIMAGE": 1}
        )
        assert walk(policy, steps=3) == ["REBOOT", "REIMAGE", "RMA"]

    def test_missing_budget_defaults_to_one(self):
        policy = UserDefinedPolicy(CATALOG, retry_budgets={})
        assert walk(policy, steps=4) == [
            "TRYNOP",
            "REBOOT",
            "REIMAGE",
            "RMA",
        ]

    def test_decision_source_labelled(self):
        policy = UserDefinedPolicy(CATALOG)
        decision = policy.decide(RecoveryState.initial("error:X"))
        assert decision.source == "user-defined"

    def test_budget_for_manual_is_unbounded(self):
        policy = UserDefinedPolicy(CATALOG)
        assert policy.budget_for("RMA") > 10**6
        assert policy.budget_for("REBOOT") == DEFAULT_RETRY_BUDGETS["REBOOT"]

    def test_terminal_state_rejected(self):
        policy = UserDefinedPolicy(CATALOG)
        terminal = RecoveryState("error:X", True, ("RMA",))
        with pytest.raises(ConfigurationError):
            policy.decide(terminal)

    def test_unknown_budget_action_rejected(self):
        with pytest.raises(ConfigurationError):
            UserDefinedPolicy(CATALOG, retry_budgets={"FSCK": 1})

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            UserDefinedPolicy(CATALOG, retry_budgets={"TRYNOP": -1})

    def test_statelessness_across_types(self):
        policy = UserDefinedPolicy(CATALOG)
        assert walk(policy, "error:A", 2) == walk(policy, "error:B", 2)


NAMES = ["A", "B", "C", "D", "E", "F"]


@st.composite
def ladders(draw):
    """A random catalog (strongest manual), budgets and state batch."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    catalog = ActionCatalog(
        [
            RepairAction(
                name,
                strength,
                manual=strength == len(names) - 1 or draw(st.booleans()),
            )
            for strength, name in enumerate(names)
        ]
    )
    budgets = draw(
        st.none()
        | st.dictionaries(st.sampled_from(names), st.integers(0, 3))
    )
    # Histories may name actions outside the catalog.
    history = st.lists(st.sampled_from(NAMES + ["FSCK"]), max_size=20)
    states = draw(
        st.lists(
            st.builds(
                lambda tried, healthy: RecoveryState(
                    "error:X", healthy and bool(tried), tuple(tried)
                ),
                history,
                st.integers(0, 15).map(lambda roll: roll == 0),
            ),
            max_size=12,
        )
    )
    return UserDefinedPolicy(catalog, retry_budgets=budgets), states


class TestDecideBatch:
    @settings(max_examples=300, deadline=None)
    @given(ladders())
    def test_batch_rows_equal_decide(self, ladder):
        policy, states = ladder
        terminal = [state for state in states if state.is_terminal]
        if not terminal:
            assert list(policy.decide_batch(states)) == [
                policy.decide(state) for state in states
            ]
            return
        with pytest.raises(ConfigurationError) as from_batch:
            policy.decide_batch(states)
        with pytest.raises(ConfigurationError) as from_state:
            policy.decide(terminal[0])
        assert str(from_batch.value) == str(from_state.value)
