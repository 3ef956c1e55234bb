"""Tests for the tabular Q-function.

The training loop reads by interned state id; :func:`sid` interns a
state so the id-keyed reads can be checked against named states.
"""

import math

import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState

ACTIONS = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]
S0 = RecoveryState.initial("error:X")
S1 = S0.after("TRYNOP", False)
TERMINAL = S0.after("REBOOT", True)


def sid(table, state):
    """The table's row id for ``state``."""
    return table.index.intern(state)


class TestConstruction:
    def test_empty_actions_rejected(self):
        with pytest.raises(ConfigurationError):
            QTable([])

    def test_duplicate_actions_rejected(self):
        with pytest.raises(ConfigurationError):
            QTable(["A", "A"])

    def test_bad_alpha_floor_rejected(self):
        with pytest.raises(ConfigurationError):
            QTable(ACTIONS, alpha_floor=1.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_initial_value_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            QTable(ACTIONS, initial_value=value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_restore_rejects_non_finite_value(self, value):
        table = QTable(ACTIONS)
        with pytest.raises(TrainingError, match="finite"):
            table.restore(S0, "REBOOT", value, 1)
        assert table.greedy_action(S0) is None


class TestUpdates:
    def test_first_update_sets_target(self):
        table = QTable(ACTIONS)
        table.update(S0, "TRYNOP", 100.0)
        assert table.value(S0, "TRYNOP") == pytest.approx(100.0)

    def test_equation_six_is_running_average(self):
        table = QTable(ACTIONS)
        for target in (100.0, 200.0, 300.0):
            table.update(S0, "TRYNOP", target)
        assert table.value(S0, "TRYNOP") == pytest.approx(200.0)

    def test_visit_counts(self):
        table = QTable(ACTIONS)
        table.update(S0, "TRYNOP", 1.0)
        table.update(S0, "TRYNOP", 1.0)
        table.update(S0, "REBOOT", 1.0)
        assert table.visit_count(S0, "TRYNOP") == 2
        assert sum(table.visit_count(S0, a) for a in ACTIONS) == 3

    def test_alpha_floor_weights_recent_targets(self):
        flat = QTable(ACTIONS, alpha_floor=0.0)
        recency = QTable(ACTIONS, alpha_floor=0.5)
        for table in (flat, recency):
            for target in [1000.0] * 10 + [0.0] * 10:
                table.update(S0, "TRYNOP", target)
        assert recency.value(S0, "TRYNOP") < flat.value(S0, "TRYNOP")

    def test_update_returns_absolute_change(self):
        table = QTable(ACTIONS)
        assert table.update(S0, "TRYNOP", 50.0) == pytest.approx(50.0)
        assert table.update(S0, "TRYNOP", 50.0) == pytest.approx(0.0)

    def test_terminal_update_rejected(self):
        table = QTable(ACTIONS)
        with pytest.raises(TrainingError):
            table.update(TERMINAL, "TRYNOP", 1.0)

    def test_unknown_action_rejected(self):
        table = QTable(ACTIONS)
        with pytest.raises(ConfigurationError):
            table.update(S0, "FSCK", 1.0)

    def test_episode_updates_deepest_step_first(self):
        table = QTable(ACTIONS)
        cured = S1.after("REBOOT", True)
        largest = table.apply_episode(
            [sid(table, S0), sid(table, S1)],
            [0, 1],  # TRYNOP fails, then REBOOT cures
            [100.0, 500.0],
            sid(table, cured),
        )
        # S1 is updated first, so S0's target bootstraps from it.
        assert table.value(S1, "REBOOT") == 500.0
        assert table.value(S0, "TRYNOP") == 600.0
        assert largest == 600.0
        assert list(table.states()) == [S1, S0]

    def test_empty_episode_changes_nothing(self):
        table = QTable(ACTIONS)
        assert table.apply_episode([], [], [], sid(table, S0)) == 0.0
        assert len(table) == 0

    def test_episode_through_terminal_state_rejected(self):
        table = QTable(ACTIONS)
        with pytest.raises(TrainingError):
            table.apply_episode(
                [sid(table, TERMINAL)], [0], [1.0], sid(table, S0)
            )


class TestQueries:
    def test_unvisited_value_is_initial(self):
        table = QTable(ACTIONS, initial_value=7.0)
        assert table.value(S0, "RMA") == 7.0

    def test_known_requires_a_visit(self):
        table = QTable(ACTIONS)
        sid(table, S0)  # interning alone does not make a state known
        assert S0 not in set(table.states())
        table.update(S0, "TRYNOP", 1.0)
        assert S0 in set(table.states())

    def test_values_for_covers_all_actions(self):
        table = QTable(ACTIONS)
        table.update(S0, "REBOOT", 5.0)
        row = list(table.q_row(sid(table, S0)))
        assert row == [0.0, 5.0, 0.0, 0.0]  # catalog order

    def test_min_value_over_all_actions(self):
        table = QTable(ACTIONS)
        table.update(S0, "REBOOT", 5.0)
        # Unvisited entries keep the optimistic default in the row.
        assert min(table.q_row(sid(table, S0))) == 0.0

    def test_min_value_terminal_is_zero(self):
        table = QTable(ACTIONS, initial_value=9.0)
        assert table.bootstrap_by_id(sid(table, TERMINAL)) == 0.0

    def test_bootstrap_value_ignores_unvisited(self):
        table = QTable(ACTIONS)
        table.update(S1, "REBOOT", 500.0)
        assert table.bootstrap_by_id(sid(table, S1)) == pytest.approx(500.0)

    def test_bootstrap_value_unvisited_state_is_initial(self):
        table = QTable(ACTIONS, initial_value=3.0)
        assert table.bootstrap_by_id(sid(table, S1)) == 3.0

    def test_greedy_action_only_among_visited(self):
        table = QTable(ACTIONS)
        table.update(S0, "REIMAGE", 10.0)
        table.update(S0, "REBOOT", 20.0)
        action, value = table.greedy_action(S0)
        assert action == "REIMAGE"
        assert value == pytest.approx(10.0)

    def test_greedy_action_none_when_unvisited(self):
        assert QTable(ACTIONS).greedy_action(S0) is None

    def test_greedy_tie_breaks_by_catalog_order(self):
        table = QTable(ACTIONS)
        table.update(S0, "REIMAGE", 10.0)
        table.update(S0, "TRYNOP", 10.0)
        assert table.greedy_action(S0)[0] == "TRYNOP"

    def test_ranked_actions_ascending(self):
        table = QTable(ACTIONS)
        table.update(S0, "RMA", 30.0)
        table.update(S0, "TRYNOP", 10.0)
        table.update(S0, "REBOOT", 20.0)
        names = [a for a, _ in table.ranked_actions(S0)]
        assert names == ["TRYNOP", "REBOOT", "RMA"]

    def test_underexplored_action_least_visited_first(self):
        table = QTable(ACTIONS)
        s0 = sid(table, S0)
        table.update(S0, "TRYNOP", 1.0)
        assert ACTIONS[table.underexplored_by_id(s0, 1)] == "REBOOT"
        for action in ACTIONS:
            table.update(S0, action, 1.0)
        assert table.underexplored_by_id(s0, 1) == -1
        # TRYNOP already has 2 visits; REBOOT (1 visit) is least.
        assert ACTIONS[table.underexplored_by_id(s0, 2)] == "REBOOT"

    def test_underexplored_disabled_with_zero(self):
        table = QTable(ACTIONS)
        assert table.underexplored_by_id(sid(table, S0), 0) == -1

    def test_states_iteration(self):
        table = QTable(ACTIONS)
        table.update(S0, "TRYNOP", 1.0)
        table.update(S1, "REBOOT", 1.0)
        assert set(table.states()) == {S0, S1}
        assert len(table) == 2
