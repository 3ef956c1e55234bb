"""Tests for policy and Q-table persistence."""

import json
import math
import re
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BAD_QTABLE_FIELDS,
    MISTYPED_RECORD_FIELDS,
    set_qtable_field,
)
from repro.errors import LogFormatError
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.serialization import (
    load_policy,
    load_qtable,
    save_policy,
    save_qtable,
)
from repro.policies.trained import TrainedPolicy

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)
ACTIONS = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]


@pytest.fixture
def policy():
    return TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)},
        label="night-shift",
    )


class TestPolicyRoundTrip:
    def test_round_trip_preserves_rules(self, tmp_path, policy):
        path = tmp_path / "policy.json"
        count = save_policy(policy, path)
        assert count == 2
        loaded = load_policy(path)
        assert loaded.rules == policy.rules
        assert loaded.name == "night-shift"

    def test_loaded_policy_decides_identically(self, tmp_path, policy):
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.decide(S0).action == policy.decide(S0).action
        assert loaded.decide(S1).expected_cost == pytest.approx(172800.0)

    def test_file_is_human_auditable(self, tmp_path, policy):
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        payload = json.loads(path.read_text())
        assert payload["format"].startswith("repro/trained-policy")
        assert payload["rules"][0]["error_type"] == "error:X"

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "rules": []}')
        with pytest.raises(LogFormatError, match="format"):
            load_policy(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(LogFormatError, match="JSON"):
            load_policy(path)

    def test_bad_rule_record_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro/trained-policy@1",
                    "rules": [{"error_type": "e", "tried": []}],
                }
            )
        )
        with pytest.raises(LogFormatError, match="bad rule"):
            load_policy(path)

    def _rejects(self, path, match):
        pattern = f"^{re.escape(str(path))}: .*{match}"
        with pytest.raises(LogFormatError, match=pattern):
            load_policy(path)

    def test_non_object_payload_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["repro/trained-policy@1"]')
        self._rejects(path, "expected a policy object, got list")

    def test_non_list_rules_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro/trained-policy@1", "rules": 5}')
        self._rejects(path, "rules must be a list, got int")

    def test_non_utf8_file_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"format": "repro/trained-policy@1", "label": "\xff"}')
        self._rejects(path, "bad JSON: .*utf-8")

    @pytest.mark.parametrize(
        "rule, reason",
        [
            ({"tried": [], "action": ""}, "empty action"),
            (
                {"tried": [f"ACTION-{i}" for i in range(30)], "action": "RMA"},
                "overflows uint64",
            ),
        ],
        ids=["empty-action", "key-space-too-wide"],
    )
    def test_refused_rule_rejected_with_path(self, tmp_path, rule, reason):
        path = tmp_path / "bad.json"
        record = {"error_type": "error:X", "expected_cost": 1.0, **rule}
        path.write_text(
            json.dumps({"format": "repro/trained-policy@1", "rules": [record]})
        )
        self._rejects(path, reason)

    @pytest.mark.parametrize("field, value", MISTYPED_RECORD_FIELDS)
    def test_mistyped_rule_field_rejected_with_path(
        self, tmp_path, policy, field, value
    ):
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        payload = json.loads(path.read_text())
        payload["rules"][0][field] = value
        path.write_text(json.dumps(payload))
        self._rejects(path, f"{field} must be a ")


class TestQTableRoundTrip:
    def _table(self):
        table = QTable(ACTIONS)
        table.update(S0, "TRYNOP", 600.0)
        table.update(S0, "TRYNOP", 800.0)
        table.update(S0, "REIMAGE", 7200.0)
        table.update(S1, "RMA", 172800.0)
        return table

    def test_round_trip_values_and_visits(self, tmp_path):
        table = self._table()
        path = tmp_path / "qtable.json"
        count = save_qtable(table, path)
        assert count == 3
        loaded = load_qtable(path)
        assert loaded.value(S0, "TRYNOP") == pytest.approx(700.0)
        assert loaded.visit_count(S0, "TRYNOP") == 2
        assert loaded.value(S1, "RMA") == pytest.approx(172800.0)

    def test_training_resumes_with_correct_alpha(self, tmp_path):
        table = self._table()
        path = tmp_path / "qtable.json"
        save_qtable(table, path)
        loaded = load_qtable(path)
        # Third visit -> alpha = 1/3; average of 600, 800, 900 = 766.67.
        loaded.update(S0, "TRYNOP", 900.0)
        assert loaded.value(S0, "TRYNOP") == pytest.approx(2300.0 / 3)

    def test_greedy_preserved(self, tmp_path):
        table = self._table()
        path = tmp_path / "qtable.json"
        save_qtable(table, path)
        loaded = load_qtable(path)
        assert loaded.greedy_action(S0) == table.greedy_action(S0)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "x", "actions": [], "entries": []}')
        with pytest.raises(LogFormatError, match="format"):
            load_qtable(path)

    def test_missing_actions_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro/qtable@1", "entries": []}')
        pattern = f"^{re.escape(str(path))}: .*'actions'"
        with pytest.raises(LogFormatError, match=pattern):
            load_qtable(path)

    def test_non_object_payload_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["repro/qtable@1"]')
        pattern = f"^{re.escape(str(path))}: .*object"
        with pytest.raises(LogFormatError, match=pattern):
            load_qtable(path)

    def test_non_utf8_file_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"format": "repro/qtable@1", "actions": ["\xff"]}')
        pattern = f"^{re.escape(str(path))}: bad JSON: .*utf-8"
        with pytest.raises(LogFormatError, match=pattern):
            load_qtable(path)

    @pytest.mark.parametrize(
        "edit, reason",
        [({"visits": 0}, "visits must be >= 1"), ({"action": "FSCK"}, "FSCK")],
        ids=["zero-visits", "outside-catalog"],
    )
    def test_unrestorable_entry_rejected_with_path(
        self, tmp_path, edit, reason
    ):
        path = tmp_path / "qtable.json"
        save_qtable(self._table(), path)
        payload = json.loads(path.read_text())
        payload["entries"][0].update(edit)
        path.write_text(json.dumps(payload))
        pattern = f"^{re.escape(str(path))}: bad entry.*{reason}"
        with pytest.raises(LogFormatError, match=pattern):
            load_qtable(path)

    @pytest.mark.parametrize("field, value", MISTYPED_RECORD_FIELDS)
    def test_mistyped_entry_field_rejected_with_path(
        self, tmp_path, field, value
    ):
        # The header names the actions a null and a number would become
        # under ``str``, so only a type check can refuse them.
        table = QTable(ACTIONS + ["None", "3"])
        table.update(S0, "TRYNOP", 600.0)
        path = tmp_path / "qtable.json"
        save_qtable(table, path)
        payload = json.loads(path.read_text())
        payload["entries"][0][field] = value
        path.write_text(json.dumps(payload))
        pattern = f"^{re.escape(str(path))}: bad .*{field} must be a "
        with pytest.raises(LogFormatError, match=pattern):
            load_qtable(path)

    def test_mistyped_header_actions_rejected_with_path(self, tmp_path):
        path = tmp_path / "qtable.json"
        save_qtable(self._table(), path)
        payload = json.loads(path.read_text())
        payload["actions"] = "TRYNOP"
        path.write_text(json.dumps(payload))
        pattern = f"^{re.escape(str(path))}: bad Q-table header: actions"
        with pytest.raises(LogFormatError, match=pattern):
            load_qtable(path)

    @pytest.mark.parametrize("where, field, value", BAD_QTABLE_FIELDS)
    def test_out_of_range_field_rejected_with_path(
        self, tmp_path, where, field, value
    ):
        path = tmp_path / "qtable.json"
        save_qtable(self._table(), path)
        payload = json.loads(path.read_text())
        set_qtable_field(payload, where, field, value)
        path.write_text(json.dumps(payload))
        pattern = f"^{re.escape(str(path))}: bad "
        with pytest.raises(LogFormatError, match=pattern):
            load_qtable(path)

    def test_largest_visit_count_loads(self, tmp_path):
        path = tmp_path / "qtable.json"
        save_qtable(self._table(), path)
        payload = json.loads(path.read_text())
        set_qtable_field(payload, "entry", "visits", 2**63 - 1)
        path.write_text(json.dumps(payload))
        entry = payload["entries"][0]
        state = RecoveryState.initial(entry["error_type"])
        assert load_qtable(path).visit_count(state, entry["action"]) == (
            2**63 - 1
        )

    def test_restore_rejects_zero_visits(self):
        from repro.errors import TrainingError

        table = QTable(ACTIONS)
        with pytest.raises(TrainingError):
            table.restore(S0, "TRYNOP", 1.0, visits=0)


def _fuzz_table():
    """A small trained-looking table with full-precision values."""
    table = QTable(ACTIONS)
    for target in (612.3456789, 845.0101):
        table.update(S0, "TRYNOP", target)
    table.update(S0, "REIMAGE", 7_213.77)
    table.update(S1, "RMA", 172_801.25)
    return table


class TestQTableFuzz:
    @settings(max_examples=300, deadline=None)
    @given(flip=st.booleans(), data=st.data())
    def test_loads_or_raises_path_prefixed_error(self, flip, data):
        """Truncate or flip one byte: a sane table or a named error."""
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "qtable.json"
            save_qtable(_fuzz_table(), path)
            raw = bytearray(path.read_bytes())
            offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
            if flip:
                raw[offset] ^= data.draw(st.integers(1, 255), label="xor")
            else:
                del raw[offset:]
            path.write_bytes(bytes(raw))
            try:
                loaded = load_qtable(path)
            except LogFormatError as exc:
                assert str(exc).startswith(f"{path}:")
                return
        assert math.isfinite(loaded.initial_value)
        for state in loaded.states():
            for action in loaded.action_names:
                assert math.isfinite(loaded.value(state, action))
                assert 0 <= loaded.visit_count(state, action) < 2**63


class TestEndToEndDeployment:
    def test_trained_pipeline_policy_survives_disk(
        self, tmp_path, small_processes
    ):
        from repro.core import PipelineConfig, RecoveryPolicyLearner
        from repro.evaluation import time_ordered_split
        from repro.learning.qlearning import QLearningConfig
        from repro.learning.selection_tree import SelectionTreeConfig

        train, test = time_ordered_split(small_processes, 0.5)
        learner = RecoveryPolicyLearner(
            config=PipelineConfig(
                top_k_types=3,
                qlearning=QLearningConfig(
                    max_sweeps=80, episodes_per_sweep=16
                ),
                tree=SelectionTreeConfig(min_sweeps=30, check_interval=15),
            )
        ).fit(train)
        path = tmp_path / "deployed.json"
        save_policy(learner.trained_policy(), path)
        deployed = load_policy(path)
        evaluator = learner.make_evaluator(test, filter_test_noise=False)
        original = evaluator.evaluate(learner.trained_policy())
        reloaded = evaluator.evaluate(deployed)
        assert reloaded.overall_relative_cost == pytest.approx(
            original.overall_relative_cost
        )
