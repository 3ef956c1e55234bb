"""Tests for the trained and hybrid policies."""

import pytest

from repro.actions import default_catalog
from repro.errors import ConfigurationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.hybrid import HybridPolicy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy

CATALOG = default_catalog()
S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)


@pytest.fixture
def trained():
    return TrainedPolicy(
        {
            S0: ("REIMAGE", 7200.0),
            S1: ("RMA", 172800.0),
        }
    )


class TestTrainedPolicy:
    def test_follows_rules(self, trained):
        decision = trained.decide(S0)
        assert decision.action == "REIMAGE"
        assert decision.expected_cost == pytest.approx(7200.0)
        assert decision.source == "trained"

    def test_unhandled_state_raises(self, trained):
        unknown = RecoveryState.initial("error:Other")
        with pytest.raises(UnhandledStateError) as excinfo:
            trained.decide(unknown)
        assert excinfo.value.state == unknown

    def test_handles_and_len(self, trained):
        assert trained.handles(S0)
        assert not trained.handles(RecoveryState.initial("error:Other"))
        assert len(trained) == 2

    def test_error_types(self, trained):
        assert trained.error_types() == ("error:X",)

    def test_expected_cost_lookup(self, trained):
        assert trained.expected_cost(S1) == pytest.approx(172800.0)
        assert trained.expected_cost(RecoveryState.initial("e:Y")) is None

    def test_terminal_rule_rejected(self):
        terminal = S0.after("RMA", True)
        with pytest.raises(ConfigurationError):
            TrainedPolicy({terminal: ("RMA", 0.0)})

    def test_terminal_decide_rejected(self, trained):
        with pytest.raises(ConfigurationError):
            trained.decide(S0.after("RMA", True))

    def test_empty_action_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainedPolicy({S0: ("", 0.0)})

    def test_key_space_wider_than_64_bits_rejected(self):
        # 30 distinct history actions, 30 deep: 31 * 31**30 keys.
        tried = tuple(f"ACTION-{i}" for i in range(30))
        wide = RecoveryState("error:X", tried=tried)
        with pytest.raises(ConfigurationError, match="overflows uint64"):
            TrainedPolicy({wide: ("RMA", 1.0)})

    def test_custom_label(self):
        policy = TrainedPolicy({}, label="with-tree")
        assert policy.name == "with-tree"


class TestHybridPolicy:
    def test_prefers_trained(self, trained):
        hybrid = HybridPolicy(trained, UserDefinedPolicy(CATALOG))
        decision = hybrid.decide(S0)
        assert decision.action == "REIMAGE"
        assert decision.source == "hybrid:trained"

    def test_falls_back_on_unhandled(self, trained):
        hybrid = HybridPolicy(trained, UserDefinedPolicy(CATALOG))
        unknown = RecoveryState.initial("error:Other")
        decision = hybrid.decide(unknown)
        assert decision.action == "TRYNOP"
        assert decision.source == "hybrid:user-defined"

    def test_fallback_rate_tracking(self, trained):
        hybrid = HybridPolicy(trained, UserDefinedPolicy(CATALOG))
        hybrid.decide(S0)
        hybrid.decide(RecoveryState.initial("error:Other"))
        assert hybrid.fallback_rate == pytest.approx(0.5)

    def test_fallback_rate_empty(self, trained):
        hybrid = HybridPolicy(trained, UserDefinedPolicy(CATALOG))
        assert hybrid.fallback_rate == 0.0

    def test_covers_everything_the_fallback_covers(self, trained):
        hybrid = HybridPolicy(trained, UserDefinedPolicy(CATALOG))
        # Walk an unknown type to terminal depth: never raises.
        state = RecoveryState.initial("error:Unknown")
        for _ in range(10):
            action = hybrid.decide(state).action
            state = state.after(action, False)
        assert state.attempt_count == 10

    def test_accessors(self, trained):
        fallback = UserDefinedPolicy(CATALOG)
        hybrid = HybridPolicy(trained, fallback)
        assert hybrid.trained is trained
        assert hybrid.fallback is fallback
        assert hybrid.name == "hybrid"
