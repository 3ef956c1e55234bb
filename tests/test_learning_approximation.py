"""Tests for linear Q-function approximation (the paper's extension)."""

import numpy as np
import pytest

from helpers import ladder_processes, snapshot_digest
from repro.actions import default_catalog
from repro.errors import ConfigurationError, TrainingError
from repro.learning.approximation import (
    ApproximateQLearningTrainer,
    ApproximateTrainingConfig,
    LinearQFunction,
)
from repro.mdp.state import RecoveryState
from repro.simplatform.platform import SimulationPlatform

CATALOG = default_catalog()
STRENGTHS = {a.name: a.strength for a in CATALOG}
S0 = RecoveryState.initial("error:X")

# Digest of both setup types' rules, weights, episode and update counts
# under the default config, recorded when each step went through the
# string-keyed ``SimulationPlatform.step``.
TRAINING_DIGEST = (
    "23c23b66f371fc601cc114b424f994946685754db505f13ddc620d763feb872e"
)


def make_qfunction(**kwargs):
    return LinearQFunction(CATALOG.names(), STRENGTHS, **kwargs)


class TestLinearQFunction:
    def test_initial_values_zero(self):
        q = make_qfunction()
        assert q.value(S0, "TRYNOP") == 0.0

    def test_feature_dimension(self):
        q = make_qfunction()
        assert q.dimension == 1 + 4 + 4 + 3
        assert q.features(S0, "REBOOT").shape == (q.dimension,)

    def test_features_distinguish_actions(self):
        q = make_qfunction()
        a = q.features(S0, "TRYNOP")
        b = q.features(S0, "REBOOT")
        assert not np.allclose(a, b)

    def test_features_encode_history(self):
        q = make_qfunction()
        deeper = S0.after("REBOOT", False)
        a = q.features(S0, "REBOOT")
        b = q.features(deeper, "REBOOT")
        assert not np.allclose(a, b)
        # The repeat indicator fires only when the action already failed.
        assert b[-1] == 1.0
        assert a[-1] == 0.0

    def test_update_moves_prediction_toward_target(self):
        q = make_qfunction(learning_rate=0.5)
        before = q.value(S0, "REBOOT")
        for _ in range(200):
            q.update(S0, "REBOOT", 3_600.0)
        after = q.value(S0, "REBOOT")
        assert abs(after - 3_600.0) < abs(before - 3_600.0)
        assert after == pytest.approx(3_600.0, rel=0.1)

    def test_update_counts(self):
        q = make_qfunction()
        q.update(S0, "TRYNOP", 100.0)
        assert q.updates == 1

    def test_generalizes_to_unseen_state(self):
        q = make_qfunction(learning_rate=0.5)
        for _ in range(200):
            q.update(S0, "REBOOT", 3_600.0)
        unseen = RecoveryState.initial("error:X").after("TRYNOP", False)
        # Shared weights give a finite, related prediction (not 0).
        assert q.value(unseen, "REBOOT") > 1_000.0

    def test_greedy_action(self):
        q = make_qfunction(learning_rate=0.5)
        for _ in range(100):
            q.update(S0, "TRYNOP", 600.0)
            q.update(S0, "RMA", 100_000.0)
        action, value = q.greedy_action(S0)
        assert action != "RMA"

    def test_min_value_terminal_zero(self):
        q = make_qfunction()
        terminal = S0.after("RMA", True)
        assert q.min_value(terminal) == 0.0

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            make_qfunction().value(S0, "FSCK")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": 2.0},
            {"cost_scale": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_qfunction(**kwargs)


class TestApproximateTrainer:
    @pytest.fixture(scope="class")
    def setup(self):
        hard = ladder_processes(
            "error:Hard",
            [
                (["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 30),
                (["TRYNOP", "REBOOT"], 2),
            ],
            realistic_durations=True,
        )
        soft = ladder_processes(
            "error:Soft",
            [(["TRYNOP"], 20), (["TRYNOP", "REBOOT"], 10)],
            realistic_durations=True,
        )
        platform = SimulationPlatform(hard + soft, CATALOG)
        return platform, hard, soft

    def test_learns_reimage_jump(self, setup):
        platform, hard, _soft = setup
        trainer = ApproximateQLearningTrainer(platform)
        result = trainer.train_type("error:Hard", hard)
        s0 = RecoveryState.initial("error:Hard")
        assert result.rules[s0][0] == "REIMAGE"

    def test_learns_watch_first(self, setup):
        platform, _hard, soft = setup
        trainer = ApproximateQLearningTrainer(platform)
        result = trainer.train_type("error:Soft", soft)
        s0 = RecoveryState.initial("error:Soft")
        assert result.rules[s0][0] == "TRYNOP"

    def test_rules_cover_full_chain(self, setup):
        platform, hard, _soft = setup
        trainer = ApproximateQLearningTrainer(platform)
        result = trainer.train_type("error:Hard", hard)
        assert len(result.rules) == platform.max_actions - 1

    def test_policy_beats_ladder_on_hard_type(self, setup):
        platform, hard, _soft = setup
        from repro.evaluation.evaluator import PolicyEvaluator
        from repro.policies import TrainedPolicy

        trainer = ApproximateQLearningTrainer(platform)
        result = trainer.train_type("error:Hard", hard)
        policy = TrainedPolicy(result.rules, label="approx")
        evaluator = PolicyEvaluator(hard, CATALOG)
        evaluation = evaluator.evaluate(policy)
        assert evaluation.overall_relative_cost < 0.85

    def test_training_matches_frozen_digest(self, setup):
        platform, hard, soft = setup
        trainer = ApproximateQLearningTrainer(platform)
        courses = []
        for error_type, processes in (
            ("error:Hard", hard),
            ("error:Soft", soft),
        ):
            result = trainer.train_type(error_type, processes)
            courses.append(
                (
                    result.rules,
                    result.qfunction._weights.tolist(),
                    result.episodes,
                    result.qfunction.updates,
                )
            )
        assert snapshot_digest(courses) == TRAINING_DIGEST

    def test_empty_processes_rejected(self, setup):
        platform, _hard, _soft = setup
        trainer = ApproximateQLearningTrainer(platform)
        with pytest.raises(TrainingError):
            trainer.train_type("error:X", [])

    def test_parameter_count_far_below_table(self, setup):
        platform, hard, _soft = setup
        trainer = ApproximateQLearningTrainer(platform)
        result = trainer.train_type("error:Hard", hard)
        # The generalization selling point: constant parameter count.
        assert result.qfunction.dimension < 20

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ApproximateTrainingConfig(sweeps=0)
        with pytest.raises(ConfigurationError):
            ApproximateTrainingConfig(episodes_per_sweep=0)
