"""Tests for the Q-learning trainer (Figure 2 algorithm)."""

import pytest

from helpers import ladder_processes, make_process
from repro.actions import default_catalog
from repro.errors import (
    ConfigurationError,
    SimulationError,
    TrainingError,
    UnknownActionError,
)
from repro.learning.exploration import TemperatureSchedule
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.mdp.state import RecoveryState
from repro.session import EpisodeRecorder
from repro.simplatform.platform import SimulationPlatform

CATALOG = default_catalog()


def reimage_type_processes():
    """A type where the ladder wastes TRYNOP + 2x REBOOT before REIMAGE."""
    return ladder_processes(
        "error:Hard",
        [
            (["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 30),
            (["TRYNOP", "REBOOT"], 2),
        ],
        realistic_durations=True,
    )


def transient_type_processes():
    """A type where watching usually cures and reboots are expensive."""
    return ladder_processes(
        "error:Soft",
        [
            (["TRYNOP"], 20),
            (["TRYNOP", "REBOOT"], 10),
        ],
        realistic_durations=True,
    )


def trainer_for(processes, **config_overrides):
    platform = SimulationPlatform(processes, CATALOG)
    defaults = dict(max_sweeps=120, seed=1)
    defaults.update(config_overrides)
    return QLearningTrainer(platform, QLearningConfig(**defaults))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sweeps": 0},
            {"episodes_per_sweep": 0},
            {"convergence_patience": 0},
            {"exploration": "quantum"},
            {"alpha_floor": -0.1},
            {"min_visits_per_action": -1},
            {"warm_start_passes": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            QLearningConfig(**kwargs)


class TestEpisodes:
    """The episode loop, observed through its traces."""

    def recorded_course(self, processes, platform=None, **config):
        platform = platform or SimulationPlatform(processes, CATALOG)
        recorder = EpisodeRecorder()
        trainer = QLearningTrainer(
            platform, QLearningConfig(**config), episode_telemetry=recorder
        )
        result = trainer.train_type(processes[0].error_type, processes)
        return result, recorder.traces

    def test_episode_terminates_and_records_transitions(self):
        processes = reimage_type_processes()
        result, traces = self.recorded_course(
            processes, max_sweeps=1, episodes_per_sweep=4, seed=1
        )
        assert len(traces) == 4
        for trace in traces:
            assert trace.origin == "training" and trace.succeeded
            # Every visited (state, action) received an update.
            state = RecoveryState.initial("error:Hard")
            for step in trace.steps:
                assert result.qtable.visit_count(state, step.action) >= 1
                state = state.after(step.action, step.succeeded)
            assert state.is_terminal

    def test_episode_respects_action_cap(self):
        processes = ladder_processes(
            "error:RMAonly", [(["TRYNOP", "REBOOT", "REIMAGE", "RMA"], 5)]
        )
        platform = SimulationPlatform(processes, CATALOG, max_actions=4)
        _result, traces = self.recorded_course(
            processes, platform, max_sweeps=5, seed=0
        )
        assert traces
        for trace in traces:
            assert trace.step_count <= 4
            assert trace.succeeded

    def test_warm_start_anchors_logged_pairs(self):
        processes = reimage_type_processes()
        result, traces = self.recorded_course(
            processes,
            max_sweeps=1,
            episodes_per_sweep=1,
            warm_start_passes=1,
            seed=1,
        )
        assert result.episodes == len(processes) + len(traces)
        s0 = RecoveryState.initial("error:Hard")
        explored = sum(1 for t in traces if t.actions()[0] == "TRYNOP")
        # One warm-start visit per process, plus exploration's.
        assert result.qtable.visit_count(s0, "TRYNOP") == (
            len(processes) + explored
        )
        # The anchored value reflects actual ladder costs (finite, > 0).
        assert result.qtable.value(s0, "TRYNOP") > 0


class TestCourseSetup:
    """A course that cannot train fails before its first episode."""

    def test_foreign_process_raises_simulation_error(self):
        processes = reimage_type_processes()
        platform = SimulationPlatform(processes[:-1], CATALOG)
        recorder = EpisodeRecorder()
        trainer = QLearningTrainer(
            platform, QLearningConfig(seed=1), episode_telemetry=recorder
        )
        with pytest.raises(SimulationError, match="not part of this platform"):
            trainer.train_type("error:Hard", processes)
        assert len(recorder) == 0

    def test_unknown_logged_action_raises_naming_the_process(self):
        processes = reimage_type_processes() + [
            make_process(
                ["TRYNOP", "FSCK", "REIMAGE"],
                machine="m-odd",
                error_type="error:Hard",
            )
        ]
        platform = SimulationPlatform(processes, CATALOG)
        recorder = EpisodeRecorder()
        trainer = QLearningTrainer(
            platform, QLearningConfig(seed=1), episode_telemetry=recorder
        )
        with pytest.raises(UnknownActionError, match="'m-odd'.*FSCK"):
            trainer.train_type("error:Hard", processes)
        assert len(recorder) == 0


class TestTrainType:
    def test_learns_to_jump_to_reimage(self):
        processes = reimage_type_processes()
        trainer = trainer_for(processes)
        result = trainer.train_type("error:Hard", processes)
        s0 = RecoveryState.initial("error:Hard")
        values = {a: result.qtable.value(s0, a) for a in CATALOG.names()}
        # Jumping straight to REIMAGE must beat starting with TRYNOP,
        # whose path pays the whole ladder.
        assert values["REIMAGE"] < values["TRYNOP"]

    def test_learns_to_watch_first_for_transients(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes)
        result = trainer.train_type("error:Soft", processes)
        s0 = RecoveryState.initial("error:Soft")
        greedy, _ = result.qtable.greedy_action(s0)
        assert greedy == "TRYNOP"

    def test_convergence_reported(self):
        processes = transient_type_processes()
        trainer = trainer_for(
            processes,
            max_sweeps=400,
            temperature=TemperatureSchedule(
                initial=2000.0, decay=0.9, floor=50.0
            ),
            convergence_patience=10,
        )
        result = trainer.train_type("error:Soft", processes)
        assert result.converged
        assert result.sweeps_to_convergence < 400

    def test_cap_reported_when_not_converged(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes, max_sweeps=3)
        result = trainer.train_type("error:Soft", processes)
        assert not result.converged
        assert result.sweeps_to_convergence == 3

    def test_callback_can_stop_early(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes, max_sweeps=100)
        result = trainer.train_type(
            "error:Soft",
            processes,
            sweep_callback=lambda sweep, qt: sweep >= 4,
        )
        assert result.sweeps_run == 5
        assert result.converged

    def test_empty_processes_rejected(self):
        trainer = trainer_for(transient_type_processes())
        with pytest.raises(TrainingError):
            trainer.train_type("error:Soft", [])

    def test_wrong_type_rejected(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes)
        with pytest.raises(TrainingError):
            trainer.train_type("error:Other", processes)

    def test_min_visits_forces_every_action(self):
        processes = transient_type_processes()
        trainer = trainer_for(processes, min_visits_per_action=2)
        result = trainer.train_type("error:Soft", processes)
        s0 = RecoveryState.initial("error:Soft")
        for action in CATALOG.names():
            assert result.qtable.visit_count(s0, action) >= 2


class TestTrainAll:
    def test_trains_each_type(self):
        hard = reimage_type_processes()
        soft = transient_type_processes()
        trainer = trainer_for(hard + soft, max_sweeps=60)
        result = trainer.train(
            {"error:Hard": hard, "error:Soft": soft, "error:Empty": []}
        )
        assert set(result.per_type) == {"error:Hard", "error:Soft"}
        assert set(result.sweeps_to_convergence()) == {
            "error:Hard",
            "error:Soft",
        }

    def test_unconverged_types_listed(self):
        soft = transient_type_processes()
        trainer = trainer_for(soft, max_sweeps=2)
        result = trainer.train({"error:Soft": soft})
        assert result.unconverged_types() == ("error:Soft",)
