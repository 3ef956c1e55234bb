"""Serial-equivalence harness for the parallel training engine.

The paper's per-error-type learners are independent, so sharding them
across a process pool must be a pure performance transformation: the
tests here train the same synthetic logs serially and in parallel and
assert *bit-identical* Q tables, training metadata and extracted
policies — for the engine directly and for the end-to-end pipeline on a
tracegen log — plus clear :class:`TrainingError` surfacing when a
worker's course fails.
"""

import math

import pytest

from helpers import ladder_processes
from repro.actions import default_catalog
from repro.core import PipelineConfig, RecoveryPolicyLearner
from repro.errors import ConfigurationError, TrainingError
from repro.learning.parallel import ParallelTrainingEngine
from repro.learning.qlearning import QLearningConfig
from repro.learning.selection_tree import SelectionTreeConfig

CATALOG = default_catalog()

QL = QLearningConfig(max_sweeps=40, episodes_per_sweep=8, seed=3)
TREE = SelectionTreeConfig(min_sweeps=10, check_interval=5)


def ladder_groups():
    """Three error types with distinct optimal first actions."""
    hard = ladder_processes(
        "error:Hard",
        [(["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 12),
         (["TRYNOP", "REBOOT"], 2)],
        realistic_durations=True,
    )
    soft = ladder_processes(
        "error:Soft",
        [(["TRYNOP"], 10), (["TRYNOP", "REBOOT"], 5)],
        realistic_durations=True,
        machine_prefix="s",
    )
    mid = ladder_processes(
        "error:Mid",
        [(["TRYNOP", "REBOOT"], 8), (["TRYNOP", "REBOOT", "REBOOT"], 4)],
        realistic_durations=True,
        machine_prefix="d",
    )
    return {"error:Hard": hard, "error:Soft": soft, "error:Mid": mid}


def engine_for(groups, n_workers, *, tree=TREE):
    ensemble = [p for ps in groups.values() for p in ps]
    return ParallelTrainingEngine(
        ensemble,
        CATALOG,
        qlearning=QL,
        tree=tree,
        n_workers=n_workers,
    )


def qtable_snapshot(qtable):
    """All (state, action) -> (value, visits) pairs, order-insensitive."""
    return {
        (state, action): (
            qtable.value(state, action),
            qtable.visit_count(state, action),
        )
        for state in qtable.states()
        for action in qtable.action_names
    }


def outcome_snapshot(outcomes):
    return {
        error_type: (
            qtable_snapshot(o.training.qtable),
            o.rules,
            o.training.sweeps_run,
            o.training.episodes,
            o.training.converged,
            o.expected_cost,
        )
        for error_type, o in outcomes.items()
    }


class TestEngineValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            engine_for(ladder_groups(), 0)

    def test_serial_engine_trains_all_types(self):
        groups = ladder_groups()
        outcomes = engine_for(groups, 1).train(groups)
        assert list(outcomes) == list(groups)
        for error_type, outcome in outcomes.items():
            assert outcome.training.error_type == error_type
            assert outcome.rules
            assert not outcome.from_checkpoint


class TestSerialParallelEquivalence:
    @pytest.mark.slow
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_worker_count_invariance_on_ladders(self, n_workers):
        groups = ladder_groups()
        serial = engine_for(groups, 1).train(groups)
        parallel = engine_for(groups, n_workers).train(groups)
        assert outcome_snapshot(serial) == outcome_snapshot(parallel)

    @pytest.mark.slow
    def test_greedy_extraction_equivalence(self):
        groups = ladder_groups()
        serial = engine_for(groups, 1, tree=None).train(groups)
        parallel = engine_for(groups, 2, tree=None).train(groups)
        assert outcome_snapshot(serial) == outcome_snapshot(parallel)

    @pytest.mark.slow
    def test_pipeline_equivalence_on_tracegen_log(self, small_processes):
        """End to end on a generated log: byte-identical policies."""

        def fit(n_workers):
            config = PipelineConfig(
                top_k_types=4,
                qlearning=QLearningConfig(max_sweeps=50, episodes_per_sweep=8),
                tree=SelectionTreeConfig(min_sweeps=15, check_interval=10),
                n_workers=n_workers,
            )
            return RecoveryPolicyLearner(config=config).fit(small_processes)

        serial = fit(1)
        parallel = fit(4)
        # Extracted policies: identical rules, identical expected costs.
        assert serial.rules_ == parallel.rules_
        assert (
            serial.trained_policy().rules == parallel.trained_policy().rules
        )
        # Q tables and course metadata: bit-identical per type.
        serial_q = serial.training_result_.qtables()
        parallel_q = parallel.training_result_.qtables()
        assert set(serial_q) == set(parallel_q)
        for error_type in serial_q:
            assert qtable_snapshot(serial_q[error_type]) == qtable_snapshot(
                parallel_q[error_type]
            )
        assert (
            serial.training_result_.sweeps_to_convergence()
            == parallel.training_result_.sweeps_to_convergence()
        )

    def test_training_order_cannot_change_results(self):
        """Per-type RNG derivation: group order is irrelevant."""
        groups = ladder_groups()
        reversed_groups = dict(reversed(list(groups.items())))
        forward = engine_for(groups, 1).train(groups)
        backward = engine_for(groups, 1).train(reversed_groups)
        assert outcome_snapshot(forward) == outcome_snapshot(backward)


class TestWorkerFailure:
    @pytest.mark.slow
    def test_worker_failure_surfaces_training_error(self):
        groups = ladder_groups()
        # Poison one type with a process of a different type: its course
        # must fail inside the worker and surface as a TrainingError
        # naming the failing type.
        groups["error:Soft"] = groups["error:Soft"] + [
            groups["error:Hard"][0]
        ]
        engine = engine_for(groups, 2)
        with pytest.raises(TrainingError, match="error:Soft"):
            engine.train(groups)

    def test_serial_failure_also_names_the_type(self):
        groups = ladder_groups()
        groups["error:Mid"] = [groups["error:Hard"][0]]
        engine = engine_for(groups, 1)
        with pytest.raises(TrainingError, match="error:Mid"):
            engine.train(groups)


class TestSweepCurves:
    """Each course returns its convergence curve: one entry per sweep."""

    @pytest.mark.parametrize("tree", [TREE, None], ids=["tree", "greedy"])
    def test_every_trained_outcome_records_its_curve(self, tree):
        groups = ladder_groups()
        outcomes = engine_for(groups, 1, tree=tree).train(groups)
        for outcome in outcomes.values():
            curve = outcome.training.sweep_deltas
            assert len(curve) == outcome.training.sweeps_run
            assert all(math.isfinite(d) and d >= 0.0 for d in curve)
            # Early exploration moves the Q values.
            assert max(curve) > 0.0

    @pytest.mark.slow
    def test_parallel_curves_equal_serial(self):
        groups = ladder_groups()
        serial = engine_for(groups, 1).train(groups)
        parallel = engine_for(groups, 2).train(groups)
        assert {
            t: o.training.sweep_deltas for t, o in parallel.items()
        } == {t: o.training.sweep_deltas for t, o in serial.items()}
