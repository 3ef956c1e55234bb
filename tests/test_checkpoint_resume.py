"""Checkpoint/resume: an interrupted run must finish bit-identically.

Scenario under test: a long multi-type training run dies after ``k``
types (simulated by training only a prefix of the groups against a
checkpoint store); a second run over the full set with ``resume=True``
must restore the finished types from disk, train only the remainder,
and end with Q tables, rules and metadata identical to an uninterrupted
run — exercising JSON round-trip exactness, fingerprint invalidation
and torn-file tolerance along the way.
"""

import functools
import json
import os
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
from repro.actions import default_catalog
from repro.core import PipelineConfig, RecoveryPolicyLearner
from repro.errors import ConfigurationError, TrainingError
from repro.learning.checkpoint import (
    CheckpointStore,
    TypeOutcome,
    training_fingerprint,
)
from repro.learning.parallel import ParallelTrainingEngine
from repro.learning.qlearning import QLearningConfig
from repro.learning.selection_tree import SelectionTreeConfig
from repro.policies import UserDefinedPolicy
from test_learning_parallel import (
    ladder_groups,
    outcome_snapshot,
    qtable_snapshot,
)

CATALOG = default_catalog()
QL = QLearningConfig(max_sweeps=40, episodes_per_sweep=8, seed=3)
TREE = SelectionTreeConfig(min_sweeps=10, check_interval=5)


def engine_for(groups, store, *, resume=True, n_workers=1, baseline=None):
    ensemble = [p for ps in groups.values() for p in ps]
    return ParallelTrainingEngine(
        ensemble,
        CATALOG,
        qlearning=QL,
        tree=TREE,
        baseline=baseline,
        n_workers=n_workers,
        checkpoint=store,
        resume=resume,
    )


class _ExitInCourse(UserDefinedPolicy):
    """A baseline whose process exits when asked about one error type.

    The selection tree consults the baseline at each check, so a pool
    worker running that type's course dies mid-course.
    """

    def __init__(self, catalog, doomed_type):
        super().__init__(catalog)
        self.doomed_type = doomed_type

    def decide(self, state):
        if state.error_type == self.doomed_type:
            os._exit(1)
        return super().decide(state)


def store_at(tmp_path, fingerprint="fp-test"):
    return CheckpointStore(
        tmp_path / "ckpt",
        fingerprint=fingerprint,
        alpha_floor=QL.alpha_floor,
    )


class TestCheckpointStore:
    def test_round_trip_is_exact(self, tmp_path):
        groups = ladder_groups()
        store = store_at(tmp_path)
        outcomes = engine_for(groups, store).train(groups)
        for error_type, outcome in outcomes.items():
            loaded = store.load(error_type)
            assert loaded is not None
            assert loaded.from_checkpoint and not outcome.from_checkpoint
            assert loaded.training.error_type == error_type
            # Q values and visit counts survive JSON bit-for-bit.
            assert qtable_snapshot(loaded.training.qtable) == qtable_snapshot(
                outcome.training.qtable
            )
            assert loaded.rules == outcome.rules
            assert loaded.training.sweeps_run == outcome.training.sweeps_run
            assert loaded.training.episodes == outcome.training.episodes
            assert loaded.training.converged == outcome.training.converged
            assert loaded.expected_cost == outcome.expected_cost

    def test_restored_outcome_has_no_sweep_curve(self, tmp_path):
        """The curve is not persisted: a resumed course reports ``()``."""
        groups = ladder_groups()
        store = store_at(tmp_path)
        trained = engine_for(groups, store).train(groups)
        resumed = engine_for(groups, store).train(groups)
        for error_type, outcome in resumed.items():
            assert outcome.from_checkpoint
            assert outcome.training.sweep_deltas == ()
            assert trained[error_type].training.sweep_deltas

    def test_completed_types_lists_saved_types(self, tmp_path):
        groups = ladder_groups()
        store = store_at(tmp_path)
        assert store.completed_types() == ()
        engine_for(groups, store).train(groups)
        assert store.completed_types() == tuple(sorted(groups))

    def test_missing_checkpoint_loads_none(self, tmp_path):
        assert store_at(tmp_path).load("error:Nope") is None

    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        groups = ladder_groups()
        engine_for(groups, store_at(tmp_path, "fp-a")).train(groups)
        stale = store_at(tmp_path, "fp-b")
        assert stale.load("error:Hard") is None
        assert stale.completed_types() == ()

    def test_torn_checkpoint_retrains_instead_of_crashing(self, tmp_path):
        groups = ladder_groups()
        store = store_at(tmp_path)
        engine_for(groups, store).train(groups)
        path = store.path_for("error:Hard")
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        assert store.load("error:Hard") is None

    def _corrupt(self, tmp_path, edit):
        """Train every type, then rewrite error:Hard's checkpoint."""
        groups = ladder_groups()
        store = store_at(tmp_path)
        engine_for(groups, store).train(groups)
        path = store.path_for("error:Hard")
        payload = edit(json.loads(path.read_text()))
        path.write_text(json.dumps(payload))
        return store

    def test_non_object_checkpoint_loads_none(self, tmp_path):
        store = self._corrupt(tmp_path, lambda payload: [payload])
        assert store.load("error:Hard") is None

    def test_non_utf8_checkpoint_loads_none(self, tmp_path):
        store = self._corrupt(tmp_path, lambda payload: payload)
        store.path_for("error:Hard").write_bytes(b"\xff\xfe{}")
        assert store.load("error:Hard") is None
        assert store.completed_types() == ("error:Mid", "error:Soft")

    def test_non_object_checkpoint_is_not_completed(self, tmp_path):
        store = self._corrupt(tmp_path, lambda payload: "checkpoint")
        assert store.completed_types() == ("error:Mid", "error:Soft")

    def test_zero_visit_entry_retrains(self, tmp_path):
        def edit(payload):
            payload["qtable"]["entries"][0]["visits"] = 0
            return payload

        assert self._corrupt(tmp_path, edit).load("error:Hard") is None

    def test_entry_outside_catalog_retrains(self, tmp_path):
        def edit(payload):
            payload["qtable"]["entries"][0]["action"] = "FSCK"
            return payload

        assert self._corrupt(tmp_path, edit).load("error:Hard") is None

    @pytest.mark.parametrize("where, field, value", BAD_QTABLE_FIELDS)
    def test_out_of_range_qtable_field_retrains(
        self, tmp_path, where, field, value
    ):
        def edit(payload):
            set_qtable_field(payload["qtable"], where, field, value)
            return payload

        assert self._corrupt(tmp_path, edit).load("error:Hard") is None

    @pytest.mark.parametrize("field, value", MISTYPED_RECORD_FIELDS)
    def test_mistyped_rule_field_retrains(self, tmp_path, field, value):
        def edit(payload):
            payload["rules"][0][field] = value
            return payload

        assert self._corrupt(tmp_path, edit).load("error:Hard") is None

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload["training"].update(episodes=float("inf")),
            lambda payload: payload.update(expected_cost=10**400),
        ],
        ids=["infinite-episodes", "huge-expected-cost"],
    )
    def test_out_of_range_training_field_retrains(self, tmp_path, edit):
        def corrupt(payload):
            edit(payload)
            return payload

        assert self._corrupt(tmp_path, corrupt).load("error:Hard") is None

    def test_tampered_error_type_raises(self, tmp_path):
        groups = ladder_groups()
        store = store_at(tmp_path)
        engine_for(groups, store).train(groups)
        path = store.path_for("error:Hard")
        payload = json.loads(path.read_text())
        payload["error_type"] = "error:Other"
        path.write_text(json.dumps(payload))
        with pytest.raises(TrainingError, match="belongs to"):
            store.load("error:Hard")

    def test_fingerprint_is_order_insensitive(self):
        assert training_fingerprint({"a": 1, "b": 2}) == training_fingerprint(
            {"b": 2, "a": 1}
        )
        assert training_fingerprint({"a": 1}) != training_fingerprint(
            {"a": 2}
        )

    def test_save_returns_existing_path(self, tmp_path):
        groups = ladder_groups()
        store = store_at(tmp_path)
        outcomes = engine_for(groups, store).train(groups)
        path = store.save(outcomes["error:Hard"])
        assert path == store.path_for("error:Hard")
        assert path.exists()


@functools.lru_cache(maxsize=None)
def _saved_checkpoint() -> bytes:
    """error:Hard's checkpoint file from one trained run."""
    with TemporaryDirectory() as tmp:
        groups = ladder_groups()
        store = store_at(Path(tmp))
        engine_for(groups, store).train(groups)
        return store.path_for("error:Hard").read_bytes()


class TestCheckpointFuzz:
    @settings(max_examples=200, deadline=None)
    @given(flip=st.booleans(), data=st.data())
    def test_loads_retrains_or_names_the_foreign_type(self, flip, data):
        """Truncate or flip one byte: a checkpoint, ``None`` (retrain)
        or the documented foreign-type ``TrainingError``."""
        raw = bytearray(_saved_checkpoint())
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if flip:
            raw[offset] ^= data.draw(st.integers(1, 255), label="xor")
        else:
            del raw[offset:]
        with TemporaryDirectory() as tmp:
            store = store_at(Path(tmp))
            store.directory.mkdir()
            store.path_for("error:Hard").write_bytes(bytes(raw))
            try:
                loaded = store.load("error:Hard")
            except TrainingError as exc:
                assert "belongs to error type" in str(exc)
            else:
                assert loaded is None or isinstance(loaded, TypeOutcome)


class TestInterruptAndResume:
    def test_resume_after_interrupt_matches_uninterrupted(self, tmp_path):
        groups = ladder_groups()
        uninterrupted = engine_for(groups, None).train(groups)

        # "Interrupt" after k=2 types: only a prefix reaches the store.
        store = store_at(tmp_path)
        prefix = dict(list(groups.items())[:2])
        engine_for(prefix, store).train(prefix)
        assert store.completed_types() == tuple(sorted(prefix))

        # The restarted run restores the prefix and trains the rest.
        resumed = engine_for(groups, store).train(groups)
        assert outcome_snapshot(resumed) == outcome_snapshot(uninterrupted)
        for error_type, outcome in resumed.items():
            assert outcome.from_checkpoint == (error_type in prefix)

    def test_second_resume_restores_everything(self, tmp_path):
        groups = ladder_groups()
        store = store_at(tmp_path)
        first = engine_for(groups, store).train(groups)
        second = engine_for(groups, store).train(groups)
        assert outcome_snapshot(first) == outcome_snapshot(second)
        assert all(o.from_checkpoint for o in second.values())
        assert not any(o.from_checkpoint for o in first.values())

    def test_resume_false_retrains_and_overwrites(self, tmp_path):
        groups = ladder_groups()
        store = store_at(tmp_path)
        engine_for(groups, store).train(groups)
        fresh = engine_for(groups, store, resume=False).train(groups)
        assert not any(o.from_checkpoint for o in fresh.values())

    @pytest.mark.slow
    def test_parallel_resume_matches_serial_uninterrupted(self, tmp_path):
        groups = ladder_groups()
        uninterrupted = engine_for(groups, None).train(groups)
        store = store_at(tmp_path)
        prefix = dict(list(groups.items())[:1])
        engine_for(prefix, store).train(prefix)
        resumed = engine_for(groups, store, n_workers=2).train(groups)
        assert outcome_snapshot(resumed) == outcome_snapshot(uninterrupted)

    @pytest.mark.slow
    def test_worker_killed_mid_type_then_resumed(self, tmp_path):
        """A worker dies inside error:Mid's course; the run fails by
        name, leaves only loadable checkpoints, and resumes to the
        uninterrupted outcome whichever types finished first."""
        groups = ladder_groups()
        baseline = UserDefinedPolicy(CATALOG)
        uninterrupted = engine_for(groups, None, baseline=baseline).train(
            groups
        )
        store = store_at(tmp_path)
        killer = _ExitInCourse(CATALOG, "error:Mid")
        with pytest.raises(TrainingError, match="crashed"):
            engine_for(groups, store, n_workers=2, baseline=killer).train(
                groups
            )

        left = sorted(store.directory.glob("*")) if store.directory.is_dir() else []
        saved = store.completed_types()
        assert [path.suffix for path in left] == [".json"] * len(saved)
        assert all(
            isinstance(store.load(error_type), TypeOutcome)
            for error_type in saved
        )
        assert "error:Mid" not in saved

        resumed = engine_for(
            groups, store, n_workers=2, baseline=baseline
        ).train(groups)
        assert outcome_snapshot(resumed) == outcome_snapshot(uninterrupted)
        for error_type, outcome in resumed.items():
            assert outcome.from_checkpoint == (error_type in saved)

    def test_failure_keeps_earlier_checkpoints(self, tmp_path):
        """Types finished before a failure stay resumable."""
        groups = ladder_groups()
        store = store_at(tmp_path)
        broken = dict(groups)
        # Last type poisoned: its course fails after the others saved.
        broken["error:Mid"] = [broken["error:Hard"][0]]
        with pytest.raises(TrainingError, match="error:Mid"):
            engine_for(broken, store).train(broken)
        saved = store.completed_types()
        assert "error:Hard" in saved and "error:Soft" in saved
        assert "error:Mid" not in saved


class TestPipelineCheckpointing:
    def test_fit_twice_with_resume_is_identical(
        self, tmp_path, small_processes
    ):
        def fit(resume):
            config = PipelineConfig(
                top_k_types=3,
                qlearning=QLearningConfig(max_sweeps=40, episodes_per_sweep=8),
                tree=SelectionTreeConfig(min_sweeps=10, check_interval=10),
                checkpoint_dir=str(tmp_path / "ckpt"),
                resume=resume,
            )
            return RecoveryPolicyLearner(config=config).fit(small_processes)

        first = fit(False)
        second = fit(True)
        assert second.rules_ == first.rules_
        assert second.trained_policy().rules == first.trained_policy().rules
        assert all(o.from_checkpoint for o in second.outcomes_.values())
        assert not any(o.from_checkpoint for o in first.outcomes_.values())

    def test_changed_hyperparameters_invalidate_checkpoints(
        self, tmp_path, small_processes
    ):
        def fit(max_sweeps):
            config = PipelineConfig(
                top_k_types=2,
                qlearning=QLearningConfig(
                    max_sweeps=max_sweeps, episodes_per_sweep=8
                ),
                tree=SelectionTreeConfig(min_sweeps=10, check_interval=10),
                checkpoint_dir=str(tmp_path / "ckpt"),
                resume=True,
            )
            return RecoveryPolicyLearner(config=config).fit(small_processes)

        fit(40)
        # Different sweep cap -> different fingerprint -> full retrain.
        refit = fit(30)
        assert not any(o.from_checkpoint for o in refit.outcomes_.values())

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            PipelineConfig(resume=True)
