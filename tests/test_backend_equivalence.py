"""The one Q table against the dict reference it replaced.

The library's dense :class:`~repro.learning.qtable.QTable` once shipped
beside a dict-of-dict backend, and the two were held *bit-identical* —
same Q values, visit counts, greedy policy, RNG draw sequence and
convergence sweeps.  The dict backend now lives only in the test tree
(:mod:`reference_qtable`), and the contract is kept at three levels:

* hypothesis property tests drive the table and the reference through
  random update/restore/episode/query sequences and compare every
  observable after every operation, answering each of the reference's
  state-keyed reads with the table's id-keyed ones;
* end-to-end ``train_type`` courses (both exploration strategies), the
  parallel engine and checkpoint/resume must reproduce SHA-256 digests
  recorded when both backends still trained, which matched, and a
  checkpoint's Q table round-trips between the table and the reference;
* the checkpoint fingerprint of the default configuration is the one
  those runs wrote, so their checkpoints still resume.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ladder_processes, snapshot_digest
from reference_qtable import ReferenceQTable
from repro.actions import default_catalog
from repro.core import PipelineConfig, RecoveryPolicyLearner
from repro.learning.checkpoint import CheckpointStore
from repro.learning.parallel import ParallelTrainingEngine
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.qtable import QTable
from repro.learning.selection_tree import SelectionTreeConfig
from repro.mdp.state import RecoveryState
from repro.policies.serialization import (
    load_qtable,
    qtable_to_payload,
    save_qtable,
    state_from_record,
)
from repro.simplatform.platform import SimulationPlatform

CATALOG = default_catalog()
ACTIONS = tuple(CATALOG.names())

# Digests of the snapshots below, recorded with the dict and the array
# backends (identical for both).
TRAIN_DIGESTS = {
    "boltzmann": (
        "4fe20aab013266a5b513a107778165e7835e2038c485d2ed318188009130aebb"
    ),
    "epsilon": (
        "99efbdf3a2c81b82dc90f6bd0033b32c0a7cbb13eb92fc4dc07826813be2b8d8"
    ),
}
ENGINE_DIGEST = (
    "4fefc68cb0ea0a32758830a0c92ea66998698003d3140ab831663a2cf1558bfd"
)
#: Trains on the ``small_trace`` fixture.  Re-recorded when default
#: traces moved to the fleet engine: the training code from before that
#: move, fed a fleet-generated fixture, gives this same digest.
RESUME_DIGEST = (
    "a92164b60bc7639a555b86d2cfb229b6a56986d78dfdd14acec627aace386617"
)
#: The checkpoint fingerprint of ``PipelineConfig()``.
DEFAULT_FINGERPRINT = "8c71938807134914"

# A small pool of states (one chain plus branches) so random operation
# sequences revisit states often enough to exercise greedy flips.
_S0 = RecoveryState.initial("error:X")
STATES = [
    _S0,
    _S0.after("TRYNOP", False),
    _S0.after("REBOOT", False),
    _S0.after("TRYNOP", False).after("REBOOT", False),
    _S0.after("TRYNOP", False).after("TRYNOP", False),
    RecoveryState.initial("error:Y"),
]
TERMINAL = _S0.after("REBOOT", True)

_targets = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(0, len(STATES) - 1),
            st.integers(0, len(ACTIONS) - 1),
            _targets,
        ),
        st.tuples(
            st.just("restore"),
            st.integers(0, len(STATES) - 1),
            st.integers(0, len(ACTIONS) - 1),
            _targets,
            st.integers(1, 50),
        ),
        st.tuples(st.just("check_policy")),
        # One episode: (state, action, cost) steps, each leading to the
        # next step's state, the last to TERMINAL (-1) or an open state.
        st.tuples(
            st.just("episode"),
            st.lists(
                st.tuples(
                    st.integers(0, len(STATES) - 1),
                    st.integers(0, len(ACTIONS) - 1),
                    _targets,
                ),
                min_size=1,
                max_size=6,
            ),
            st.integers(-1, len(STATES) - 1),
        ),
    ),
    min_size=1,
    max_size=60,
)


def apply_episode(reference, table, op):
    """One episode through both tables; returns both largest |dQ|.

    The reference runs the trainer's old per-step reverse loop (a
    bootstrap read, then an update, per step); the table runs
    :meth:`QTable.apply_episode`.
    """
    _, steps, end = op
    states = [STATES[si] for si, _, _ in steps]
    states.append(TERMINAL if end < 0 else STATES[end])
    reference_delta = 0.0
    for i in range(len(steps) - 1, -1, -1):
        _, ai, cost = steps[i]
        target = cost + reference.bootstrap_value(states[i + 1])
        delta = reference.update(states[i], ACTIONS[ai], target)
        if delta > reference_delta:
            reference_delta = delta
    sids = [table.index.intern(state) for state in states]
    table_delta = table.apply_episode(
        sids[:-1],
        [ai for _, ai, _ in steps],
        [cost for _, _, cost in steps],
        sids[-1],
    )
    return reference_delta, table_delta


def shared_observables(table):
    """The reads both tables answer by state."""
    return {
        "len": len(table),
        "states": list(table.states()),
        "cells": {
            (state, action): (
                table.value(state, action),
                table.visit_count(state, action),
            )
            for state in STATES
            for action in ACTIONS
        },
        "greedy": {state: table.greedy_action(state) for state in STATES},
        "ranked": {state: table.ranked_actions(state) for state in STATES},
    }


def reference_observables(table: ReferenceQTable):
    """Every read of the reference, its state-keyed ones included."""
    observed = shared_observables(table)
    observed.update(
        rows={state: table.values_for(state) for state in STATES},
        totals={state: table.total_visits(state) for state in STATES},
        bootstrap={
            state: table.bootstrap_value(state)
            for state in STATES + [TERMINAL]
        },
        min={state: table.min_value(state) for state in STATES + [TERMINAL]},
        underexplored={
            (state, k): table.underexplored_action(state, k)
            for state in STATES
            for k in (0, 1, 3)
        },
        known={state: table.known(state) for state in STATES},
    )
    return observed


def table_observables(table: QTable):
    """The same reads, the state-keyed ones answered by interned id."""
    index = table.index
    sid = {state: index.intern(state) for state in STATES + [TERMINAL]}
    known = set(table.states())

    def underexplored(state, k):
        aid = table.underexplored_by_id(sid[state], k)
        return None if aid < 0 else ACTIONS[aid]

    observed = shared_observables(table)
    observed.update(
        rows={
            state: dict(zip(ACTIONS, table.q_row(sid[state])))
            for state in STATES
        },
        totals={
            state: sum(table.visit_count(state, a) for a in ACTIONS)
            for state in STATES
        },
        bootstrap={
            state: table.bootstrap_by_id(sid[state])
            for state in STATES + [TERMINAL]
        },
        min={
            state: (
                0.0
                if state.is_terminal
                else min(table.q_row(sid[state]))
            )
            for state in STATES + [TERMINAL]
        },
        underexplored={
            (state, k): underexplored(state, k)
            for state in STATES
            for k in (0, 1, 3)
        },
        known={state: state in known for state in STATES},
    )
    return observed


class TestPropertyEquivalence:
    @given(ops=_ops, alpha_floor=st.sampled_from([0.0, 0.08, 0.5]))
    @settings(max_examples=120, deadline=None)
    def test_random_operation_sequences_match(self, ops, alpha_floor):
        reference = ReferenceQTable(ACTIONS, alpha_floor=alpha_floor)
        table = QTable(ACTIONS, alpha_floor=alpha_floor)
        for op in ops:
            if op[0] == "update":
                _, si, ai, target = op
                delta_ref = reference.update(STATES[si], ACTIONS[ai], target)
                delta = table.update(STATES[si], ACTIONS[ai], target)
                assert delta_ref == delta
            elif op[0] == "restore":
                _, si, ai, value, visits = op
                reference.restore(STATES[si], ACTIONS[ai], value, visits)
                table.restore(STATES[si], ACTIONS[ai], value, visits)
            elif op[0] == "episode":
                delta_ref, delta = apply_episode(reference, table, op)
                assert delta_ref == delta
            else:
                assert (
                    reference.greedy_policy_changed()
                    == table.greedy_policy_changed()
                )
            # Exact equality on purpose: floats must match bit for bit.
            assert reference_observables(reference) == table_observables(
                table
            )

    @given(ops=_ops)
    @settings(max_examples=40, deadline=None)
    def test_policy_change_flag_between_sequences(self, ops):
        """The convergence flag agrees when checked only at the end."""
        reference = ReferenceQTable(ACTIONS)
        table = QTable(ACTIONS)
        assert (
            reference.greedy_policy_changed() == table.greedy_policy_changed()
        )
        for op in ops:
            if op[0] == "update":
                _, si, ai, target = op
                reference.update(STATES[si], ACTIONS[ai], target)
                table.update(STATES[si], ACTIONS[ai], target)
            elif op[0] == "restore":
                _, si, ai, value, visits = op
                reference.restore(STATES[si], ACTIONS[ai], value, visits)
                table.restore(STATES[si], ACTIONS[ai], value, visits)
            elif op[0] == "episode":
                apply_episode(reference, table, op)
        assert (
            reference.greedy_policy_changed() == table.greedy_policy_changed()
        )
        # And once more with no writes in between: both must say stable.
        assert reference.greedy_policy_changed() is False
        assert table.greedy_policy_changed() is False


class TestFactory:
    def test_unknown_backend_rejected(self, tmp_path):
        """No option chooses a Q table any more; each old one is refused."""
        with pytest.raises(TypeError, match="backend"):
            QLearningConfig(backend="dict")
        with pytest.raises(TypeError, match="backend"):
            CheckpointStore(tmp_path, backend="dict")
        path = tmp_path / "q.json"
        save_qtable(QTable(ACTIONS), path)
        with pytest.raises(TypeError, match="backend"):
            load_qtable(path, backend="dict")

    def test_both_satisfy_protocol(self):
        """The table keeps every read and write of the reference that
        extraction, persistence and the course use by state."""
        members = (
            "action_names",
            "initial_value",
            "__len__",
            "states",
            "value",
            "visit_count",
            "greedy_action",
            "ranked_actions",
            "update",
            "restore",
            "greedy_policy_changed",
        )
        for table in (ReferenceQTable(ACTIONS), QTable(ACTIONS)):
            for member in members:
                assert hasattr(table, member), (type(table), member)


def _ladder_groups():
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
    return {"error:Hard": hard, "error:Soft": soft}


def _train(exploration: str = "boltzmann"):
    groups = _ladder_groups()
    ensemble = [p for ps in groups.values() for p in ps]
    platform = SimulationPlatform(ensemble, CATALOG)
    trainer = QLearningTrainer(
        platform,
        QLearningConfig(
            max_sweeps=60,
            episodes_per_sweep=8,
            seed=5,
            exploration=exploration,
        ),
    )
    return {
        error_type: trainer.train_type(error_type, processes)
        for error_type, processes in groups.items()
    }


def _result_snapshot(result, include_order=True):
    table = result.qtable
    return (
        result.sweeps_run,
        result.sweeps_to_convergence,
        result.converged,
        result.episodes,
        {
            (state, action): (
                table.value(state, action),
                table.visit_count(state, action),
            )
            for state in table.states()
            for action in table.action_names
        },
        # First-visit iteration order; meaningful only when the course
        # trained live (a JSON round-trip legitimately re-sorts states).
        list(table.states()) if include_order else None,
    )


class TestEndToEndBitIdentical:
    @pytest.mark.parametrize("exploration", ["boltzmann", "epsilon"])
    def test_train_type_identical_across_backends(self, exploration):
        snapshot = {
            error_type: _result_snapshot(result)
            for error_type, result in _train(exploration).items()
        }
        assert snapshot_digest(snapshot) == TRAIN_DIGESTS[exploration]

    def test_array_backend_is_default(self):
        """The dense table is the one every course trains."""
        assert "backend" not in {
            f.name for f in dataclasses.fields(QLearningConfig)
        }
        result = _train()["error:Soft"]
        assert type(result.qtable) is QTable


class TestParallelEngineBackends:
    def test_engine_outcomes_identical_across_backends(self):
        groups = _ladder_groups()
        ensemble = [p for ps in groups.values() for p in ps]
        engine = ParallelTrainingEngine(
            ensemble,
            CATALOG,
            qlearning=QLearningConfig(
                max_sweeps=40, episodes_per_sweep=8, seed=3
            ),
            tree=SelectionTreeConfig(min_sweeps=10, check_interval=5),
            n_workers=1,
        )
        outcomes = engine.train(groups)
        snapshot = {
            error_type: (
                _result_snapshot(outcome.training),
                outcome.rules,
                outcome.expected_cost,
            )
            for error_type, outcome in outcomes.items()
        }
        assert snapshot_digest(snapshot) == ENGINE_DIGEST


def _reference_from_payload(payload):
    """Load a Q-table payload into the dict reference entry by entry."""
    reference = ReferenceQTable(
        payload["actions"], initial_value=payload["initial_value"]
    )
    for record in payload["entries"]:
        reference.restore(
            state_from_record(record),
            record["action"],
            record["value"],
            record["visits"],
        )
    return reference


def _table_cells(table):
    """Every visited cell and the greedy choice of every known state."""
    return {
        state: (
            tuple(
                (table.value(state, action), table.visit_count(state, action))
                for action in table.action_names
            ),
            table.greedy_action(state),
            table.ranked_actions(state),
        )
        for state in table.states()
    }


class TestCheckpointCrossBackend:
    """A checkpoint written by either table resumes on the other.

    ``dict`` is the dict table the ``backend="dict"`` knob once chose,
    kept as :class:`ReferenceQTable`; ``array`` is :class:`QTable`.
    Only ``QTable`` trains now, so the dict side writes or restores the
    checkpoint's Q-table payload directly.
    """

    def _config(self, checkpoint_dir, resume):
        return PipelineConfig(
            top_k_types=3,
            qlearning=QLearningConfig(
                max_sweeps=40, episodes_per_sweep=8, seed=3
            ),
            tree=SelectionTreeConfig(min_sweeps=10, check_interval=5),
            checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
            resume=resume,
        )

    def _fit(self, processes, checkpoint_dir=None, resume=False):
        return RecoveryPolicyLearner(
            config=self._config(checkpoint_dir, resume)
        ).fit(processes)

    def _learner_snapshot(self, learner):
        assert learner.training_result_ is not None
        return (
            {
                error_type: _result_snapshot(result, include_order=False)
                for error_type, result in (
                    learner.training_result_.per_type.items()
                )
            },
            learner.rules_,
        )

    @pytest.mark.parametrize(
        "write_backend,resume_backend",
        [("dict", "array"), ("array", "dict")],
    )
    def test_resume_across_backends(
        self, tmp_path, small_processes, write_backend, resume_backend
    ):
        checkpoint_dir = tmp_path / "ckpt"
        written = self._fit(small_processes, checkpoint_dir, resume=False)
        assert written.training_result_ is not None
        store = CheckpointStore(checkpoint_dir)
        references = {}
        for error_type in written.training_result_.per_type:
            path = store.path_for(error_type)
            checkpoint = json.loads(path.read_text(encoding="utf-8"))
            reference = _reference_from_payload(checkpoint["qtable"])
            references[error_type] = reference
            if write_backend == "dict":
                # The dict table writes the same payload; resume from
                # the file it wrote.
                rewritten = qtable_to_payload(reference)
                assert rewritten == checkpoint["qtable"]
                checkpoint["qtable"] = rewritten
                path.write_text(
                    json.dumps(checkpoint, indent=1) + "\n",
                    encoding="utf-8",
                )
        if resume_backend == "dict":
            # The dict table restores exactly the table the course
            # trained: every cell, greedy choice and ranking.
            for error_type, result in (
                written.training_result_.per_type.items()
            ):
                assert _table_cells(references[error_type]) == (
                    _table_cells(result.qtable)
                )
        resumed = self._fit(small_processes, checkpoint_dir, resume=True)
        # Every type must come from the checkpoint.
        assert resumed.outcomes_ is not None
        assert all(
            outcome.from_checkpoint
            for outcome in resumed.outcomes_.values()
        )
        for learner in (written, resumed):
            assert (
                snapshot_digest(self._learner_snapshot(learner))
                == RESUME_DIGEST
            )

    def test_backend_change_keeps_fingerprint(self, tmp_path):
        """Dropping the ``backend`` knob kept the default fingerprint, so
        checkpoints written while it existed still resume."""
        learner = RecoveryPolicyLearner(
            config=PipelineConfig(checkpoint_dir=str(tmp_path))
        )
        store = learner._make_checkpoint_store()
        assert store is not None
        assert store.fingerprint == DEFAULT_FINGERPRINT

    def test_other_knobs_still_invalidate(self, tmp_path):
        base = RecoveryPolicyLearner(
            config=self._config(tmp_path, resume=False)
        )
        changed = RecoveryPolicyLearner(
            config=dataclasses.replace(
                self._config(tmp_path, resume=False),
                max_actions=7,
            )
        )
        assert (
            base._make_checkpoint_store().fingerprint
            != changed._make_checkpoint_store().fingerprint
        )
