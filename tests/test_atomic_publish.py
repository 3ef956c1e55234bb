"""Two writers to one path each publish a whole file.

``save_policy_binary`` and ``CheckpointStore.save`` publish through
:func:`repro.records.write_atomic`: a temporary file that no other
writer holds, synced, then renamed over the target.  A save that runs
while another save to the same path sits between its write and its
rename (here: nested inside the outer save's ``os.replace``) leaves the
outer writer's complete file, the last rename winning.  A write that
fails part-way leaves the previous file as it was.  No test sleeps.
"""

from __future__ import annotations

import os

import pytest

from repro.actions import default_catalog
from repro.learning.checkpoint import CheckpointStore, TypeCheckpoint
from repro.learning.qlearning import TypeTrainingResult
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.binary import load_policy_binary, save_policy_binary
from repro.policies.trained import TrainedPolicy
from repro.records import write_atomic
from repro.serving import DecisionServer

S0 = RecoveryState.initial("error:X")
S1 = S0.after("TRYNOP", False)
OUTER = TrainedPolicy({S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)})
INNER = TrainedPolicy({S0: ("TRYNOP", 300.0)})


def _checkpoint(sweeps: int) -> TypeCheckpoint:
    qtable = QTable([a.name for a in default_catalog().by_strength()])
    return TypeCheckpoint(
        error_type="error:X",
        training=TypeTrainingResult(
            error_type="error:X", qtable=qtable, sweeps_run=sweeps,
            sweeps_to_convergence=sweeps, converged=True, episodes=sweeps,
        ),
        rules={S0: ("REBOOT", 2700.0)},
        expected_cost=None,
        candidates_evaluated=0,
        wall_clock=0.0,
    )


def _save_policy(tmp_path, which):
    path = tmp_path / "policy.rpb"
    save_policy_binary(which, path)
    return path


def _save_checkpoint(tmp_path, which):
    store = CheckpointStore(tmp_path)
    return store.save(_checkpoint(7 if which is OUTER else 3))


def _sweeps(path) -> int:
    return CheckpointStore(path.parent).load("error:X").training.sweeps_run


WRITERS = {"policy": _save_policy, "checkpoint": _save_checkpoint}


def _nest_inner_save(monkeypatch, tmp_path, save):
    """Run ``save(INNER)`` inside the next ``os.replace``, before the
    outer save's rename."""
    replace = os.replace
    nested = []

    def interleaved(src, dst):
        if not nested:
            nested.append(dst)
            save(tmp_path, INNER)
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaved)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_nested_save_publishes_outer_writer(tmp_path, monkeypatch, writer):
    save = WRITERS[writer]
    _nest_inner_save(monkeypatch, tmp_path, save)
    path = save(tmp_path, OUTER)
    assert sorted(tmp_path.iterdir()) == [path]
    if writer == "policy":
        loaded = load_policy_binary(path, verify=True)
        assert loaded.rules == OUTER.rules
    else:
        assert _sweeps(path) == 7


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    save = WRITERS[writer]
    path = save(tmp_path, INNER)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk gone"):
        save(tmp_path, OUTER)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


def test_server_serves_outer_writer_after_interleaving(tmp_path, monkeypatch):
    _nest_inner_save(monkeypatch, tmp_path, _save_policy)
    path = _save_policy(tmp_path, OUTER)
    server = DecisionServer(INNER)
    server.publish(load_policy_binary(path))
    served = server.decide_batch([S0, S1])
    assert [row.action for row in served] == ["REIMAGE", "RMA"]


def test_write_atomic_takes_a_free_name(tmp_path):
    """A temporary name another writer holds is skipped, not truncated,
    and the new file gets the mode any new file gets."""
    path = tmp_path / "out.bin"
    held = path.with_name(f"{path.name}.{os.getpid()}-0.tmp")
    held.write_bytes(b"another writer's bytes")
    plain = tmp_path / "plain.bin"
    plain.write_bytes(b"")
    write_atomic(path, [b"ab", b"cd"])
    assert path.read_bytes() == b"abcd"
    assert held.read_bytes() == b"another writer's bytes"
    assert sorted(tmp_path.iterdir()) == [path, held, plain]
    assert path.stat().st_mode == plain.stat().st_mode
