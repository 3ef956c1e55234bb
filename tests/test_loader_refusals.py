"""Values each loader refuses rather than converts.

Every case here once loaded as something else: a ``null`` label as a
policy named ``'None'``, ``"false"`` as a converged course, a numeric
vocabulary as names.  Each must now end as its reader ends: a
path-prefixed ``LogFormatError`` (policies, Q tables, binary containers,
logs), ``None`` from ``CheckpointStore.load`` (the type retrains), or a
``BaselineError``.
"""

import json
import re

import pytest

from helpers import binary_header, write_binary_header
from repro.analysis import Baseline, BaselineError
from repro.analysis.findings import Finding
from repro.errors import LogFormatError
from repro.learning.checkpoint import CheckpointStore, TypeOutcome
from repro.learning.qlearning import TypeTrainingResult
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.binary import load_policy_binary, save_policy_binary
from repro.policies.serialization import (
    load_policy,
    load_qtable,
    save_policy,
    save_qtable,
)
from repro.policies.trained import TrainedPolicy
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.io import iter_log_jsonl, read_log_jsonl, write_log_jsonl

NAN = float("nan")
S0 = RecoveryState.initial("error:X")
S1 = RecoveryState("error:Y", tried=("REBOOT",))
POLICY = TrainedPolicy({S0: ("REBOOT", 600.0), S1: ("RMA", 7200.0)})


def _edit_json(path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _rejects(load, path, prefix):
    with pytest.raises(LogFormatError) as info:
        load(path)
    assert str(info.value).startswith(prefix), str(info.value)


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("policy", "label", None),
        ("policy", "label", 5),
        ("rule", "expected_cost", "7200"),
        ("rule", "expected_cost", True),
        ("rule", "expected_cost", NAN),
    ],
    ids=["label-null", "label-5", "cost-string", "cost-true", "cost-nan"],
)
def test_policy_refuses(tmp_path, where, field, value):
    path = tmp_path / "policy.json"
    save_policy(POLICY, path)

    def edit(payload):
        (payload if where == "policy" else payload["rules"][0])[field] = value

    _edit_json(path, edit)
    _rejects(load_policy, path, f"{path}: ")


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("header", "initial_value", "5"),
        ("header", "initial_value", True),
        ("entry", "value", "12.5"),
        ("entry", "value", True),
    ],
    ids=["initial-string", "initial-true", "value-string", "value-true"],
)
def test_qtable_refuses(tmp_path, where, field, value):
    table = QTable(["TRYNOP", "REBOOT"], initial_value=5.0)
    table.update(S0, "REBOOT", 12.5)
    path = tmp_path / "qtable.json"
    save_qtable(table, path)

    def edit(payload):
        (payload if where == "header" else payload["entries"][0])[field] = value

    _edit_json(path, edit)
    _rejects(load_qtable, path, f"{path}: ")


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("training", "converged", "false"),
        ("training", "sweeps_run", "80"),
        ("training", "sweeps_run", 80.9),
        ("training", "episodes", True),
        ("checkpoint", "expected_cost", "7"),
        ("checkpoint", "candidates_evaluated", "4"),
        ("checkpoint", "wall_clock", "1.5"),
    ],
    ids=[
        "converged-string", "sweeps-string", "sweeps-float", "episodes-true",
        "expected-cost-string", "candidates-string", "wall-clock-string",
    ],
)
def test_checkpoint_retrains(tmp_path, where, field, value):
    table = QTable(["TRYNOP", "REBOOT"])
    table.update(S0, "REBOOT", 12.5)
    store = CheckpointStore(tmp_path, fingerprint="fp")
    path = store.save(
        TypeOutcome(
            training=TypeTrainingResult("error:X", table, 80, 60, False, 640),
            rules={S0: ("REBOOT", 12.5)},
            expected_cost=7.0,
            candidates_evaluated=4,
            wall_clock=1.5,
        )
    )
    assert store.load("error:X") is not None

    def edit(payload):
        (payload[where] if where == "training" else payload)[field] = value

    _edit_json(path, edit)
    assert store.load("error:X") is None
    assert store.completed_types() == ()


@pytest.mark.parametrize(
    "field, value",
    [
        ("label", None),
        ("error_types", [1, 1]),
        ("max_history", "2"),
        ("max_history", True),
    ],
    ids=["label-null", "numeric-error-types", "max-history-string",
         "max-history-true"],
)
@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
def test_binary_header_refuses(tmp_path, field, value, mmap):
    path = tmp_path / "policy.rpb"
    save_policy_binary(POLICY, path)
    write_binary_header(path, {**binary_header(path), field: value})
    _rejects(
        lambda p: load_policy_binary(p, mmap=mmap, verify=True),
        path,
        f"{path}: ",
    )


#: Two names in each vocabulary: error types A and B, history actions
#: REBOOT and REIMAGE, decided actions REIMAGE and RMA.
VOCABULARY_POLICY = TrainedPolicy({
    RecoveryState.initial("error:A"): ("REIMAGE", 600.0),
    RecoveryState("error:B", tried=("REBOOT",)): ("RMA", 7200.0),
    RecoveryState("error:B", tried=("REBOOT", "REIMAGE")): ("RMA", 7200.0),
})


@pytest.mark.parametrize(
    "field", ["error_types", "history_actions", "decided_actions"]
)
@pytest.mark.parametrize("verify", [True, False], ids=["verify", "trust"])
@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
def test_binary_vocabulary_repeating_a_name_refused(tmp_path, field, verify, mmap):
    # A repeat at the same length keeps the header valid and declared;
    # read as is, the repeated name would answer with the other's rules.
    path = tmp_path / "policy.rpb"
    save_policy_binary(VOCABULARY_POLICY, path)
    header = binary_header(path)
    first = header[field][0]
    write_binary_header(path, {**header, field: [first, first]})
    _rejects(
        lambda p: load_policy_binary(p, mmap=mmap, verify=verify),
        path,
        f"{path}: {field} repeats the name {first!r}",
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("time", "12"),
        ("time", True),
        ("machine", None),
        ("machine", 7),
        ("description", ["a"]),
    ],
    ids=["time-string", "time-true", "machine-null", "machine-7",
         "description-list"],
)
@pytest.mark.parametrize("reader", [read_log_jsonl, iter_log_jsonl])
def test_jsonl_log_refuses(tmp_path, field, value, reader):
    path = tmp_path / "log.jsonl"
    write_log_jsonl([LogEntry.symptom(12.0, "m-1", "error:X")] * 2, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[field] = value
    path.write_text(f"{lines[0]}\n{json.dumps(record)}\n", encoding="utf-8")
    _rejects(lambda p: list(reader(p)), path, f"{path}:2: ")


@pytest.mark.parametrize(
    "field, value",
    [("path", 5), ("message", None), ("line", "3")],
    ids=["path-5", "message-null", "line-string"],
)
def test_lint_baseline_refuses(tmp_path, field, value):
    path = tmp_path / "baseline.json"
    Baseline([Finding("pkg/a.py", 3, 4, "R1", "boom", "fix it")]).save(path)

    def edit(payload):
        payload["findings"][0][field] = value

    _edit_json(path, edit)
    with pytest.raises(BaselineError, match=re.escape(field)):
        Baseline.load(path)


def test_lint_baseline_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_bytes(b'{"version": 1, "findings": ["\xff"]}')
    with pytest.raises(BaselineError, match="not JSON"):
        Baseline.load(path)
