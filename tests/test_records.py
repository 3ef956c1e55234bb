"""The record declarations of :mod:`repro.records` against savers and loaders.

Two properties, one per direction:

* conformance: whatever a saver writes, its declaration accepts, and
  the loader reads it back bit for bit (hypothesis-generated policies,
  Q tables, checkpoints, logs and lint baselines);
* refusal: replacing one field of a saver-written record by a value of
  every JSON type, by a value outside the field's declared range, or
  dropping it, makes the loader refuse the file, ending as that reader
  ends, whenever the declaration refuses the result.  The mutations
  are derived from the declarations, so a field added to a declaration
  is mutated without touching this file.
"""

import copy
import io
import json
from contextlib import redirect_stderr
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binary_header, write_binary_header
from repro.analysis import Baseline, BaselineError
from repro.analysis.findings import Finding
from repro.cli import main
from repro.errors import LogFormatError, TrainingError
from repro.learning.checkpoint import CheckpointStore, TypeCheckpoint
from repro.learning.qlearning import TypeTrainingResult
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.binary import load_policy_binary, save_policy_binary
from repro.policies.serialization import (
    load_policy,
    load_qtable,
    save_policy,
    save_qtable,
    state_to_record,
)
from repro.policies.trained import TrainedPolicy
from repro.records import (
    BASELINE,
    BINARY_HEADER,
    CHECKPOINT,
    LOG_LINE,
    POLICY,
    QTABLE,
    QTABLE_ENTRY,
    RULE,
    STATE,
    TRAINING,
    ARRAY_SPEC,
    FINDING,
    Integer,
)
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.io import iter_log_jsonl, read_log_jsonl, write_log_jsonl

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_NAMES = st.text(
    st.one_of(st.sampled_from('"\\é \U0001f600'), st.characters()),
    min_size=1,
    max_size=6,
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_COUNTS = st.integers(0, 2**63 - 1)
_TIMES = st.one_of(st.floats(0.0, 1e12), st.integers(0, 2**70))
_ENTRIES = st.one_of(
    st.builds(LogEntry.symptom, _TIMES, _NAMES, _NAMES),
    st.builds(LogEntry.action, _TIMES, _NAMES, _NAMES),
    st.builds(LogEntry.success, _TIMES, _NAMES),
)


@st.composite
def _rule_tables(draw):
    """``{state: (action, cost)}`` over a few drawn names."""
    types = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    actions = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    rules = {}
    for _ in range(draw(st.integers(0, 8))):
        state = RecoveryState(
            draw(st.sampled_from(types)),
            tried=tuple(draw(st.lists(st.sampled_from(actions), max_size=3))),
        )
        rules[state] = (draw(st.sampled_from(actions)), draw(_FLOATS))
    return rules


@st.composite
def _qtables(draw):
    actions = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    qtable = QTable(
        actions,
        initial_value=draw(st.floats(-1e6, 1e6)),
        alpha_floor=draw(st.sampled_from([0.0, 0.05])),
    )
    types = draw(st.lists(_NAMES, min_size=1, max_size=2, unique=True))
    for _ in range(draw(st.integers(0, 10))):
        state = RecoveryState(
            draw(st.sampled_from(types)),
            tried=tuple(draw(st.lists(st.sampled_from(actions), max_size=2))),
        )
        qtable.update(
            state, draw(st.sampled_from(actions)), draw(st.floats(-1e9, 1e9))
        )
    return qtable


def _bits(value):
    return np.float64(value).tobytes()


def _same_rules(got, want):
    assert got.keys() == want.keys()
    for state, (action, cost) in want.items():
        assert got[state][0] == action
        assert _bits(got[state][1]) == _bits(cost)


def _same_qtable(got, want):
    assert got.action_names == want.action_names
    assert _bits(got.initial_value) == _bits(want.initial_value)
    assert sorted(got.states(), key=repr) == sorted(want.states(), key=repr)
    for state in want.states():
        for action in want.action_names:
            assert got.visit_count(state, action) == want.visit_count(
                state, action
            )
            assert _bits(got.value(state, action)) == _bits(
                want.value(state, action)
            )


# ----------------------------------------------------------------------
# Conformance: what the savers write, the declarations accept
# ----------------------------------------------------------------------
class TestSaversConform:
    @settings(max_examples=60, deadline=None)
    @given(_rule_tables(), st.text(max_size=6))
    def test_policy_json_and_binary(self, rules, label):
        policy = TrainedPolicy(rules, label=label)
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.json"
            save_policy(policy, path)
            POLICY.read(json.loads(path.read_text(encoding="utf-8")))
            loaded = load_policy(path)
            assert loaded.name == label
            _same_rules(loaded.rules, policy.rules)

            path = Path(tmp) / "policy.rpb"
            save_policy_binary(policy, path)
            BINARY_HEADER.check("header", binary_header(path))
            for mmap in (True, False):
                loaded = load_policy_binary(path, mmap=mmap, verify=True)
                assert loaded.name == label
                assert loaded.columns[:4] == policy.columns[:4]
                _same_rules(loaded.rules, policy.rules)

    @settings(max_examples=60, deadline=None)
    @given(_qtables())
    def test_qtable(self, qtable):
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "qtable.json"
            save_qtable(qtable, path)
            QTABLE.read(json.loads(path.read_text(encoding="utf-8")))
            _same_qtable(load_qtable(path), qtable)

    @settings(max_examples=40, deadline=None)
    @given(
        qtable=_qtables(),
        rules=_rule_tables(),
        training=st.tuples(_COUNTS, _COUNTS, st.booleans(), _COUNTS),
        expected_cost=st.one_of(st.none(), _FLOATS),
        candidates=_COUNTS,
        wall_clock=_FLOATS,
    )
    def test_checkpoint(
        self, qtable, rules, training, expected_cost, candidates, wall_clock
    ):
        sweeps, to_convergence, converged, episodes = training
        checkpoint = TypeCheckpoint(
            error_type="error:X",
            training=TypeTrainingResult(
                "error:X", qtable, sweeps, to_convergence, converged, episodes
            ),
            rules=rules,
            expected_cost=expected_cost,
            candidates_evaluated=candidates,
            wall_clock=wall_clock,
        )
        with TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp, fingerprint="fp")
            path = store.save(checkpoint)
            CHECKPOINT.read(json.loads(path.read_text(encoding="utf-8")))
            loaded = store.load("error:X")
            assert loaded is not None
            _same_qtable(loaded.training.qtable, qtable)
            assert loaded.training.sweeps_run == sweeps
            assert loaded.training.sweeps_to_convergence == to_convergence
            assert loaded.training.converged is converged
            assert loaded.training.episodes == episodes
            _same_rules(loaded.rules, rules)
            assert (loaded.expected_cost is None) == (expected_cost is None)
            if expected_cost is not None:
                assert _bits(loaded.expected_cost) == _bits(expected_cost)
            assert loaded.candidates_evaluated == candidates
            assert _bits(loaded.wall_clock) == _bits(wall_clock)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ENTRIES, max_size=8))
    def test_jsonl_log(self, entries):
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.jsonl"
            write_log_jsonl(entries, path)
            for line in path.read_text(encoding="utf-8").splitlines():
                LOG_LINE.read(json.loads(line))
            loaded = list(iter_log_jsonl(path))
            assert [(e.machine, e.kind, e.description) for e in loaded] == [
                (e.machine, e.kind, e.description) for e in entries
            ]
            assert [_bits(e.time) for e in loaded] == [
                _bits(float(e.time)) for e in entries
            ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.builds(
                Finding,
                path=st.text(max_size=6),
                line=_COUNTS,
                column=_COUNTS,
                rule=st.text(max_size=3),
                message=st.text(max_size=6),
                suggestion=st.text(max_size=6),
            ),
            max_size=5,
        )
    )
    def test_lint_baseline(self, findings):
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            Baseline(findings).save(path)
            BASELINE.read(json.loads(path.read_text(encoding="utf-8")))
            assert Baseline.load(path).findings == sorted(findings)


# ----------------------------------------------------------------------
# Refusal: one mutation harness per record type
# ----------------------------------------------------------------------
MISSING = object()
#: A value of every JSON type, then values outside common ranges: an
#: empty name, non-finite and float-overflowing numbers, an unknown tag,
#: lists of the wrong items.
VALUES = [None, True, 3, 2.5, float("nan"), "text", [1], {"a": 1}] + [
    "", float("inf"), -float("inf"), 10**400, "repro/other@1", [True],
    ["text", None], [-1], [5], [[]],
]


def _mutations(kind):
    """Values to put in a field of ``kind``: ``VALUES``, the integers
    just outside its declared range, and ``MISSING`` (drop the field)."""
    bounds = [kind.low - 1, kind.high + 1] if isinstance(kind, Integer) else []
    return VALUES + bounds + [MISSING]


class Harness(NamedTuple):
    """How one record type is saved, found, rewritten and loaded."""

    record: object  # the declaration whose fields are mutated
    top: Callable  # checks the whole parsed file as its reader does
    make: Callable  # writes a saver-made file into a directory
    read: Callable  # parses the file
    write: Callable  # writes a parsed (mutated) file back
    locate: Callable  # the record inside the parsed file
    outcome: Callable  # "loaded", "refused" (the reader's ending), "other"


def _json_read(path):
    """A JSON document, or the one line of a JSONL file."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _json_write(path, payload):
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _prefixed(call, path, prefix):
    try:
        call(path)
    except LogFormatError as exc:
        assert str(exc).startswith(prefix.format(path=path)), str(exc)
        return "refused"
    return "loaded"


def _policy_file(tmp):
    path = Path(tmp) / "policy.json"
    state = RecoveryState("error:X", tried=("REBOOT",))
    save_policy(TrainedPolicy({state: ("RMA", 7200.0)}, label="shift"), path)
    return path


def _qtable_file(tmp):
    path = Path(tmp) / "qtable.json"
    table = QTable(["TRYNOP", "REBOOT"], initial_value=5.0)
    table.update(RecoveryState("error:X", tried=("TRYNOP",)), "REBOOT", 12.5)
    save_qtable(table, path)
    return path


def _checkpoint_store(tmp):
    return CheckpointStore(Path(tmp) / "ckpt", fingerprint="fp")


def _checkpoint_file(tmp):
    table = QTable(["TRYNOP", "REBOOT"])
    table.update(RecoveryState("error:X"), "REBOOT", 12.5)
    return _checkpoint_store(tmp).save(
        TypeCheckpoint(
            error_type="error:X",
            training=TypeTrainingResult("error:X", table, 80, 60, False, 640),
            rules={RecoveryState("error:X"): ("REBOOT", 12.5)},
            expected_cost=7.0,
            candidates_evaluated=4,
            wall_clock=1.5,
        )
    )


def _checkpoint_outcome(path):
    store = _checkpoint_store(Path(path).parent.parent)
    try:
        return "refused" if store.load("error:X") is None else "loaded"
    except TrainingError:
        # A checkpoint of another (declared-valid) type: tampering.
        return "other"


def _binary_file(tmp):
    path = Path(tmp) / "policy.rpb"
    state = RecoveryState("error:X", tried=("REBOOT",))
    save_policy_binary(TrainedPolicy({state: ("RMA", 7200.0)}), path)
    return path


def _binary_outcome(path):
    outcomes = {
        _prefixed(
            lambda p: load_policy_binary(p, mmap=mmap, verify=True),
            path,
            "{path}: ",
        )
        for mmap in (True, False)
    }
    assert len(outcomes) == 1, outcomes
    return outcomes.pop()


def _log_file(tmp):
    path = Path(tmp) / "log.jsonl"
    write_log_jsonl([LogEntry.symptom(12.5, "m-1", "error:X")], path)
    return path


def _query_file(tmp):
    save_policy(
        TrainedPolicy({RecoveryState("error:X"): ("REBOOT", 1.0)}),
        Path(tmp) / "policy.json",
    )
    path = Path(tmp) / "queries.jsonl"
    _json_write(path, state_to_record(RecoveryState("error:X", tried=("RMA",))))
    return path


def _serve_outcome(path):
    stderr = io.StringIO()
    argv = [
        "serve",
        "--policy", str(Path(path).parent / "policy.json"),
        "--queries", str(path),
        "--out", str(Path(path).parent / "answers.jsonl"),
    ]
    with redirect_stderr(stderr):
        code = main(argv)
    if code == 0:
        return "loaded"
    lines = stderr.getvalue().splitlines()
    assert code == 1 and lines[-1].startswith(f"error: {path}:1: "), lines
    return "refused"


def _baseline_file(tmp):
    path = Path(tmp) / "baseline.json"
    Baseline([Finding("pkg/a.py", 3, 4, "R1", "boom", "fix it")]).save(path)
    return path


def _baseline_outcome(path):
    try:
        Baseline.load(path)
    except BaselineError:
        return "refused"
    return "loaded"


_POLICY = dict(
    top=POLICY.read, make=_policy_file, read=_json_read, write=_json_write,
    outcome=lambda p: _prefixed(load_policy, p, "{path}: "),
)
_QTABLE = dict(
    top=QTABLE.read, make=_qtable_file, read=_json_read, write=_json_write,
    outcome=lambda p: _prefixed(load_qtable, p, "{path}: "),
)
_CHECKPOINT = dict(
    top=CHECKPOINT.read, make=_checkpoint_file, read=_json_read,
    write=_json_write, outcome=_checkpoint_outcome,
)
_BINARY = dict(
    top=lambda header: BINARY_HEADER.check("header", header),
    make=_binary_file, read=binary_header, write=write_binary_header,
    outcome=_binary_outcome,
)
_BASELINE = dict(
    top=BASELINE.read, make=_baseline_file, read=_json_read,
    write=_json_write, outcome=_baseline_outcome,
)

HARNESSES = {
    "state": Harness(
        STATE, top=STATE.read, make=_query_file, read=_json_read,
        write=_json_write, locate=lambda record: record,
        outcome=_serve_outcome,
    ),
    "rule": Harness(RULE, locate=lambda doc: doc["rules"][0], **_POLICY),
    "policy": Harness(POLICY, locate=lambda doc: doc, **_POLICY),
    "qtable-entry": Harness(
        QTABLE_ENTRY, locate=lambda doc: doc["entries"][0], **_QTABLE
    ),
    "qtable": Harness(QTABLE, locate=lambda doc: doc, **_QTABLE),
    "training": Harness(
        TRAINING, locate=lambda doc: doc["training"], **_CHECKPOINT
    ),
    "checkpoint": Harness(CHECKPOINT, locate=lambda doc: doc, **_CHECKPOINT),
    "log-line": Harness(
        LOG_LINE, top=LOG_LINE.read, make=_log_file, read=_json_read,
        write=_json_write, locate=lambda record: record,
        outcome=lambda p: _prefixed(read_log_jsonl, p, "{path}:1: "),
    ),
    "array-spec": Harness(
        ARRAY_SPEC, locate=lambda header: header["arrays"]["keys"], **_BINARY
    ),
    "binary-header": Harness(
        BINARY_HEADER, locate=lambda header: header, **_BINARY
    ),
    "finding": Harness(
        FINDING, locate=lambda doc: doc["findings"][0], **_BASELINE
    ),
    "baseline": Harness(BASELINE, locate=lambda doc: doc, **_BASELINE),
}


def _declared(top, parsed):
    try:
        top(parsed)
    except LogFormatError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_loader_refuses_what_the_declaration_refuses(tmp_path, name):
    harness = HARNESSES[name]
    path = harness.make(tmp_path)
    saved = harness.read(path)
    assert _declared(harness.top, saved)
    assert harness.outcome(path) == "loaded"
    refused = 0
    for field, kind in harness.record.fields.items():
        for value in _mutations(kind):
            parsed = copy.deepcopy(saved)
            record = harness.locate(parsed)
            if value is MISSING:
                del record[field]
            else:
                record[field] = value
            harness.write(path, parsed)
            outcome = harness.outcome(path)
            if not _declared(harness.top, parsed):
                assert outcome == "refused", (field, value)
                refused += 1
    # Every field has mutations its declaration refuses.
    assert refused >= len(harness.record.fields)


def test_every_record_type_has_a_harness():
    declared = {
        STATE, RULE, POLICY, QTABLE_ENTRY, QTABLE, TRAINING, CHECKPOINT,
        LOG_LINE, ARRAY_SPEC, BINARY_HEADER, FINDING, BASELINE,
    }
    assert {harness.record for harness in HARNESSES.values()} == declared
