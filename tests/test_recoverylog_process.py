"""Tests for repro.recoverylog.process: structure, views, segmentation."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from helpers import make_process
from repro.errors import SegmentationError
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.process import (
    RecoveryProcess,
    segment_log,
    time_ordered_split,
)


class TestProcessInvariants:
    def test_must_start_with_symptom(self):
        entries = (
            LogEntry.action(0.0, "m", "REBOOT"),
            LogEntry.success(1.0, "m"),
        )
        with pytest.raises(SegmentationError):
            RecoveryProcess("m", entries)

    def test_must_end_with_success(self):
        entries = (
            LogEntry.symptom(0.0, "m", "error:X"),
            LogEntry.action(1.0, "m", "REBOOT"),
        )
        with pytest.raises(SegmentationError):
            RecoveryProcess("m", entries)

    def test_times_must_be_monotone(self):
        entries = (
            LogEntry.symptom(5.0, "m", "error:X"),
            LogEntry.success(1.0, "m"),
        )
        with pytest.raises(SegmentationError):
            RecoveryProcess("m", entries)

    def test_mid_process_success_rejected(self):
        entries = (
            LogEntry.symptom(0.0, "m", "error:X"),
            LogEntry.success(1.0, "m"),
            LogEntry.success(2.0, "m"),
        )
        with pytest.raises(SegmentationError):
            RecoveryProcess("m", entries)

    def test_mid_process_success_equal_to_final_rejected(self):
        # The middle success report equals the last one field for field.
        entries = (
            LogEntry.symptom(0.0, "m", "error:X"),
            LogEntry.action(1.0, "m", "REBOOT"),
            LogEntry.success(2.0, "m"),
            LogEntry.action(2.0, "m", "RMA"),
            LogEntry.success(2.0, "m"),
        )
        with pytest.raises(SegmentationError, match="middle"):
            RecoveryProcess("m", entries)

    def test_foreign_machine_rejected(self):
        entries = (
            LogEntry.symptom(0.0, "m", "error:X"),
            LogEntry.success(1.0, "other"),
        )
        with pytest.raises(SegmentationError):
            RecoveryProcess("m", entries)


#: Builds a process, hashes it and writes its pickle (hex) to stdout.
_PICKLE_HASHED = """
import pickle, sys
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.process import RecoveryProcess
process = RecoveryProcess("m", (
    LogEntry.symptom(0.0, "m", "error:X"),
    LogEntry.action(1.0, "m", "REBOOT"),
    LogEntry.success(2.0, "m"),
))
hash(process)
sys.stdout.write(pickle.dumps(process).hex())
"""

#: Loads that pickle from stdin and looks it up by a freshly built twin.
_LOOK_UP_LOADED = """
import pickle, sys
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.process import RecoveryProcess
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
twin = RecoveryProcess("m", (
    LogEntry.symptom(0.0, "m", "error:X"),
    LogEntry.action(1.0, "m", "REBOOT"),
    LogEntry.success(2.0, "m"),
))
assert loaded == twin
assert hash(loaded) == hash(twin)
assert {twin: 1}.get(loaded) == 1
"""


def _python(code: str, hash_seed: str, stdin: str = "") -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestProcessPickling:
    def test_memoized_hash_not_pickled(self):
        process = make_process(["REBOOT"])
        hash(process)
        assert "_hash" in process.__dict__
        loaded = pickle.loads(pickle.dumps(process))
        assert "_hash" not in loaded.__dict__
        assert loaded == process and hash(loaded) == hash(process)

    def test_loaded_under_another_hash_seed_finds_its_twin(self):
        pickled = _python(_PICKLE_HASHED, "1")
        _python(_LOOK_UP_LOADED, "2", stdin=pickled)


class TestDerivedViews:
    def test_error_type_is_initial_symptom(self):
        process = make_process(["TRYNOP"], error_type="error:Boom")
        assert process.error_type == "error:Boom"

    def test_symptom_set_includes_extras(self):
        process = make_process(
            ["TRYNOP"], extra_symptoms=["warn:A", "warn:B"]
        )
        assert process.symptom_set == {"error:X", "warn:A", "warn:B"}

    def test_actions_in_order(self):
        process = make_process(["TRYNOP", "REBOOT", "REIMAGE"])
        assert process.actions == ("TRYNOP", "REBOOT", "REIMAGE")

    def test_attempts_durations_and_outcomes(self):
        process = make_process(["TRYNOP", "REBOOT"], step=600.0)
        attempts = process.attempts
        assert len(attempts) == 2
        assert attempts[0].duration == pytest.approx(600.0)
        assert not attempts[0].succeeded
        assert attempts[1].succeeded

    def test_final_attempt_duration_spans_to_success(self):
        process = make_process(["REBOOT"], step=450.0)
        assert process.attempts[0].duration == pytest.approx(450.0)

    def test_downtime(self):
        process = make_process(
            ["TRYNOP"], start=100.0, step=600.0, detection_delay=60.0
        )
        assert process.downtime == pytest.approx(660.0)

    def test_final_action(self):
        process = make_process(["TRYNOP", "RMA"])
        assert process.final_action == "RMA"

    def test_render_contains_rows(self):
        text = make_process(["REBOOT"]).render()
        assert "REBOOT" in text and "Success" in text


class TestSegmentation:
    def test_splits_two_processes_same_machine(self):
        p1 = make_process(["TRYNOP"], machine="m", start=0.0)
        p2 = make_process(["REBOOT"], machine="m", start=10_000.0)
        entries = list(p1.entries) + list(p2.entries)
        result = segment_log(entries)
        assert len(result.processes) == 2
        assert result.processes[0].actions == ("TRYNOP",)
        assert result.processes[1].actions == ("REBOOT",)

    def test_machines_are_independent(self):
        p1 = make_process(["TRYNOP"], machine="m-a", start=0.0)
        p2 = make_process(["REBOOT"], machine="m-b", start=5.0)
        result = segment_log(list(p1.entries) + list(p2.entries))
        assert len(result.processes) == 2

    def test_interleaved_entries_resolve_by_machine(self):
        p1 = make_process(["TRYNOP"], machine="m-a", start=0.0)
        p2 = make_process(["REBOOT"], machine="m-b", start=1.0)
        mixed = sorted(list(p1.entries) + list(p2.entries))
        result = segment_log(mixed)
        by_machine = {p.machine: p for p in result.processes}
        assert by_machine["m-a"].actions == ("TRYNOP",)
        assert by_machine["m-b"].actions == ("REBOOT",)

    def test_trailing_incomplete_kept(self):
        p1 = make_process(["TRYNOP"], machine="m", start=0.0)
        trailing = [
            LogEntry.symptom(20_000.0, "m", "error:Y"),
            LogEntry.action(20_100.0, "m", "REBOOT"),
        ]
        result = segment_log(list(p1.entries) + trailing)
        assert len(result.processes) == 1
        assert len(result.incomplete) == 1
        assert result.completion_ratio == pytest.approx(0.5)

    def test_orphaned_entries_reported(self):
        entries = [
            LogEntry.action(0.0, "m", "REBOOT"),
            LogEntry.success(1.0, "m"),
        ]
        result = segment_log(entries)
        assert not result.processes
        assert len(result.orphaned) == 2

    def test_processes_sorted_by_start_time(self):
        p_late = make_process(["TRYNOP"], machine="m-a", start=500.0)
        p_early = make_process(["REBOOT"], machine="m-b", start=0.0)
        result = segment_log(list(p_late.entries) + list(p_early.entries))
        assert [p.machine for p in result.processes] == ["m-b", "m-a"]

    def test_empty_log(self):
        result = segment_log([])
        assert result.processes == ()
        assert result.completion_ratio == 1.0


class TestTimeOrderedSplit:
    def _processes(self, n):
        return [
            make_process(["TRYNOP"], machine=f"m-{i}", start=i * 1000.0)
            for i in range(n)
        ]

    def test_split_sizes(self):
        train, test = time_ordered_split(self._processes(10), 0.4)
        assert len(train) == 4 and len(test) == 6

    def test_train_is_strictly_earlier(self):
        train, test = time_ordered_split(self._processes(10), 0.5)
        assert max(p.start_time for p in train) < min(
            p.start_time for p in test
        )

    def test_unsorted_input_is_sorted(self):
        processes = self._processes(6)[::-1]
        train, test = time_ordered_split(processes, 0.5)
        assert max(p.start_time for p in train) < min(
            p.start_time for p in test
        )

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1])
    def test_invalid_fraction_rejected(self, fraction):
        with pytest.raises(SegmentationError):
            time_ordered_split(self._processes(3), fraction)
