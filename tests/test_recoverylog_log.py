"""Tests for repro.recoverylog.log."""

import pytest

from helpers import make_process
from repro.errors import LogFormatError
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.log import RecoveryLog


class TestContainer:
    def test_entries_sorted_on_construction(self):
        log = RecoveryLog(
            [
                LogEntry.success(5.0, "m"),
                LogEntry.symptom(1.0, "m", "error:X"),
            ]
        )
        assert [e.time for e in log] == [1.0, 5.0]

    def test_append_out_of_order_keeps_sorted(self):
        log = RecoveryLog([LogEntry.symptom(10.0, "m", "error:X")])
        log.append(LogEntry.symptom(1.0, "m", "error:Y"))
        assert [e.time for e in log] == [1.0, 10.0]

    def test_append_in_order_fast_path(self):
        log = RecoveryLog()
        log.append(LogEntry.symptom(1.0, "m", "error:X"))
        log.append(LogEntry.success(2.0, "m"))
        assert len(log) == 2

    def test_append_rejects_non_entry(self):
        log = RecoveryLog()
        with pytest.raises(LogFormatError):
            log.append("not an entry")

    def test_extend_rejects_non_entry(self):
        log = RecoveryLog()
        with pytest.raises(LogFormatError):
            log.extend([LogEntry.symptom(1.0, "m", "e"), 42])

    def test_construction_rejects_non_entry(self):
        # A plain tuple with a row's values would sort in silently.
        entry = LogEntry.symptom(1.0, "m", "e")
        with pytest.raises(LogFormatError, match="expected LogEntry, got tuple"):
            RecoveryLog([entry, tuple(entry)])

    def test_machines(self):
        log = RecoveryLog(
            [
                LogEntry.symptom(1.0, "m-a", "error:X"),
                LogEntry.symptom(2.0, "m-b", "error:X"),
            ]
        )
        assert log.machines() == {"m-a", "m-b"}

    def test_start_and_end_time(self):
        log = RecoveryLog(
            [
                LogEntry.symptom(3.0, "m", "error:X"),
                LogEntry.success(9.0, "m"),
            ]
        )
        assert log.start_time == 3.0
        assert log.end_time == 9.0

    def test_equality(self):
        entries = [LogEntry.symptom(1.0, "m", "error:X")]
        assert RecoveryLog(entries) == RecoveryLog(entries)
        assert RecoveryLog(entries) != RecoveryLog()

    def test_repr_mentions_count(self):
        assert "entries=0" in repr(RecoveryLog())


class TestSegmentationCache:
    def test_to_processes(self):
        process = make_process(["TRYNOP"])
        log = RecoveryLog(process.entries)
        assert log.to_processes() == (process,)

    def test_cache_invalidated_on_append(self):
        p1 = make_process(["TRYNOP"], machine="m", start=0.0)
        log = RecoveryLog(p1.entries)
        assert len(log.to_processes()) == 1
        p2 = make_process(["REBOOT"], machine="m", start=10_000.0)
        log.extend(p2.entries)
        assert len(log.to_processes()) == 2

    def test_segmentation_result_cached(self):
        log = RecoveryLog(make_process(["TRYNOP"]).entries)
        assert log.segmentation() is log.segmentation()


class TestFiltered:
    def test_filter_by_machine(self):
        p1 = make_process(["TRYNOP"], machine="m-a")
        p2 = make_process(["REBOOT"], machine="m-b")
        log = RecoveryLog(list(p1.entries) + list(p2.entries))
        only_a = log.filtered(machines={"m-a"})
        assert only_a.machines() == {"m-a"}

    def test_filter_none_copies(self):
        log = RecoveryLog(make_process(["TRYNOP"]).entries)
        copy = log.filtered()
        assert copy == log and copy is not log
