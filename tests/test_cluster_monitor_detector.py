"""Tests for the event monitor and fault detector components of the
event-driven reference simulator (``reference_cluster``)."""

import pytest

from reference_cluster import EventMonitor, FaultDetector
from repro.errors import ConfigurationError
from repro.recoverylog.entry import LogEntry


class TestEventMonitor:
    def test_records_into_log(self):
        monitor = EventMonitor()
        monitor.record_symptom(1.0, "m", "error:X")
        monitor.record_action(2.0, "m", "REBOOT")
        monitor.record_success(3.0, "m")
        assert len(monitor.log) == 3
        assert monitor.log[2].is_success

    def test_listeners_notified_in_order(self):
        monitor = EventMonitor()
        seen = []
        monitor.subscribe(lambda e: seen.append(("a", e.description)))
        monitor.subscribe(lambda e: seen.append(("b", e.description)))
        monitor.record_symptom(1.0, "m", "error:X")
        assert seen == [("a", "error:X"), ("b", "error:X")]

    def test_external_log_shared(self):
        from repro.recoverylog.log import RecoveryLog

        log = RecoveryLog()
        monitor = EventMonitor(log)
        monitor.record_symptom(1.0, "m", "error:X")
        assert len(log) == 1


class TestFaultDetector:
    def test_detects_first_symptom_only(self):
        detections = []
        detector = FaultDetector(lambda m, s: detections.append((m, s)))
        detector.observe(LogEntry.symptom(1.0, "m", "error:X"))
        detector.observe(LogEntry.symptom(2.0, "m", "error:X"))
        detector.observe(LogEntry.symptom(3.0, "m", "warn:Y"))
        assert detections == [("m", "error:X")]
        assert detector.detections == 1

    def test_success_closes_recovery(self):
        detections = []
        detector = FaultDetector(lambda m, s: detections.append((m, s)))
        detector.observe(LogEntry.symptom(1.0, "m", "error:X"))
        detector.observe(LogEntry.success(5.0, "m"))
        detector.observe(LogEntry.symptom(9.0, "m", "error:Y"))
        assert detections == [("m", "error:X"), ("m", "error:Y")]

    def test_machines_tracked_independently(self):
        detections = []
        detector = FaultDetector(lambda m, s: detections.append(m))
        detector.observe(LogEntry.symptom(1.0, "m-a", "error:X"))
        detector.observe(LogEntry.symptom(2.0, "m-b", "error:X"))
        assert detections == ["m-a", "m-b"]

    def test_active_symptom(self):
        detector = FaultDetector(lambda m, s: None)
        detector.observe(LogEntry.symptom(1.0, "m", "error:X"))
        assert detector.active_symptom("m") == "error:X"
        assert detector.active_symptom("other") is None

    def test_actions_do_not_trigger(self):
        detections = []
        detector = FaultDetector(lambda m, s: detections.append(m))
        detector.observe(LogEntry.action(1.0, "m", "REBOOT"))
        assert detections == []

    def test_missing_handler_raises(self):
        detector = FaultDetector()
        with pytest.raises(ConfigurationError):
            detector.observe(LogEntry.symptom(1.0, "m", "error:X"))

    def test_set_handler_later(self):
        detector = FaultDetector()
        seen = []
        detector.set_handler(lambda m, s: seen.append(s))
        detector.observe(LogEntry.symptom(1.0, "m", "error:X"))
        assert seen == ["error:X"]
