"""Detection-latency races and same-instant log ordering.

Two classes of edge case pinned here:

* **Same-instant entries.**  With zero detection and decision delays a
  symptom, the action answering it and the success report land on one
  ``(time, machine)`` pair.  :class:`~repro.recoverylog.entry.LogEntry`
  originally derived its ordering from ``dataclass(order=True)``, whose
  field-tuple comparison reached the ``kind`` enum on such ties and
  raised ``TypeError`` (enum members define no ``<``).  The explicit
  causal total order — symptom < action < success — fixed that; the
  regression tests here keep it fixed, on both backends.

* **Detection races.**  Symptoms that fire around process boundaries —
  re-emissions and secondary symptoms scheduled before a cure but
  firing after it — must never start a phantom recovery, and a fault
  that persists through a long detection latency must still resolve
  into one well-formed process.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.detector import FaultDetector
from repro.cluster.faults import FaultCatalog, FaultType
from repro.cluster.fleet import FleetEngine
from repro.policies import UserDefinedPolicy
from repro.recoverylog.entry import EntryKind, LogEntry
from repro.recoverylog.log import RecoveryLog
from repro.util.rng import RngStreams

CATALOG = default_catalog()
DAY = 86_400.0


def simple_faults(secondaries=("warn:Side", "warn:Other")):
    return FaultCatalog(
        [
            FaultType(
                name="transient",
                primary_symptom="error:Transient",
                secondary_symptoms=secondaries,
                secondary_probability=0.9,
                cure_probabilities={"TRYNOP": 0.5, "REBOOT": 0.9},
                weight=3.0,
            ),
            FaultType(
                name="hard",
                primary_symptom="error:Hard",
                cure_probabilities={"REIMAGE": 0.9},
            ),
        ]
    )


def make_config(**overrides):
    params = dict(
        machine_count=6,
        duration=25 * DAY,
        mean_time_between_failures=2 * DAY,
        noise_probability=0.25,
        symptom_reemission_probability=1.0,
    )
    params.update(overrides)
    return ClusterConfig(**params)


def run_event(seed=5, **overrides):
    simulator = ClusterSimulator(
        make_config(**overrides),
        simple_faults(),
        UserDefinedPolicy(CATALOG),
        CATALOG,
        RngStreams(seed),
    )
    return simulator, simulator.run()


def run_fleet(seed=5, **overrides):
    engine = FleetEngine(
        make_config(backend="fleet", **overrides),
        simple_faults(),
        UserDefinedPolicy(CATALOG),
        CATALOG,
        RngStreams(seed),
    )
    return engine, engine.run().to_log()


# ---------------------------------------------------------------------------
# Same-instant ordering (the fixed TypeError regression)
# ---------------------------------------------------------------------------
class TestSameInstantOrdering:
    def entries(self):
        return [
            LogEntry.success(100.0, "m-1"),
            LogEntry.action(100.0, "m-1", "REBOOT"),
            LogEntry.symptom(100.0, "m-1", "error:X"),
        ]

    def test_mixed_kinds_at_one_instant_sort_without_typeerror(self):
        """Regression: dataclass field ordering compared EntryKind
        members on (time, machine) ties and raised TypeError."""
        ordered = sorted(self.entries())
        assert [e.kind for e in ordered] == [
            EntryKind.SYMPTOM,
            EntryKind.ACTION,
            EntryKind.SUCCESS,
        ]

    def test_causal_rank_beats_description_order(self):
        """The success report sorts after the action even though
        'Success' < alphabetically-later action names would say
        otherwise under plain field comparison."""
        action = LogEntry.action(7.0, "m", "ZAP")
        success = LogEntry.success(7.0, "m")
        assert action < success
        assert not (success < action)

    def test_comparisons_reject_foreign_types(self):
        entry = LogEntry.symptom(1.0, "m", "error:X")
        assert entry.__lt__(3) is NotImplemented
        with pytest.raises(TypeError):
            entry < 3  # noqa: B015 — the raise is the assertion

    def test_log_append_keeps_tied_entries_causal(self):
        log = RecoveryLog()
        for entry in self.entries():
            log.append(entry)
        assert [e.kind for e in log.entries] == [
            EntryKind.SYMPTOM,
            EntryKind.ACTION,
            EntryKind.SUCCESS,
        ]

    @pytest.mark.parametrize("runner", [run_event, run_fleet])
    def test_zero_delay_simulation_produces_sortable_log(self, runner):
        """Whole-run regression: zero delays collapse decision instants
        onto symptom times; the run must neither crash nor interleave
        kinds acausally at shared instants."""
        _owner, log = runner(
            seed=3, detection_delay_mean=0.0, decision_delay_mean=0.0
        )
        processes = log.to_processes()
        assert processes  # segmentation validates structure per process
        by_instant = {}
        for entry in log.entries:
            by_instant.setdefault((entry.time, entry.machine), []).append(
                entry
            )
        ranks = {
            EntryKind.SYMPTOM: 0,
            EntryKind.ACTION: 1,
            EntryKind.SUCCESS: 2,
        }
        for group in by_instant.values():
            assert [ranks[e.kind] for e in group] == sorted(
                ranks[e.kind] for e in group
            )


class TestFleetToLog:
    """``FleetResult.to_log`` against per-row entries sorted by ``<``.

    With ``m{}`` names over 12 machines, string order ("m10" < "m2")
    differs from machine-index order, and zero delays put a symptom, its
    action and the success report at one instant.
    """

    def result(self, seed):
        return FleetEngine(
            make_config(
                backend="fleet",
                machine_count=12,
                machine_name_format="m{}",
                detection_delay_mean=0.0,
                decision_delay_mean=0.0,
            ),
            simple_faults(),
            UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(seed),
        ).run()

    @staticmethod
    def rows_sorted_by_lt(result):
        kinds = (EntryKind.SYMPTOM, EntryKind.ACTION, EntryKind.SUCCESS)
        return sorted(
            LogEntry(
                float(time),
                result.machine_names[machine],
                kinds[kind],
                result.descriptions[desc],
            )
            for time, machine, kind, desc in zip(
                result.log_times,
                result.log_machines,
                result.log_kinds,
                result.log_descriptions,
            )
        )

    @pytest.mark.parametrize("seed", [3, 5])
    def test_log_equals_rows_sorted_by_lt(self, seed):
        result = self.result(seed)
        entries = result.to_log().entries
        assert list(entries) == self.rows_sorted_by_lt(result)
        assert any(
            a.time == b.time and a.machine == b.machine
            for a, b in zip(entries, entries[1:])
        )

    def test_cross_machine_ties_sort_by_name_string(self):
        # Week-rounded times tie entries of different machines, so the
        # machine-name key decides between "m10" and "m2".
        result = self.result(3)
        weeks = np.floor(result.log_times / (7 * DAY)) * (7 * DAY)
        tied = dataclasses.replace(result, log_times=weeks)
        entries = tied.to_log().entries
        assert list(entries) == self.rows_sorted_by_lt(tied)
        machines_at = {}
        for entry in entries:
            machines_at.setdefault(entry.time, set()).add(entry.machine)
        assert any({"m10", "m2"} <= names for names in machines_at.values())


# ---------------------------------------------------------------------------
# Detector unit races
# ---------------------------------------------------------------------------
class TestDetectorRaces:
    def test_symptoms_during_recovery_do_not_redetect(self):
        seen = []
        detector = FaultDetector(lambda m, s: seen.append((m, s)))
        detector.observe(LogEntry.symptom(1.0, "m", "error:X"))
        detector.observe(LogEntry.symptom(2.0, "m", "warn:side"))
        detector.observe(LogEntry.symptom(3.0, "m", "error:X"))
        assert seen == [("m", "error:X")]
        assert detector.detections == 1

    def test_success_reopens_detection(self):
        seen = []
        detector = FaultDetector(lambda m, s: seen.append((m, s)))
        detector.observe(LogEntry.symptom(1.0, "m", "error:X"))
        detector.observe(LogEntry.success(5.0, "m"))
        detector.observe(LogEntry.symptom(6.0, "m", "warn:straggler"))
        assert seen == [("m", "error:X"), ("m", "warn:straggler")]

    def test_active_symptom_tracks_initial_symptom_only(self):
        detector = FaultDetector(lambda m, s: None)
        detector.observe(LogEntry.symptom(1.0, "m", "error:X"))
        detector.observe(LogEntry.symptom(2.0, "m", "warn:side"))
        assert detector.active_symptom("m") == "error:X"
        detector.observe(LogEntry.success(3.0, "m"))
        assert detector.active_symptom("m") is None


# ---------------------------------------------------------------------------
# Whole-simulation races
# ---------------------------------------------------------------------------
class TestSimulationRaces:
    def test_stragglers_never_start_phantom_recoveries(self):
        """With certain re-emission and wide symptom windows, symptom
        events routinely outlive the cure that scheduled them.  None may
        trigger a new detection: detections == completed processes."""
        simulator, log = run_event(
            seed=9, secondary_symptom_window=5_000.0
        )
        processes = log.to_processes()
        assert simulator.detector.detections == len(processes)

    def test_symptom_cured_before_scheduled_emission_is_dropped(self):
        """A symptom scheduled before the cure but firing after it (on a
        healthy machine) is suppressed — every logged symptom falls
        inside a process, and both backends drop the same set."""
        _sim, event_log = run_event(seed=13, secondary_symptom_window=5_000.0)
        _eng, fleet_log = run_fleet(seed=13, secondary_symptom_window=5_000.0)
        assert event_log == fleet_log
        spans = {}
        for process in event_log.to_processes():
            spans.setdefault(process.machine, []).append(
                (process.entries[0].time, process.entries[-1].time)
            )
        for entry in event_log.entries:
            assert any(
                start <= entry.time <= end
                for start, end in spans[entry.machine]
            )

    @pytest.mark.parametrize("delay", [10_000.0, 100_000.0])
    def test_long_detection_latency_still_yields_one_process(self, delay):
        """The fault persists untouched through an arbitrarily long
        detection latency (nothing can cure a machine whose recovery has
        not begun); each onset still resolves into exactly one process,
        identically on both backends."""
        simulator, event_log = run_event(
            seed=7, detection_delay_mean=delay, machine_count=4
        )
        _engine, fleet_log = run_fleet(
            seed=7, detection_delay_mean=delay, machine_count=4
        )
        assert event_log == fleet_log
        processes = event_log.to_processes()
        assert simulator.detector.detections == len(processes)
        total_failures = sum(
            m.failure_count for m in simulator.machines.values()
        )
        assert total_failures == len(processes)

    def test_noise_primary_fires_after_main_detection(self):
        """The overlapping fault's primary symptom lands inside the
        ongoing process (strictly after the main primary), so the
        induced error type is always the main fault's."""
        _sim, log = run_event(seed=17, noise_probability=0.6)
        for process in log.to_processes():
            assert process.entries[0].is_symptom
            first = process.entries[0]
            later_symptoms = [
                e
                for e in process.entries[1:]
                if e.is_symptom and e.description.startswith("error:")
            ]
            for entry in later_symptoms:
                assert entry.time > first.time
