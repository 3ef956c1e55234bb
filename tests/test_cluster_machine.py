"""Tests for the machine lifecycle state machine of the event-driven
reference simulator (``reference_cluster``)."""

import pytest

from reference_cluster import Machine, MachineState
from repro.cluster.faults import FaultType
from repro.errors import SimulationError


@pytest.fixture
def fault():
    return FaultType(name="f", primary_symptom="error:X")


class TestLifecycle:
    def test_initial_state_healthy(self):
        machine = Machine("m-1")
        assert machine.state is MachineState.HEALTHY

    def test_fail_begin_recover_cycle(self, fault):
        machine = Machine("m-1")
        machine.fail(fault)
        assert machine.state is MachineState.FAILED
        assert machine.active_fault is fault
        machine.begin_recovery()
        machine.record_attempt("REBOOT")
        machine.recover()
        assert machine.state is MachineState.HEALTHY
        assert machine.active_fault is None
        assert machine.actions_tried == []

    def test_counters(self, fault):
        machine = Machine("m-1")
        for _ in range(3):
            machine.fail(fault)
            machine.begin_recovery()
            machine.recover()
        assert machine.failure_count == 3
        assert machine.recovery_count == 3

    def test_attempts_recorded_in_order(self, fault):
        machine = Machine("m-1")
        machine.fail(fault)
        machine.begin_recovery()
        machine.record_attempt("TRYNOP")
        machine.record_attempt("REBOOT")
        assert machine.actions_tried == ["TRYNOP", "REBOOT"]

    def test_noise_fault_tracked(self, fault):
        noise = FaultType(name="g", primary_symptom="error:Y")
        machine = Machine("m-1")
        machine.fail(fault, noise)
        assert machine.noise_fault is noise
        machine.begin_recovery()
        machine.recover()
        assert machine.noise_fault is None


class TestInvalidTransitions:
    def test_fail_while_failed(self, fault):
        machine = Machine("m-1")
        machine.fail(fault)
        with pytest.raises(SimulationError):
            machine.fail(fault)

    def test_begin_recovery_while_healthy(self):
        with pytest.raises(SimulationError):
            Machine("m-1").begin_recovery()

    def test_record_attempt_while_healthy(self):
        with pytest.raises(SimulationError):
            Machine("m-1").record_attempt("REBOOT")

    def test_recover_while_failed_but_not_recovering(self, fault):
        machine = Machine("m-1")
        machine.fail(fault)
        with pytest.raises(SimulationError):
            machine.recover()
