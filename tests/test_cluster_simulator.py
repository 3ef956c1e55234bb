"""Integration tests of the event-driven reference simulator
(``reference_cluster``), the fleet engine's differential reference."""

import pytest

from reference_cluster import ClusterSimulator
from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.errors import ConfigurationError
from repro.policies import AlwaysStrongestPolicy, UserDefinedPolicy
from repro.util.rng import RngStreams


def tiny_config(**overrides):
    defaults = dict(
        machine_count=10,
        duration=30 * 86_400.0,
        mean_time_between_failures=3 * 86_400.0,
        noise_probability=0.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def simple_faults():
    return FaultCatalog(
        [
            FaultType(
                name="transient",
                primary_symptom="error:Transient",
                cure_probabilities={"TRYNOP": 0.7, "REBOOT": 0.95},
                weight=3.0,
            ),
            FaultType(
                name="hard",
                primary_symptom="error:Hard",
                secondary_symptoms=("warn:Side",),
                cure_probabilities={"REIMAGE": 0.95},
                weight=1.0,
            ),
        ]
    )


def run_simulation(policy=None, config=None, seed=5):
    catalog = default_catalog()
    simulator = ClusterSimulator(
        config=config or tiny_config(),
        faults=simple_faults(),
        policy=policy or UserDefinedPolicy(catalog),
        actions=catalog,
        streams=RngStreams(seed),
    )
    return simulator, simulator.run()


class TestSimulatorOutput:
    def test_log_segments_into_processes(self):
        _sim, log = run_simulation()
        processes = log.to_processes()
        assert len(processes) > 10
        for process in processes:
            assert process.entries[0].is_symptom
            assert process.entries[-1].is_success

    def test_error_types_are_primary_symptoms(self):
        _sim, log = run_simulation()
        types = {p.error_type for p in log.to_processes()}
        assert types <= {"error:Transient", "error:Hard"}

    def test_ladder_sequences_are_nondecreasing_strength(self):
        catalog = default_catalog()
        _sim, log = run_simulation()
        for process in log.to_processes():
            strengths = [catalog[a].strength for a in process.actions]
            assert strengths == sorted(strengths)

    def test_hard_faults_need_reimage(self):
        _sim, log = run_simulation()
        hard = [
            p for p in log.to_processes() if p.error_type == "error:Hard"
        ]
        assert hard
        reimaged = sum(
            1 for p in hard if p.final_action in ("REIMAGE", "RMA")
        )
        assert reimaged / len(hard) > 0.8

    def test_reproducible_with_same_seed(self):
        _s1, log1 = run_simulation(seed=9)
        _s2, log2 = run_simulation(seed=9)
        assert log1 == log2

    def test_different_seeds_differ(self):
        _s1, log1 = run_simulation(seed=9)
        _s2, log2 = run_simulation(seed=10)
        assert log1 != log2

    def test_machines_recover_and_fail_again(self):
        simulator, log = run_simulation()
        total_failures = sum(
            m.failure_count for m in simulator.machines.values()
        )
        total_recoveries = sum(
            m.recovery_count for m in simulator.machines.values()
        )
        assert total_recoveries == total_failures
        assert total_failures > len(simulator.machines)

    def test_always_strongest_policy_single_action(self):
        _sim, log = run_simulation(
            policy=AlwaysStrongestPolicy(default_catalog())
        )
        for process in log.to_processes():
            assert process.actions == ("RMA",)


class TestNoiseInjection:
    def test_noise_adds_foreign_symptoms(self):
        _sim, log = run_simulation(
            config=tiny_config(noise_probability=0.5)
        )
        processes = log.to_processes()
        foreign = 0
        for process in processes:
            primaries = {
                s
                for s in process.symptom_set
                if s.startswith("error:")
            }
            if len(primaries) > 1:
                foreign += 1
        assert foreign > 0

    def test_zero_noise_keeps_processes_single_fault(self):
        _sim, log = run_simulation(config=tiny_config(noise_probability=0.0))
        for process in log.to_processes():
            primaries = {
                s for s in process.symptom_set if s.startswith("error:")
            }
            assert len(primaries) == 1


class TestActionCap:
    def test_cap_forces_manual_repair(self):
        config = tiny_config(max_actions=3)
        stubborn = FaultCatalog(
            [
                FaultType(
                    name="stubborn",
                    primary_symptom="error:Stubborn",
                    cure_probabilities={},
                )
            ]
        )
        catalog = default_catalog()
        simulator = ClusterSimulator(
            config,
            stubborn,
            UserDefinedPolicy(catalog),
            catalog,
            RngStreams(3),
        )
        log = simulator.run()
        for process in log.to_processes():
            assert len(process.actions) <= 3
            assert process.final_action == "RMA"

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(max_actions=1)
        with pytest.raises(ConfigurationError):
            tiny_config(machine_count=0)
        with pytest.raises(ConfigurationError):
            tiny_config(noise_probability=1.5)
