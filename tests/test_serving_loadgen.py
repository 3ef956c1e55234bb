"""Tests for storm generation and the fleet-engine load generator."""

import pytest

from repro.actions import default_catalog
from repro.cluster import fleet as fleet_module
from repro.cluster.cluster import ClusterConfig
from repro.cluster.fleet import FleetEngine
from repro.errors import ConfigurationError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch, Policy
from repro.policies.binary import load_policy_binary, save_policy_binary
from repro.policies.hybrid import HybridPolicy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.serving import (
    DecisionServer,
    ServedBatch,
    ServerBackedPolicy,
    default_storm_faults,
    fleet_storm,
    run_storm,
    storm_states,
)
from repro.util.rng import RngStreams

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)


@pytest.fixture
def trained():
    return TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)}, label="t1"
    )


@pytest.fixture
def server(trained):
    return DecisionServer(trained, UserDefinedPolicy(default_catalog()))


class TestStormStates:
    def test_deterministic_under_seed(self, trained):
        a = storm_states(trained, 500, seed=3)
        b = storm_states(trained, 500, seed=3)
        assert a == b
        assert a != storm_states(trained, 500, seed=4)

    def test_unknown_fraction_respected(self, trained):
        states = storm_states(trained, 1000, unknown_fraction=0.25, seed=1)
        unknown = sum(
            1 for s in states if s.error_type.startswith("error:__storm")
        )
        assert unknown == 250

    def test_known_states_come_from_the_table(self, trained):
        states = storm_states(trained, 300, unknown_fraction=0.0, seed=2)
        assert set(states) <= set(trained.rules)

    def test_array_policy_source(self, tmp_path, trained):
        save_policy_binary(trained, tmp_path / "p.rpb")
        array_policy = load_policy_binary(tmp_path / "p.rpb")
        states = storm_states(array_policy, 300, unknown_fraction=0.0, seed=2)
        assert set(states) <= set(trained.rules)

    def test_empty_policy_yields_only_unknowns(self):
        states = storm_states(TrainedPolicy({}), 40, seed=0)
        assert len(states) == 40
        assert all(
            s.error_type.startswith("error:__storm") for s in states
        )

    def test_bad_arguments_rejected(self, trained):
        with pytest.raises(ConfigurationError, match="n_queries"):
            storm_states(trained, -1)
        with pytest.raises(ConfigurationError, match="unknown_fraction"):
            storm_states(trained, 10, unknown_fraction=1.5)


class TestRunStorm:
    def test_report_accounting(self, server, trained):
        states = storm_states(
            trained, 1000, unknown_fraction=0.2, seed=5
        )
        report = run_storm(server, states, batch_size=128)
        assert report.decisions == 1000
        assert report.batches == 8  # ceil(1000 / 128)
        assert report.fallbacks == 200
        assert report.fallback_rate == pytest.approx(0.2)
        assert report.decisions_per_second > 0
        assert report.p99_latency_s >= report.p50_latency_s >= 0
        assert report.versions == (1,)

    def test_render_mentions_throughput(self, server, trained):
        states = storm_states(trained, 64, seed=5)
        text = run_storm(server, states, batch_size=32).render()
        assert "decisions/s" in text
        assert "fallback rate" in text

    def test_bad_batch_size(self, server):
        with pytest.raises(ConfigurationError, match="batch_size"):
            run_storm(server, [], batch_size=0)


class TestServerBackedPolicy:
    def test_adapts_served_decisions(self, server):
        policy = ServerBackedPolicy(server)
        assert policy.batch_safe
        decision = policy.decide(S0)
        assert decision.action == "REIMAGE"
        assert decision.source == "serving:t1"

    def test_proper_on_unknown_states(self, server):
        policy = ServerBackedPolicy(server)
        stranger = RecoveryState.initial("error:never-seen")
        assert policy.decide(stranger).action == "TRYNOP"
        outcomes = policy.decide_batch([S0, stranger])
        assert [d.action for d in outcomes] == ["REIMAGE", "TRYNOP"]


class TestFleetStorm:
    def test_fleet_drives_the_server(self, server):
        result = fleet_storm(
            server, machines=300, days=3.0, seed=11
        )
        assert result.machines == 300
        assert result.processes > 0
        assert result.decisions > 0
        # Every fleet decision went through the server.
        assert server.decision_count == result.decisions
        assert sum(result.versions.values()) == result.decisions

    def test_fallbacks_counted(self, server):
        # The trained table knows nothing about the storm catalog's
        # error types, so every decision must fall back.
        result = fleet_storm(server, machines=200, days=2.0, seed=7)
        assert result.fallbacks == result.decisions

    def test_deterministic_under_seed(self, trained):
        catalog = default_catalog()
        first = fleet_storm(
            DecisionServer(trained, UserDefinedPolicy(catalog)),
            machines=150,
            days=2.0,
            seed=23,
        )
        second = fleet_storm(
            DecisionServer(trained, UserDefinedPolicy(catalog)),
            machines=150,
            days=2.0,
            seed=23,
        )
        assert first == second

    def test_default_storm_faults_shape(self):
        faults = default_storm_faults()
        symptoms = {f.primary_symptom for f in faults.fault_types}
        assert symptoms == {"error:Transient", "error:Hard"}


class _Forwarding(Policy):
    """Forwards ``decide_batch`` untouched and records each call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.batch_safe = inner.batch_safe

    @property
    def name(self):
        return self.inner.name

    def decide(self, state):
        return self.inner.decide(state)

    def decide_batch(self, states):
        answer = self.inner.decide_batch(states)
        self.calls.append(type(answer))
        return answer


class TestFleetThroughWrappers:
    def _run(self, policy, seed=5):
        catalog = default_catalog()
        return FleetEngine(
            ClusterConfig(
                backend="fleet",
                machine_count=400,
                duration=3 * 86_400.0,
                mean_time_between_failures=86_400.0,
            ),
            default_storm_faults(),
            policy,
            catalog,
            RngStreams(seed),
        ).run()

    def test_one_call_per_wave_and_no_row_objects(self, monkeypatch):
        """Wrappers see one call per fleet wave; no row materializes.

        The fleet reads the server's columns through two forwarding
        wrappers (around the adapter and around the server's primary):
        every wave with a free row is one adapter call, one server
        batch and one primary call, and no batch row is ever built.
        """
        catalog = default_catalog()
        storm_table = TrainedPolicy(
            {
                RecoveryState.initial("error:Transient"): ("REBOOT", 60.0),
                RecoveryState.initial("error:Hard"): ("REIMAGE", 600.0),
            },
            label="storm",
        )
        primary = _Forwarding(storm_table)
        server = DecisionServer(primary, UserDefinedPolicy(catalog))
        adapter = _Forwarding(ServerBackedPolicy(server))

        waves = []
        real_decide_wave = fleet_module.decide_wave

        def counting_decide_wave(policy, states, forced, forced_name):
            waves.append(int((~forced).sum()))
            return real_decide_wave(policy, states, forced, forced_name)

        def no_rows(*_args):
            raise AssertionError("a batch row was materialized")

        monkeypatch.setattr(fleet_module, "decide_wave", counting_decide_wave)
        for batch_type in (DecisionBatch, ServedBatch):
            monkeypatch.setattr(batch_type, "__iter__", no_rows)
            monkeypatch.setattr(batch_type, "__getitem__", no_rows)
        wrapped = self._run(adapter)
        monkeypatch.undo()

        free_waves = sum(1 for free in waves if free)
        assert free_waves > 1
        assert adapter.calls == [DecisionBatch] * free_waves
        assert primary.calls == [DecisionBatch] * free_waves
        assert server.batch_count == free_waves
        assert 0 < server.fallback_count < server.decision_count

        # The wrappers change nothing: the same fleet as the hybrid
        # policy the server implements, decision for decision.
        direct = self._run(HybridPolicy(storm_table, UserDefinedPolicy(catalog)))
        assert wrapped.to_log() == direct.to_log()
        assert [
            (step.action, step.expected_cost)
            for trace in wrapped.episode_traces()
            for step in trace.steps
        ] == [
            (step.action, step.expected_cost)
            for trace in direct.episode_traces()
            for step in trace.steps
        ]
