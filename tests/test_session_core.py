"""Unit tests of the cap rule and batch deciding, and of the session
reference (``reference_session``) with ``drive`` and ``drive_batch``."""

from __future__ import annotations

import math

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationError,
    UnhandledStateError,
)
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy, PolicyDecision
from repro.policies.hybrid import HybridPolicy
from repro.policies.static import AlwaysCheapestPolicy, RandomPolicy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.session import FORCED_SOURCE, EpisodeTelemetry, forced_action
from repro.simplatform.platform import SimulationPlatform

from helpers import ladder_processes, make_process
from reference_replay import (
    BatchSession,
    ReferencePlatform,
    ReplayEnvironment,
    drive_batch,
)
from reference_session import (
    Environment,
    ExecutionResult,
    RecoverySession,
    drive,
)


class ScriptedEnvironment(Environment):
    """Succeed after a fixed number of actions, each costing 10s."""

    def __init__(self, succeed_after: int, error_type: str = "error:X"):
        self._succeed_after = succeed_after
        self._error_type = error_type
        self.executed = []

    @property
    def error_type(self) -> str:
        return self._error_type

    @property
    def max_actions(self) -> int:
        return 5

    @property
    def forced_action_name(self) -> str:
        return "RMA"

    def initial_cost(self) -> float:
        return 3.0

    def execute(self, state, action_name):
        self.executed.append(action_name)
        succeeded = len(self.executed) >= self._succeed_after
        return ExecutionResult(cost=10.0, succeeded=succeeded)


class CountingTelemetry(EpisodeTelemetry):
    def __init__(self):
        self.traces = []

    def on_episode(self, trace):
        self.traces.append(trace)


class TestForcedAction:
    def test_none_below_final_slot(self):
        assert forced_action(0, 5, "RMA") is None
        assert forced_action(3, 5, "RMA") is None

    def test_forced_from_final_slot_on(self):
        assert forced_action(4, 5, "RMA") == "RMA"
        assert forced_action(7, 5, "RMA") == "RMA"


class TestRecoverySession:
    def make_session(
        self, policy=None, session_class=RecoverySession, **kwargs
    ):
        kwargs.setdefault("max_actions", 5)
        kwargs.setdefault("forced_action_name", "RMA")
        # `is None`, not truthiness: an empty TrainedPolicy is falsy.
        if policy is None:
            policy = UserDefinedPolicy()
        return session_class("error:X", policy, **kwargs)

    def test_validates_max_actions(self):
        with pytest.raises(ConfigurationError):
            self.make_session(max_actions=1)

    def test_validates_forced_name(self):
        with pytest.raises(ConfigurationError):
            self.make_session(forced_action_name="")

    def test_happy_path_accumulates_cost_in_order(self):
        session = self.make_session(initial_cost=3.0)
        decision = session.next_action()
        assert not decision.forced
        session.record_outcome(10.0, False)
        session.next_action()
        session.record_outcome(20.0, True)
        assert session.done and session.handled
        assert session.total_cost == pytest.approx(3.0 + 10.0 + 20.0)
        assert len(session.actions) == 2

    def test_cap_forces_manual_action(self):
        session = self.make_session()
        for _ in range(4):
            session.next_action()
            session.record_outcome(1.0, False)
        decision = session.next_action()
        assert decision.forced
        assert decision.action == "RMA"
        assert decision.source == FORCED_SOURCE
        session.record_outcome(1.0, True)
        assert session.forced_manual

    def test_pending_discipline(self):
        session = self.make_session()
        with pytest.raises(SimulationError):
            session.record_outcome(1.0, True)
        session.next_action()
        with pytest.raises(SimulationError):
            session.next_action()

    def test_unhandled_state_aborts_and_reraises(self):
        session = self.make_session(policy=TrainedPolicy({}))
        with pytest.raises(UnhandledStateError):
            session.next_action()
        assert session.done
        assert not session.handled

    def test_decide_after_done_raises(self):
        session = self.make_session()
        session.next_action()
        session.record_outcome(1.0, True)
        with pytest.raises(SimulationError):
            session.next_action()

    def test_batched_resolve_and_force_pending(self):
        session = self.make_session(session_class=BatchSession)
        decision = session.resolve(
            PolicyDecision(action="REBOOT", source="test")
        )
        assert decision is not None and decision.action == "REBOOT"
        session.record_outcome(1.0, False)
        for _ in range(3):
            session.next_action()
            session.record_outcome(1.0, False)
        forced = session.force_pending()
        assert forced.forced and forced.action == "RMA"

    def test_resolve_unhandled_aborts(self):
        session = self.make_session(session_class=BatchSession)
        assert session.resolve(UnhandledStateError("none")) is None
        assert session.done and not session.handled

    def test_force_pending_before_cap_raises(self):
        session = self.make_session(session_class=BatchSession)
        with pytest.raises(SimulationError):
            session.force_pending()

    def test_trace_schema(self):
        session = self.make_session(origin="unit", initial_cost=2.0)
        session.next_action()
        session.record_outcome(5.0, True, matched_log=True)
        trace = session.trace()
        assert trace.origin == "unit"
        assert trace.error_type == "error:X"
        assert trace.handled and trace.succeeded
        assert trace.total_cost == pytest.approx(7.0)
        assert trace.steps[0].matched_log is True
        assert trace.steps[0].step == 0
        assert trace.actions() == session.actions


class TestDrive:
    def test_drive_runs_to_success(self):
        environment = ScriptedEnvironment(succeed_after=2)
        outcome = drive(environment, UserDefinedPolicy(), origin="unit")
        assert outcome.handled
        assert outcome.cost == pytest.approx(3.0 + 2 * 10.0)
        assert outcome.trace.origin == "unit"
        assert len(outcome.actions) == 2

    def test_drive_caps_at_max_actions(self):
        environment = ScriptedEnvironment(succeed_after=5)
        outcome = drive(environment, UserDefinedPolicy())
        assert outcome.forced_manual
        assert len(outcome.actions) == 5
        assert outcome.actions[-1] == "RMA"

    def test_drive_unhandled(self):
        environment = ScriptedEnvironment(succeed_after=1)
        outcome = drive(environment, TrainedPolicy({}))
        assert not outcome.handled
        assert outcome.actions == ()

    def test_drive_fires_telemetry(self):
        telemetry = CountingTelemetry()
        drive(
            ScriptedEnvironment(succeed_after=1),
            UserDefinedPolicy(),
            origin="unit",
            telemetry=telemetry,
        )
        assert len(telemetry.traces) == 1
        assert telemetry.traces[0].origin == "unit"


class TestDriveBatch:
    def test_matches_sequential_drive(self, catalog):
        environments = [
            ScriptedEnvironment(succeed_after=n) for n in (1, 3, 7, 2)
        ]
        policy = UserDefinedPolicy(catalog)
        batched = drive_batch(environments, policy)
        environments2 = [
            ScriptedEnvironment(succeed_after=n) for n in (1, 3, 7, 2)
        ]
        sequential = [drive(e, policy) for e in environments2]
        for got, want in zip(batched, sequential):
            assert got.actions == want.actions
            assert got.cost == want.cost
            assert got.handled == want.handled
            assert got.forced_manual == want.forced_manual

    def test_unhandled_sessions_abort_without_sinking_batch(self, catalog):
        rules = {
            RecoveryState.initial("error:X"): ("REBOOT", 10.0),
            RecoveryState.initial("error:X").after("REBOOT", False): (
                "RMA",
                5.0,
            ),
        }
        policy = TrainedPolicy(rules)
        environments = [
            ScriptedEnvironment(succeed_after=2),
            ScriptedEnvironment(succeed_after=9),
        ]
        first, second = drive_batch(environments, policy)
        assert first.handled
        # Second runs out of rules at depth 2 and aborts alone.
        assert not second.handled

    def test_rng_policy_falls_back_to_sequential(self, catalog):
        assert RandomPolicy.batch_safe is False
        environments = [
            ScriptedEnvironment(succeed_after=n) for n in (2, 3)
        ]
        policy = RandomPolicy(catalog, seed=7)
        batched = drive_batch(environments, policy)
        environments2 = [
            ScriptedEnvironment(succeed_after=n) for n in (2, 3)
        ]
        # One fresh same-seed policy shared across episodes, exactly as
        # the batched call shares its policy instance.
        reference = RandomPolicy(catalog, seed=7)
        sequential = [drive(e, reference) for e in environments2]
        # Sequential fallback preserves the RNG draw order exactly.
        assert [o.actions for o in batched] == [
            o.actions for o in sequential
        ]

    def test_telemetry_fires_in_input_order(self, catalog):
        telemetry = CountingTelemetry()
        environments = [
            ScriptedEnvironment(succeed_after=3, error_type="error:A"),
            ScriptedEnvironment(succeed_after=1, error_type="error:B"),
        ]
        drive_batch(
            environments, UserDefinedPolicy(catalog), telemetry=telemetry
        )
        assert [t.error_type for t in telemetry.traces] == [
            "error:A",
            "error:B",
        ]


class TestDecideBatch:
    def states(self):
        initial = RecoveryState.initial("error:X")
        return [initial, initial.after("TRYNOP", False)]

    def test_default_matches_decide(self, catalog):
        policy = AlwaysCheapestPolicy(catalog)
        batch = policy.decide_batch(self.states())
        singles = [policy.decide(s) for s in self.states()]
        assert batch == singles

    def test_default_columns_keep_misses_and_estimates(self):
        class Scripted(Policy):
            answers = {
                (): PolicyDecision("REBOOT", "ladder", 4.5),
                ("TRYNOP",): PolicyDecision("TRYNOP", "probe"),
                ("TRYNOP", "TRYNOP"): PolicyDecision(
                    "REBOOT", "probe", float("nan")
                ),
            }

            @property
            def name(self) -> str:
                return "scripted"

            def decide(self, state):
                answer = self.answers.get(state.tried)
                if answer is None:
                    raise UnhandledStateError("no answer", state=state)
                return answer

        initial = RecoveryState.initial("error:X")
        states = [
            initial.after("TRYNOP", False),
            initial.after("RMA", False),
            initial,
            initial.after("TRYNOP", False).after("TRYNOP", False),
        ]
        policy = Scripted()
        batch = policy.decide_batch(states)
        assert batch.hit.tolist() == [True, False, True, True]
        assert batch.actions == ("TRYNOP", "REBOOT")
        assert batch.sources == ("probe", "ladder")
        ids = batch.action_ids.tolist()
        assert [ids[0], ids[2], ids[3]] == [0, 1, 1]
        assert batch.estimated.tolist() == [False, False, True, True]
        assert batch.costs[0] == 0.0 and batch.costs[2] == 4.5
        assert math.isnan(batch.costs[3])
        rows = list(batch)
        assert rows[0] == policy.decide(states[0])
        assert rows[2] == policy.decide(states[2])
        assert isinstance(rows[1], UnhandledStateError)
        assert rows[1].state == states[1]
        assert rows[3].action == "REBOOT" and math.isnan(rows[3].expected_cost)

    def test_trained_override_matches_decide(self):
        states = self.states()
        rules = {states[0]: ("TRYNOP", 12.0)}
        policy = TrainedPolicy(rules)
        decision, miss = policy.decide_batch(states)
        assert decision == policy.decide(states[0])
        assert isinstance(miss, UnhandledStateError)
        assert miss.state == states[1]

    def test_trained_batch_rejects_terminal(self):
        policy = TrainedPolicy({})
        terminal = RecoveryState.initial("error:X").after("RMA", True)
        with pytest.raises(ConfigurationError):
            policy.decide_batch([terminal])

    def test_hybrid_override_counts_fallbacks(self, catalog):
        states = self.states()
        rules = {states[0]: ("TRYNOP", 12.0)}
        batched = HybridPolicy(TrainedPolicy(rules), UserDefinedPolicy(catalog))
        looped = HybridPolicy(TrainedPolicy(rules), UserDefinedPolicy(catalog))
        batch = batched.decide_batch(states)
        singles = [looped.decide(s) for s in states]
        assert batch == singles
        assert batched.fallback_rate == looped.fallback_rate
        assert batched.fallback_rate == pytest.approx(0.5)

    def test_hybrid_batch_safe_tracks_components(self, catalog):
        deterministic = HybridPolicy(
            TrainedPolicy({}), UserDefinedPolicy(catalog)
        )
        stochastic = HybridPolicy(TrainedPolicy({}), RandomPolicy(catalog))
        assert deterministic.batch_safe is True
        assert stochastic.batch_safe is False


class TestReplayEnvironment:
    def test_delegates_to_platform(self, catalog):
        process = make_process(["REBOOT", "RMA"], error_type="error:X")
        platform = ReferencePlatform([process], catalog)
        environment = ReplayEnvironment(platform, process)
        assert environment.error_type == "error:X"
        assert environment.max_actions == platform.max_actions
        assert environment.forced_action_name == catalog.strongest.name
        assert environment.initial_cost() == pytest.approx(
            platform.initial_cost(process)
        )
        result = environment.execute(
            RecoveryState.initial("error:X"), "REBOOT"
        )
        expected = platform.step(
            process, RecoveryState.initial("error:X"), "REBOOT"
        )
        assert result.cost == expected.cost
        assert result.succeeded == expected.succeeded
        assert result.matched_log == expected.matched_log

    def test_platform_forced_action_delegates_to_core(self, catalog):
        processes = ladder_processes("error:X", [(["REBOOT", "RMA"], 2)])
        platform = SimulationPlatform(processes, catalog, max_actions=4)
        assert platform.forced_action_name == catalog.strongest.name
        for count in range(6):
            assert platform.forced_action(count) == forced_action(
                count, 4, catalog.strongest.name
            )

    def test_replay_unhandled_cost_is_nan(self, catalog):
        process = make_process(["REBOOT", "RMA"], error_type="error:X")
        platform = SimulationPlatform([process], catalog)
        result = platform.replay(process, TrainedPolicy({}))
        assert not result.handled
        assert math.isnan(result.cost)
