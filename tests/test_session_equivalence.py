"""Episode-loop routing equivalence.

Replay, evaluation and training run on the platform's compiled rows
and share :mod:`repro.session`'s cap rule and trace schema.  The
contract is *bit-identical* behaviour with the hand-rolled loops these
replaced — same float sums in the same order, same RNG draw sequences,
same action traces.  This module pins the contract by re-implementing
the pre-refactor loops inline (frozen copies of the old code, stepping
through ``reference_replay``'s string ``step``) and comparing exactly,
the same way ``test_backend_equivalence`` pins the Q table against its
dict reference.
"""

from __future__ import annotations

import math

import pytest

from helpers import ladder_processes, make_process, snapshot_digest
from reference_cluster import ClusterSimulator
from reference_exploration import ReferenceBoltzmannExplorer
from reference_qtable import ReferenceQTable
from reference_replay import ReferencePlatform
from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.errors import UnhandledStateError
from repro.evaluation.evaluator import PolicyEvaluator
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.qtable import QTable
from repro.learning.telemetry import EpisodeRecorder
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy, PolicyDecision
from repro.policies.hybrid import HybridPolicy
from repro.policies.static import (
    AlwaysCheapestPolicy,
    FixedSequencePolicy,
    RandomPolicy,
)
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.simplatform.platform import ReplayResult
from repro.util.rng import RngStreams, make_rng

CATALOG = default_catalog()

# Digests of ``test_episode_telemetry_does_not_change_results``'s course
# and its episode traces, recorded when an attached recorder routed
# training through the session driver (identical for the dict and array
# Q tables).
TELEMETRY_RESULT_DIGEST = (
    "6982ada0941936a00c81ec70d650730f2877f4007c1be303536492607f87771f"
)
TELEMETRY_TRACES_DIGEST = (
    "043cfb06839324021340f3d656fdf3009326adf259365174757bd07a6d350ef9"
)


# ---------------------------------------------------------------------------
# Frozen pre-refactor reference implementations
# ---------------------------------------------------------------------------
def reference_replay(platform, process, policy) -> ReplayResult:
    """The replay loop exactly as it existed before the session core."""
    attempts = process.attempts
    if not attempts:
        return ReplayResult(
            handled=True,
            cost=process.downtime,
            actions=(),
            real_cost=process.downtime,
        )
    state = RecoveryState.initial(process.error_type)
    total = platform.initial_cost(process)
    actions = []
    forced_manual = False
    while not state.is_terminal:
        forced = platform.forced_action(state.attempt_count)
        if forced is not None:
            action_name = forced
            forced_manual = True
        else:
            try:
                action_name = policy.decide(state).action
            except UnhandledStateError:
                return ReplayResult(
                    handled=False,
                    cost=float("nan"),
                    actions=tuple(actions),
                    real_cost=process.downtime,
                )
        outcome = platform.step(process, state, action_name)
        actions.append(action_name)
        total += outcome.cost
        state = outcome.next_state
    return ReplayResult(
        handled=True,
        cost=total,
        actions=tuple(actions),
        real_cost=process.downtime,
        forced_manual=forced_manual,
    )


def reference_evaluate(platform, processes, types, policy):
    """The evaluator's accumulation loop as it existed pre-refactor.

    Returns the raw per-type tallies so comparisons stay exact (no
    dataclass indirection).
    """
    tallies = {
        t: {
            "total": 0,
            "handled": 0,
            "estimated": 0.0,
            "real_handled": 0.0,
            "real_all": 0.0,
        }
        for t in types
    }
    for process in processes:
        tally = tallies[process.error_type]
        tally["total"] += 1
        tally["real_all"] += process.downtime
        result = reference_replay(platform, process, policy)
        if result.handled:
            tally["handled"] += 1
            tally["estimated"] += result.cost
            tally["real_handled"] += result.real_cost
    return tallies


def reference_episode(platform, qtable, explorer, process, sweep, config):
    """The trainer's episode loop as it existed pre-refactor."""
    state = RecoveryState.initial(process.error_type)
    trajectory = []
    while not state.is_terminal:
        action_name = platform.forced_action(state.attempt_count)
        if action_name is None:
            forced = qtable.underexplored_action(
                state, config.min_visits_per_action
            )
            if forced is not None:
                action_name = forced
            else:
                action_name = explorer.select(
                    qtable.values_for(state), sweep
                )
        outcome = platform.step(process, state, action_name)
        trajectory.append(
            (state, action_name, outcome.cost, outcome.next_state)
        )
        state = outcome.next_state
    return trajectory


def reference_updates(qtable, trajectory):
    """The trainer's reverse-order equation-(6) updates, pre-refactor."""
    for state, action_name, cost, next_state in reversed(trajectory):
        target = cost + qtable.bootstrap_value(next_state)
        qtable.update(state, action_name, target)


def q_cells(table):
    """Every visited (state, action) cell as ``(value, visits)``."""
    return {
        (s, a): (table.value(s, a), table.visit_count(s, a))
        for s in table.states()
        for a in CATALOG.names()
    }


def replay_snapshot(result: ReplayResult):
    """Exact-comparable tuple (NaN made comparable explicitly)."""
    return (
        result.handled,
        "nan" if math.isnan(result.cost) else result.cost,
        result.actions,
        result.real_cost,
        result.forced_manual,
    )


def mixed_platform():
    processes = (
        ladder_processes(
            "error:Hard",
            [(["TRYNOP", "REBOOT", "REIMAGE"], 6), (["REBOOT"], 3)],
            realistic_durations=True,
        )
        + ladder_processes(
            "error:Soft",
            [(["TRYNOP"], 6), (["TRYNOP", "REBOOT"], 4)],
            realistic_durations=True,
            machine_prefix="s",
        )
    )
    return ReferencePlatform(processes, CATALOG), processes


def policies_under_test():
    """One of each policy family, including a partial trained table."""
    state_hard = RecoveryState.initial("error:Hard")
    state_soft = RecoveryState.initial("error:Soft")
    partial_rules = {
        state_hard: ("REIMAGE", 7_200.0),
        state_soft: ("TRYNOP", 300.0),
        state_soft.after("TRYNOP", False): ("REBOOT", 2_700.0),
    }
    return [
        UserDefinedPolicy(CATALOG),
        AlwaysCheapestPolicy(CATALOG),
        FixedSequencePolicy(["REBOOT", "RMA"], CATALOG),
        TrainedPolicy(partial_rules),
        HybridPolicy(TrainedPolicy(partial_rules), UserDefinedPolicy(CATALOG)),
    ]


class TestReplayEquivalence:
    """platform.replay (session-driven) == the frozen reference loop."""

    @pytest.mark.parametrize(
        "policy_index", range(len(policies_under_test()))
    )
    def test_every_policy_family_bit_identical(self, policy_index):
        platform, processes = mixed_platform()
        policy = policies_under_test()[policy_index]
        for process in processes:
            expected = reference_replay(platform, process, policy)
            got = platform.replay(process, policy)
            assert replay_snapshot(got) == replay_snapshot(expected)

    def test_random_policy_same_rng_stream(self):
        platform, processes = mixed_platform()
        reference_policy = RandomPolicy(CATALOG, seed=11)
        routed_policy = RandomPolicy(CATALOG, seed=11)
        for process in processes:
            expected = reference_replay(platform, process, reference_policy)
            got = platform.replay(process, routed_policy)
            assert replay_snapshot(got) == replay_snapshot(expected)

    def test_self_healed_short_circuit(self):
        platform, _ = mixed_platform()
        healed = make_process([], error_type="error:Hard")
        expected = reference_replay(platform, healed, UserDefinedPolicy())
        got = platform.replay(healed, UserDefinedPolicy())
        assert replay_snapshot(got) == replay_snapshot(expected)

    def test_replay_many_matches_sequential(self):
        platform, processes = mixed_platform()
        for policy in policies_under_test():
            sequential = [
                platform.replay(p, policy) for p in processes
            ]
            batched = platform.replay_many(processes, policy)
            assert [replay_snapshot(r) for r in batched] == [
                replay_snapshot(r) for r in sequential
            ]


class TestEvaluationEquivalence:
    """PolicyEvaluator.evaluate == the frozen accumulation loop."""

    def result_tallies(self, result):
        return {
            t: {
                "total": e.total,
                "handled": e.handled,
                "estimated": e.estimated_cost,
                "real_handled": e.real_cost_handled,
                "real_all": e.real_cost_all,
            }
            for t, e in result.per_type.items()
        }

    @pytest.mark.parametrize(
        "policy_index", range(len(policies_under_test()))
    )
    def test_per_type_sums_bit_identical(self, policy_index):
        _platform, processes = mixed_platform()
        policy = policies_under_test()[policy_index]
        evaluator = PolicyEvaluator(processes, CATALOG)
        expected = reference_evaluate(
            ReferencePlatform(processes, CATALOG),
            [p for p in processes],
            evaluator.error_types,
            policy,
        )
        got = evaluator.evaluate(policy)
        assert self.result_tallies(got) == expected
        assert got.skipped == 0

    def test_real_trace_end_to_end(self, small_processes):
        evaluator = PolicyEvaluator(small_processes, CATALOG)
        policy = UserDefinedPolicy(CATALOG)
        expected = reference_evaluate(
            ReferencePlatform(small_processes, CATALOG),
            [
                p
                for p in small_processes
                if p.error_type in set(evaluator.error_types)
            ],
            evaluator.error_types,
            policy,
        )
        got = evaluator.evaluate(policy)
        assert self.result_tallies(got) == expected

    def test_out_of_scope_processes_skipped_and_counted(self):
        """Regression: out-of-scope types must be skipped, not KeyError."""
        _platform, processes = mixed_platform()
        evaluator = PolicyEvaluator(
            processes, CATALOG, error_types=["error:Hard"]
        )
        result = evaluator.evaluate(UserDefinedPolicy(CATALOG))
        out_of_scope = sum(
            1 for p in processes if p.error_type != "error:Hard"
        )
        assert out_of_scope > 0
        assert result.skipped == out_of_scope
        assert set(result.per_type) == {"error:Hard"}
        assert result.per_type["error:Hard"].total == len(processes) - (
            out_of_scope
        )

    def test_scope_filter_does_not_change_in_scope_numbers(self):
        _platform, processes = mixed_platform()
        full = PolicyEvaluator(processes, CATALOG).evaluate(
            UserDefinedPolicy(CATALOG)
        )
        restricted = PolicyEvaluator(
            processes, CATALOG, error_types=["error:Hard"]
        ).evaluate(UserDefinedPolicy(CATALOG))
        assert self.result_tallies(full)["error:Hard"] == (
            self.result_tallies(restricted)["error:Hard"]
        )


class TestTrainingEquivalence:
    """The trainer's episode loop == the frozen pre-refactor loop."""

    def test_episodes_bit_identical_with_same_rng(self):
        platform, _processes = mixed_platform()
        config = QLearningConfig(seed=5)
        recorder = EpisodeRecorder()
        trainer = QLearningTrainer(
            platform, config, episode_telemetry=recorder
        )
        training = ladder_processes(
            "error:Hard",
            [(["TRYNOP", "REBOOT", "REIMAGE"], 4)],
            realistic_durations=True,
        )

        reference_table = ReferenceQTable(
            CATALOG.names(), alpha_floor=config.alpha_floor
        )
        table = QTable(CATALOG.names(), alpha_floor=config.alpha_floor)
        course = trainer._course(table, "error:Hard", training)
        reference_explorer = ReferenceBoltzmannExplorer(
            config.temperature, rng=make_rng(5)
        )
        explorer = trainer._make_explorer(make_rng(5))
        run = trainer._episode_runner(table, course, explorer)

        for sweep in range(30):
            for process, row in zip(training, course.rows):
                expected = reference_episode(
                    platform,
                    reference_table,
                    reference_explorer,
                    process,
                    sweep,
                    config,
                )
                reference_updates(reference_table, expected)
                run(row, sweep)
                steps = recorder.traces[-1].steps
                assert [(s.action, s.cost) for s in steps] == [
                    (action, cost) for _s, action, cost, _n in expected
                ]
                # Every Q cell matches after every episode, so the RNG
                # streams never diverge.
                assert q_cells(table) == q_cells(reference_table)
        assert len(recorder) == 30 * len(training)

    def test_episode_telemetry_does_not_change_results(self):
        platform, _processes = mixed_platform()
        training = ladder_processes(
            "error:Hard",
            [(["TRYNOP", "REBOOT", "REIMAGE"], 4)],
            realistic_durations=True,
        )
        config = QLearningConfig(
            max_sweeps=25, episodes_per_sweep=4, seed=7
        )

        def snapshot(result):
            table = result.qtable
            return (
                result.sweeps_run,
                result.converged,
                result.episodes,
                {
                    (s, a): (table.value(s, a), table.visit_count(s, a))
                    for s in table.states()
                    for a in CATALOG.names()
                },
            )

        plain = QLearningTrainer(platform, config).train_type(
            "error:Hard", training
        )
        recorder = EpisodeRecorder()
        observed = QLearningTrainer(
            platform, config, episode_telemetry=recorder
        ).train_type("error:Hard", training)
        assert snapshot(observed) == snapshot(plain)
        assert snapshot_digest(snapshot(plain)) == TELEMETRY_RESULT_DIGEST
        assert snapshot_digest(recorder.traces) == TELEMETRY_TRACES_DIGEST
        assert len(recorder) > 0
        assert set(t.origin for t in recorder.traces) == {"training"}
        # Every trace carries per-step provenance from the training rule.
        sources = {
            step.source for t in recorder.traces for step in t.steps
        }
        assert sources <= {"explore:forced", "explore:select", "forced:cap"}


class _DecisionSpy(Policy):
    """Wraps a policy and records every state it is asked to decide."""

    def __init__(self, inner: Policy) -> None:
        self._inner = inner
        self.states = []

    @property
    def name(self) -> str:
        return self._inner.name

    def decide(self, state: RecoveryState) -> PolicyDecision:
        self.states.append(state)
        return self._inner.decide(state)


class TestClusterEquivalence:
    """The cluster's online loop routed through sessions is unchanged."""

    def faults(self):
        return FaultCatalog(
            [
                FaultType(
                    name="transient",
                    primary_symptom="error:Transient",
                    cure_probabilities={"TRYNOP": 0.6, "REBOOT": 0.9},
                    weight=2.0,
                ),
                FaultType(
                    name="hard",
                    primary_symptom="error:Hard",
                    cure_probabilities={"REIMAGE": 0.9},
                ),
            ]
        )

    def config(self, **overrides):
        defaults = dict(
            machine_count=8,
            duration=30 * 86_400.0,
            mean_time_between_failures=3 * 86_400.0,
            noise_probability=0.0,
        )
        defaults.update(overrides)
        return ClusterConfig(**defaults)

    def run(self, seed=5, telemetry=None, policy=None, **overrides):
        simulator = ClusterSimulator(
            self.config(**overrides),
            self.faults(),
            policy if policy is not None else UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(seed),
            episode_telemetry=telemetry,
        )
        return simulator, simulator.run()

    def test_decision_states_follow_markov_chain(self):
        """The session presents exactly the states the old loop built
        from ``machine.actions_tried`` — initial state per process, then
        one action appended per failed attempt."""
        spy = _DecisionSpy(UserDefinedPolicy(CATALOG))
        _simulator, log = self.run(policy=spy)
        # Rebuild the expected decision states from the final log.
        expected = []
        for process in log.to_processes():
            tried = ()
            for action in process.actions:
                expected.append(
                    RecoveryState(
                        error_type=process.error_type,
                        healthy=False,
                        tried=tried,
                    )
                )
                tried = tried + (action,)
        # The spy saw the same multiset of decision states (ordering
        # interleaves across machines in event order).
        assert sorted(
            spy.states, key=lambda s: (s.error_type, s.tried)
        ) == sorted(expected, key=lambda s: (s.error_type, s.tried))

    def test_same_seed_logs_identical_with_telemetry(self):
        recorder = EpisodeRecorder()
        _s1, log1 = self.run(seed=9)
        _s2, log2 = self.run(seed=9, telemetry=recorder)
        assert log1 == log2
        assert len(recorder) == len(log2.to_processes())
        assert set(t.origin for t in recorder.traces) == {"cluster"}

    def test_traces_mirror_log_processes(self):
        recorder = EpisodeRecorder()
        _simulator, log = self.run(seed=4, telemetry=recorder)
        logged = sorted(
            (p.error_type, p.actions) for p in log.to_processes()
        )
        traced = sorted(
            (t.error_type, t.actions()) for t in recorder.traces
        )
        assert traced == logged
        for trace in recorder.traces:
            assert trace.handled
            assert trace.succeeded


class TestFleetClusterEquivalence(TestClusterEquivalence):
    """The fleet backend joins the equivalence matrix.

    Every contract pinned for the session-routed event loop above must
    hold verbatim when the same scenario runs on the vectorized wave
    engine: same log bytes, same decision-state chains, same telemetry.
    Inheriting the reference tests re-runs them on the event backend
    (the fixtures are shared); the additions compare the two backends
    head to head.
    """

    def run_fleet(self, seed=5, telemetry=None, policy=None, **overrides):
        from repro.cluster.fleet import FleetEngine

        engine = FleetEngine(
            self.config(backend="fleet", **overrides),
            self.faults(),
            policy if policy is not None else UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(seed),
            episode_telemetry=telemetry,
        )
        return engine, engine.run().to_log()

    @pytest.mark.parametrize("seed", [5, 9, 4])
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_fleet_log_matches_event_backend(self, seed, noise):
        _sim, event_log = self.run(seed=seed, noise_probability=noise)
        _eng, fleet_log = self.run_fleet(seed=seed, noise_probability=noise)
        assert fleet_log == event_log

    def test_fleet_decision_states_follow_markov_chain(self):
        """The wave engine presents the same per-process state chains to
        the policy as the sequential session loop."""
        spy = _DecisionSpy(UserDefinedPolicy(CATALOG))
        _engine, log = self.run_fleet(policy=spy)
        expected = []
        for process in log.to_processes():
            tried = ()
            for action in process.actions:
                expected.append(
                    RecoveryState(
                        error_type=process.error_type,
                        healthy=False,
                        tried=tried,
                    )
                )
                tried = tried + (action,)
        assert sorted(
            spy.states, key=lambda s: (s.error_type, s.tried)
        ) == sorted(expected, key=lambda s: (s.error_type, s.tried))

    def test_fleet_traces_match_event_traces(self):
        event_recorder = EpisodeRecorder()
        fleet_recorder = EpisodeRecorder()
        _sim, event_log = self.run(seed=4, telemetry=event_recorder)
        _eng, fleet_log = self.run_fleet(seed=4, telemetry=fleet_recorder)
        assert fleet_log == event_log
        assert fleet_recorder.traces == event_recorder.traces
        assert set(t.origin for t in fleet_recorder.traces) == {"cluster"}
