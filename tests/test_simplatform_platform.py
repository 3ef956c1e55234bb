"""Tests for the simulation platform's step and replay semantics.

The string ``step`` is the test-only reference's
(``reference_replay.ReferencePlatform``); replay runs on the compiled
kernel.
"""

import pytest

from helpers import ladder_processes, make_process
from reference_replay import ReferencePlatform
from repro.actions import default_catalog
from repro.errors import SimulationError, UnknownActionError
from repro.learning.qtable import QTable
from repro.learning.selection_tree import SelectionTreeExtractor
from repro.mdp.state import RecoveryState
from repro.policies import (
    AlwaysStrongestPolicy,
    FixedSequencePolicy,
    TrainedPolicy,
    UserDefinedPolicy,
)
from repro.simplatform.platform import CostMode, SimulationPlatform

CATALOG = default_catalog()


def platform_for(processes, **kwargs):
    return SimulationPlatform(processes, CATALOG, **kwargs)


def reference_for(processes, **kwargs):
    return ReferencePlatform(processes, CATALOG, **kwargs)


def weird_process():
    """A process whose log names an action outside the catalog."""
    from repro.recoverylog.entry import LogEntry
    from repro.recoverylog.process import RecoveryProcess

    return RecoveryProcess(
        "m",
        (
            LogEntry.symptom(0.0, "m", "error:X"),
            LogEntry.action(60.0, "m", "FROBNICATE"),
            LogEntry.success(600.0, "m"),
        ),
    )


class TestStep:
    def test_matching_action_uses_actual_cost(self):
        process = make_process(["TRYNOP", "REBOOT"], step=600.0)
        platform = reference_for([process])
        state = RecoveryState.initial("error:X")
        outcome = platform.step(process, state, "TRYNOP")
        assert outcome.matched_log
        assert not outcome.succeeded
        assert outcome.cost == pytest.approx(600.0)

    def test_success_at_final_matching_action(self):
        process = make_process(["TRYNOP", "REBOOT"], step=600.0)
        platform = reference_for([process])
        state = RecoveryState("error:X", tried=("TRYNOP",))
        outcome = platform.step(process, state, "REBOOT")
        assert outcome.succeeded
        assert outcome.matched_log
        assert outcome.next_state.is_terminal

    def test_stronger_action_covers_early(self):
        process = make_process(["TRYNOP", "REBOOT"])
        platform = reference_for([process])
        state = RecoveryState.initial("error:X")
        outcome = platform.step(process, state, "REIMAGE")
        assert outcome.succeeded
        assert not outcome.matched_log

    def test_non_matching_failure_uses_average(self):
        processes = ladder_processes(
            "error:X", [(["TRYNOP", "REBOOT"], 5)], step=700.0
        )
        platform = reference_for(processes)
        state = RecoveryState.initial("error:X")
        # REBOOT at position 0 does not match the logged TRYNOP, but it
        # covers the required {REBOOT} -> success with averaged cost.
        outcome = platform.step(processes[0], state, "REBOOT")
        assert outcome.succeeded
        assert outcome.cost == pytest.approx(700.0)

    def test_averages_only_mode_never_matches(self):
        process = make_process(["REBOOT"], step=600.0)
        platform = reference_for([process], cost_mode=CostMode.AVERAGES_ONLY)
        outcome = platform.step(
            process, RecoveryState.initial("error:X"), "REBOOT"
        )
        assert outcome.succeeded
        assert outcome.cost == pytest.approx(600.0)  # the (only) average

    def test_terminal_state_rejected(self):
        process = make_process(["REBOOT"])
        platform = reference_for([process])
        terminal = RecoveryState("error:X", True, ("REBOOT",))
        with pytest.raises(SimulationError):
            platform.step(process, terminal, "REBOOT")

    def test_error_type_mismatch_rejected(self):
        process = make_process(["REBOOT"], error_type="error:X")
        platform = reference_for([process])
        with pytest.raises(SimulationError, match="does not match"):
            platform.step(
                process, RecoveryState.initial("error:Y"), "REBOOT"
            )


class TestReplay:
    def test_self_replay_is_exact(self):
        process = make_process(
            ["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], step=800.0
        )
        platform = platform_for([process])
        result = platform.replay(process, UserDefinedPolicy(CATALOG))
        assert result.handled
        assert result.actions == process.actions
        assert result.cost == pytest.approx(process.downtime)

    def test_self_replay_exact_on_generated_trace(self, small_processes):
        platform = SimulationPlatform(small_processes, CATALOG)
        policy = UserDefinedPolicy(CATALOG)
        for process in small_processes[:200]:
            result = platform.replay(process, policy)
            assert result.handled
            assert result.cost == pytest.approx(result.real_cost)

    def test_jump_policy_skips_prefix(self):
        process = make_process(
            ["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], step=800.0
        )
        platform = platform_for([process])
        policy = FixedSequencePolicy(["REIMAGE", "RMA"], CATALOG)
        result = platform.replay(process, policy)
        assert result.handled
        assert result.actions == ("REIMAGE",)
        assert result.cost < result.real_cost

    def test_unhandled_policy_reported(self):
        process = make_process(["TRYNOP", "REBOOT"])
        platform = platform_for([process])
        empty = TrainedPolicy({}, label="empty")
        result = platform.replay(process, empty)
        assert not result.handled
        assert result.real_cost == pytest.approx(process.downtime)

    def test_action_cap_forces_manual(self):
        process = make_process(["TRYNOP", "RMA"])
        platform = platform_for([process], max_actions=3)
        # A policy that would watch forever gets cut off by the cap.
        stuck = TrainedPolicy(
            {
                RecoveryState.initial("error:X"): ("TRYNOP", 0.0),
                RecoveryState("error:X", tried=("TRYNOP",)): ("TRYNOP", 0.0),
                RecoveryState(
                    "error:X", tried=("TRYNOP", "TRYNOP")
                ): ("TRYNOP", 0.0),
            },
            label="stuck",
        )
        result = platform.replay(process, stuck)
        assert result.handled
        assert result.forced_manual
        assert result.actions[-1] == "RMA"
        assert len(result.actions) <= 3

    def test_self_healed_process_charges_real_downtime(self):
        from repro.recoverylog.entry import LogEntry
        from repro.recoverylog.process import RecoveryProcess

        process = RecoveryProcess(
            "m",
            (
                LogEntry.symptom(0.0, "m", "error:X"),
                LogEntry.success(50.0, "m"),
            ),
        )
        platform = platform_for([process])
        result = platform.replay(process, AlwaysStrongestPolicy(CATALOG))
        assert result.handled
        assert result.cost == pytest.approx(50.0)
        assert result.actions == ()

    def test_initial_cost_actual_vs_average(self):
        processes = ladder_processes(
            "error:X", [(["REBOOT"], 4)]
        )
        actual = platform_for(processes)
        averaged = platform_for(
            processes, cost_mode=CostMode.AVERAGES_ONLY
        )
        assert actual.initial_cost(processes[0]) == pytest.approx(60.0)
        assert averaged.initial_cost(processes[0]) == pytest.approx(60.0)

    def test_bad_max_actions_rejected(self):
        with pytest.raises(Exception):
            platform_for([make_process(["REBOOT"])], max_actions=1)


class TestForcedActionCap:
    """The N-cap rule lives in one place: ``forced_action``.

    Both ``replay`` and the trainer's episode loops consult it, so the
    boundary — the manual repair becomes mandatory exactly at
    ``attempt_count == max_actions - 1`` — is pinned here once.
    """

    def test_boundary_is_max_actions_minus_one(self):
        platform = platform_for([make_process(["RMA"])], max_actions=5)
        assert [platform.forced_action(n) for n in range(4)] == [None] * 4
        assert platform.forced_action(4) == "RMA"
        assert platform.forced_action(11) == "RMA"

    def test_replay_forces_exactly_at_the_last_slot(self):
        process = make_process(["RMA"])  # only the strongest cures
        platform = platform_for([process], max_actions=4)
        stuck = TrainedPolicy(
            {
                RecoveryState("error:X", tried=("TRYNOP",) * n): (
                    "TRYNOP",
                    0.0,
                )
                for n in range(4)
            },
            label="stuck",
        )
        result = platform.replay(process, stuck)
        assert result.forced_manual
        # Three free choices (attempt counts 0..max_actions - 2), then
        # the forced manual repair at attempt_count == max_actions - 1.
        assert result.actions == ("TRYNOP",) * 3 + ("RMA",)
        assert platform.forced_action(len(result.actions) - 1) == "RMA"
        assert platform.forced_action(len(result.actions) - 2) is None

    def test_trainer_episode_obeys_the_same_boundary(self):
        from repro.learning.qlearning import QLearningConfig, QLearningTrainer
        from repro.learning.telemetry import EpisodeRecorder

        process = make_process(["RMA"])
        platform = platform_for([process], max_actions=3)
        recorder = EpisodeRecorder()
        trainer = QLearningTrainer(
            platform,
            QLearningConfig(
                min_visits_per_action=5, max_sweeps=1, warm_start_passes=0
            ),
            episode_telemetry=recorder,
        )
        trainer.train_type("error:X", [process])
        (trace,) = recorder.traces
        # Forced exploration keeps proposing TRYNOP (fresh states,
        # catalog-order tie break) until the cap forces the manual
        # repair at attempt_count == max_actions - 1.
        assert trace.actions() == ("TRYNOP", "TRYNOP", "RMA")
        assert [step.source for step in trace.steps] == [
            "explore:forced",
            "explore:forced",
            "forced:cap",
        ]
        assert trace.steps[-1].attempt_count == platform.max_actions - 1


#: The catalog's message for the action name no catalog has.
FROBNICATE_MESSAGE = (
    "unknown repair action 'FROBNICATE'; catalog has "
    "['TRYNOP', 'REBOOT', 'REIMAGE', 'RMA']"
)


class TestRequiredStrengthsCache:
    def test_unknown_logged_action_surfaces_at_first_step(self):
        weird = weird_process()
        # Construction must not raise: the error belongs to replay time.
        platform = platform_for([weird, make_process(["REBOOT"])])
        with pytest.raises(UnknownActionError) as caught:
            platform.replay(weird, AlwaysStrongestPolicy(CATALOG))
        assert caught.value.args == (FROBNICATE_MESSAGE,)


class TestKernelFailurePaths:
    """Failure paths the string ``step`` raised, kept by the kernel."""

    CALLERS = ("replay", "replay_many", "evaluate", "baseline")

    @staticmethod
    def call(caller, platform, process, rules):
        """Replay ``process`` under ``rules`` through ``caller``."""
        policy = TrainedPolicy(rules)
        if caller == "replay":
            return platform.replay(process, policy)
        if caller == "replay_many":
            return platform.replay_many([process], policy)
        extractor = SelectionTreeExtractor(platform)
        if caller == "evaluate":
            return extractor.evaluate(rules, [process])
        # An empty Q table has one empty candidate; the baseline's
        # unrolled rules are then scored as the incumbent.
        return extractor.extract_best(
            QTable(CATALOG.names()), [process], "error:X", baseline=policy
        )

    @pytest.mark.parametrize("caller", CALLERS)
    def test_answer_outside_catalog_raises_unknown_action(self, caller):
        process = make_process(["REBOOT"])
        rules = {RecoveryState.initial("error:X"): ("FROBNICATE", 0.0)}
        with pytest.raises(UnknownActionError) as caught:
            self.call(caller, platform_for([process]), process, rules)
        assert caught.value.args == (FROBNICATE_MESSAGE,)

    @pytest.mark.parametrize("caller", CALLERS[1:3])
    def test_logged_action_outside_catalog_raises_unknown_action(
        self, caller
    ):
        weird = weird_process()
        platform = platform_for([make_process(["REBOOT"]), weird])
        rules = {RecoveryState.initial("error:X"): ("REBOOT", 0.0)}
        with pytest.raises(UnknownActionError) as caught:
            self.call(caller, platform, weird, rules)
        assert caught.value.args == (FROBNICATE_MESSAGE,)

    @pytest.mark.parametrize("caller", CALLERS[:3])
    def test_foreign_process_is_rejected(self, caller):
        platform = platform_for([make_process(["TRYNOP", "REBOOT"])])
        foreign = make_process(["REIMAGE"], machine="m-foreign")
        rules = {RecoveryState.initial("error:X"): ("REIMAGE", 0.0)}
        with pytest.raises(SimulationError, match="not part of this platform"):
            self.call(caller, platform, foreign, rules)


def _fast_succeeds(compiled, pidx, executed_counts):
    """The fast loop's success rule: cumulative rank-count dominance."""
    required = compiled.required_ge[pidx]
    running = 0
    for rank in range(compiled.n_actions - 1, -1, -1):
        running += executed_counts[rank]
        if running < required[rank]:
            return False
    return True


class TestCompiledReplay:
    def _platform(self, factory=platform_for):
        processes = ladder_processes(
            "error:X",
            [(["TRYNOP", "REBOOT"], 2), (["TRYNOP", "REBOOT", "REIMAGE"], 2),
             (["RMA"], 1)],
            realistic_durations=True,
        )
        return factory(processes)

    def test_compiled_is_built_once(self):
        platform = self._platform()
        assert platform.compiled() is platform.compiled()

    def test_action_ids_are_catalog_positions(self):
        platform = self._platform()
        assert platform.compiled().actions == tuple(CATALOG.names())

    def test_process_index_first_match_and_foreign_rejection(self):
        process = make_process(["TRYNOP", "REBOOT"])
        duplicate = make_process(["TRYNOP", "REBOOT"])
        platform = platform_for([process, duplicate])
        assert platform.process_index(process) == 0
        assert platform.process_index(duplicate) == 0
        with pytest.raises(SimulationError, match="not part"):
            platform.process_index(make_process(["RMA"], machine="x"))

    def test_success_rule_matches_step_exactly(self):
        platform = self._platform(reference_for)
        compiled = platform.compiled()
        names = compiled.actions
        for pidx, process in enumerate(platform.processes):
            # Walk every two-action prefix; compare the compiled success
            # decision against the reference ``covers``-based step.
            for first in range(compiled.n_actions):
                state = RecoveryState.initial(process.error_type)
                outcome = platform.step(process, state, names[first])
                counts = [0] * compiled.n_actions
                counts[first] += 1
                assert _fast_succeeds(compiled, pidx, counts) == (
                    outcome.succeeded
                ), (pidx, names[first])
                if outcome.succeeded:
                    continue
                for second in range(compiled.n_actions):
                    follow = platform.step(
                        process, outcome.next_state, names[second]
                    )
                    counts2 = list(counts)
                    counts2[second] += 1
                    assert _fast_succeeds(compiled, pidx, counts2) == (
                        follow.succeeded
                    ), (pidx, names[first], names[second])

    def test_logged_attempts_and_costs_mirror_the_process(self):
        platform = self._platform()
        compiled = platform.compiled()
        names = list(compiled.actions)
        for pidx, process in enumerate(platform.processes):
            attempts = process.attempts
            assert compiled.attempt_aids[pidx] == tuple(
                names.index(a.action) for a in attempts
            )
            assert compiled.attempt_succeeded[pidx] == tuple(
                a.succeeded for a in attempts
            )
            assert compiled.attempt_durations[pidx] == tuple(
                a.duration for a in attempts
            )
            assert compiled.initial_cost[pidx] == platform.initial_cost(
                process
            )
            assert compiled.downtime[pidx] == process.downtime
            for aid, name in enumerate(names):
                assert compiled.success_cost[pidx][aid] == (
                    platform.stats.success_cost(process.error_type, name)
                )
                assert compiled.failure_cost[pidx][aid] == (
                    platform.stats.failure_cost(process.error_type, name)
                )

    def test_unknown_action_process_is_marked_uncompilable(self):
        platform = platform_for([weird_process(), make_process(["REBOOT"])])
        compiled = platform.compiled()
        assert compiled.required_ge[0] is None
        assert compiled.attempt_aids[0] == (-1,)
        assert compiled.required_ge[1] is not None
