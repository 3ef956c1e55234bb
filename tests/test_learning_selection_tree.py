"""Tests for the selection-tree extractor (Section 5.3)."""

import pytest

import reference_replay as reference
from helpers import ladder_processes
from reference_replay import ReferencePlatform
from repro.actions import default_catalog
from repro.errors import ConfigurationError
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.selection_tree import (
    SelectionTreeConfig,
    SelectionTreeExtractor,
)
from repro.mdp.state import RecoveryState
from repro.policies import TrainedPolicy, UserDefinedPolicy
from repro.simplatform.platform import SimulationPlatform

CATALOG = default_catalog()


def hard_processes():
    return ladder_processes(
        "error:Hard",
        [
            (["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], 30),
            (["TRYNOP", "REBOOT"], 2),
        ],
        realistic_durations=True,
    )


@pytest.fixture(scope="module")
def trained():
    processes = hard_processes()
    platform = SimulationPlatform(processes, CATALOG)
    trainer = QLearningTrainer(
        platform, QLearningConfig(max_sweeps=80, seed=2)
    )
    result = trainer.train_type("error:Hard", processes)
    return platform, trainer, result.qtable, processes


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": -0.1},
            {"check_interval": 0},
            {"stable_checks": 0},
            {"max_candidates": 0},
            {"evaluation_sample": 0},
            {"improvement_margin": -0.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SelectionTreeConfig(**kwargs)


class TestCandidateEnumeration:
    def test_candidates_cover_root_actions(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        candidates = extractor.candidate_rule_tables(qtable, "error:Hard")
        s0 = RecoveryState.initial("error:Hard")
        roots = {rules[s0][0] for rules in candidates if s0 in rules}
        # branch_all_at_root: every visited root action appears.
        assert roots == set(CATALOG.names())

    def test_monotone_chains_enforced(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        for rules in extractor.candidate_rule_tables(qtable, "error:Hard"):
            s0 = RecoveryState.initial("error:Hard")
            chain = []
            state = s0
            while state in rules:
                chain.append(rules[state][0])
                state = state.after(rules[state][0], False)
            strengths = [CATALOG[a].strength for a in chain]
            assert strengths == sorted(strengths)

    def test_candidate_cap_respected(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(threshold=5.0, max_candidates=4)
        )
        candidates = extractor.candidate_rule_tables(qtable, "error:Hard")
        # The cap bounds branching; a small overshoot from in-flight
        # branches is acceptable but it must stay near the cap.
        assert len(candidates) <= 8

    def test_unknown_type_yields_single_empty_candidate(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        candidates = extractor.candidate_rule_tables(qtable, "error:Never")
        assert candidates == [{}]


def reference_mean_cost(rules, processes, sample):
    """Mean cost of ``rules`` replayed one process at a time by the
    string-keyed reference, unhandled replays charged real downtime."""
    platform = ReferencePlatform(processes, CATALOG)
    policy = TrainedPolicy(rules)
    total = 0.0
    for process in sample:
        result = reference.replay(platform, process, policy)
        total += result.cost if result.handled else result.real_cost
    return total / len(sample)


class TestEvaluation:
    def test_evaluate_matches_manual_replay(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(platform)
        rules, cost, count = extractor.extract_best(
            qtable, processes, "error:Hard"
        )
        assert count >= 1
        assert cost == reference_mean_cost(rules, processes, processes)
        # An evaluation_sample=5 extractor thins to evenly spaced
        # processes; the reference replays exactly those.
        thin = SelectionTreeExtractor(
            platform, SelectionTreeConfig(evaluation_sample=5)
        )
        stride = len(processes) / 5
        sample = [processes[int(i * stride)] for i in range(5)]
        assert thin.evaluate(rules, processes) == reference_mean_cost(
            rules, processes, sample
        )

    @pytest.mark.parametrize("refused", ["terminal-state", "empty-action"])
    def test_refused_rule_raises_as_trained_policy_does(
        self, trained, refused
    ):
        platform, _trainer, _qtable, processes = trained
        initial = RecoveryState.initial("error:Hard")
        if refused == "terminal-state":
            rules = {initial.after("REBOOT", True): ("REBOOT", 1.0)}
        else:
            rules = {initial: ("", 1.0)}
        with pytest.raises(ConfigurationError) as expected:
            TrainedPolicy(rules)
        with pytest.raises(ConfigurationError) as caught:
            SelectionTreeExtractor(platform).evaluate(rules, processes)
        assert str(caught.value) == str(expected.value)

    def test_best_candidate_jumps_to_reimage(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(platform)
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard"
        )
        s0 = RecoveryState.initial("error:Hard")
        assert rules[s0][0] == "REIMAGE"

    def test_evaluation_sample_thins_large_ensembles(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(evaluation_sample=5)
        )
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard"
        )
        assert rules  # still works with a thin sample

    def test_baseline_margin_keeps_incumbent_on_ties(self, trained):
        platform, _trainer, qtable, processes = trained
        # With an absurd margin no candidate can win; the user ladder's
        # rules are returned.
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(improvement_margin=0.99)
        )
        baseline = UserDefinedPolicy(CATALOG)
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard", baseline=baseline
        )
        s0 = RecoveryState.initial("error:Hard")
        assert rules[s0][0] == "TRYNOP"

    def test_baseline_overridden_on_clear_win(self, trained):
        platform, _trainer, qtable, processes = trained
        extractor = SelectionTreeExtractor(
            platform, SelectionTreeConfig(improvement_margin=0.03)
        )
        rules, _cost, _count = extractor.extract_best(
            qtable, processes, "error:Hard", baseline=UserDefinedPolicy(CATALOG)
        )
        s0 = RecoveryState.initial("error:Hard")
        assert rules[s0][0] == "REIMAGE"

    def test_empty_process_list_rejected(self, trained):
        platform, _trainer, qtable, _processes = trained
        extractor = SelectionTreeExtractor(platform)
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            extractor.evaluate({}, [])


class TestTreeTrainingCourse:
    def test_converges_faster_than_standard(self):
        processes = hard_processes()
        platform = SimulationPlatform(processes, CATALOG)
        trainer = QLearningTrainer(
            platform, QLearningConfig(max_sweeps=400, seed=3)
        )
        extractor = SelectionTreeExtractor(
            platform,
            SelectionTreeConfig(min_sweeps=20, check_interval=10),
        )
        outcome = extractor.train_type(trainer, "error:Hard", processes)
        assert outcome.training.converged
        assert outcome.training.sweeps_to_convergence < 100
        assert outcome.expected_cost > 0
        s0 = RecoveryState.initial("error:Hard")
        assert outcome.rules[s0][0] == "REIMAGE"


class _CountingExtractor(SelectionTreeExtractor):
    """An extractor that counts its ``extract_best`` calls."""

    extractions = 0

    def extract_best(self, *args, **kwargs):
        self.extractions += 1
        return super().extract_best(*args, **kwargs)


class TestFinalExtraction:
    """The course's final policy is extracted once, not twice.

    A check made at the course's last sweep already extracted from the
    final Q table, so its result is the outcome; otherwise the final
    table is extracted once more.  Either way the outcome equals a
    fresh extraction from the final table.
    """

    def _course(self, max_sweeps, stable_checks, baseline=None):
        processes = hard_processes()
        platform = SimulationPlatform(processes, CATALOG)
        trainer = QLearningTrainer(
            platform, QLearningConfig(max_sweeps=max_sweeps, seed=3)
        )
        config = SelectionTreeConfig(
            min_sweeps=20, check_interval=10, stable_checks=stable_checks
        )
        extractor = _CountingExtractor(platform, config)
        outcome = extractor.train_type(
            trainer, "error:Hard", processes, baseline=baseline
        )
        fresh = SelectionTreeExtractor(platform, config).extract_best(
            outcome.training.qtable, processes, "error:Hard", baseline=baseline
        )
        assert (
            outcome.rules,
            outcome.expected_cost,
            outcome.candidates_evaluated,
        ) == fresh
        # Checks ran at sweeps 20, 30, ... up to the last sweep.
        checks = (outcome.training.sweeps_run - 20) // 10 + 1
        return outcome, extractor.extractions, checks

    @pytest.mark.parametrize("baseline", [None, UserDefinedPolicy(CATALOG)])
    def test_converged_course_reuses_its_last_check(self, baseline):
        outcome, extractions, checks = self._course(400, 2, baseline)
        assert outcome.training.converged
        assert outcome.training.sweeps_run % 10 == 0
        assert extractions == checks

    def test_course_capped_on_a_check_sweep_reuses_it(self):
        outcome, extractions, checks = self._course(40, 100)
        assert not outcome.training.converged
        assert outcome.training.sweeps_run == 40
        assert extractions == checks == 3

    def test_course_capped_between_checks_extracts_once_more(self):
        outcome, extractions, checks = self._course(35, 100)
        assert not outcome.training.converged
        assert outcome.training.sweeps_run == 35
        assert checks == 2
        assert extractions == checks + 1
