"""Ablation experiments for the design choices DESIGN.md calls out.

Not part of the paper's figure set, but they back the claims its
narrative makes:

* **baselines** — the model-based route (empirical belief MDP + value
  iteration) the introduction contrasts with, plus static policies,
  against the RL-trained policy on the same split.
* **exploration** — Boltzmann (the paper's choice, equation 5) versus
  epsilon-greedy.
* **hypotheses** — the multiplicity-aware required-action rule versus
  the naive "last action only" rule the paper argues against
  (Section 3.3): the naive rule lets replay finish recoveries earlier
  than the log it replays, systematically underestimating cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.evaluation.evaluator import PolicyEvaluator
from repro.evaluation.split import time_ordered_split
from repro.experiments.bundle import train_fraction
from repro.experiments.scenario import Scenario
from repro.learning.extraction import extract_greedy_rules, merge_rules
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.mdp.empirical import EmpiricalMDPPolicy
from repro.mining.noise import filter_noise
from repro.policies.static import (
    AlwaysCheapestPolicy,
    AlwaysStrongestPolicy,
    RandomPolicy,
)
from repro.policies.trained import TrainedPolicy
from repro.simplatform.platform import CostMode, SimulationPlatform
from repro.util.tables import render_table

__all__ = [
    "ablation_baselines",
    "ablation_exploration",
    "ablation_hypotheses",
    "ablation_approximation",
]


@dataclass(frozen=True)
class BaselineAblationResult:
    """Overall relative cost of each policy family on the same test set."""

    relative_costs: Mapping[str, float]
    coverages: Mapping[str, float]

    def render(self) -> str:
        """Aligned table of the ablation's rows."""
        rows = [
            (name, f"{self.relative_costs[name]:.4f}",
             f"{self.coverages[name]:.4f}")
            for name in self.relative_costs
        ]
        return render_table(
            ["policy", "relative cost", "coverage"],
            rows,
            title="Ablation: policy families on the 40% split",
        )


def ablation_baselines(
    scenario: Scenario, fraction: float = 0.4
) -> BaselineAblationResult:
    """Model-free vs model-based vs static policies on one split."""
    bundle = train_fraction(scenario, fraction)
    learner = bundle.learner
    assert learner.registry_ is not None
    train, test = time_ordered_split(scenario.processes, fraction)
    clean_train = filter_noise(train).clean
    groups = learner.registry_.partition(clean_train)
    model_based = EmpiricalMDPPolicy.fit(groups, scenario.catalog)
    from repro.policies.index_policy import design_index_policy

    index_designed = design_index_policy(groups, scenario.catalog)

    evaluator = learner.make_evaluator(test, filter_test_noise=False)
    candidates = {
        "user-defined": scenario.user_policy,
        "trained (RL)": learner.trained_policy(),
        "hybrid": learner.hybrid_policy(),
        "model-based (VI)": model_based,
        "index-designed": index_designed,
        "always-cheapest": AlwaysCheapestPolicy(scenario.catalog),
        "always-strongest": AlwaysStrongestPolicy(scenario.catalog),
        "random": RandomPolicy(scenario.catalog, seed=0),
    }
    relative: Dict[str, float] = {}
    coverage: Dict[str, float] = {}
    for label, policy in candidates.items():
        result = evaluator.evaluate(policy, train_fraction=fraction)
        relative[label] = result.overall_relative_cost
        coverage[label] = result.overall_coverage
    return BaselineAblationResult(
        relative_costs=relative, coverages=coverage
    )


@dataclass(frozen=True)
class ExplorationAblationResult:
    """Boltzmann vs epsilon-greedy training on the same types."""

    relative_costs: Mapping[str, float]

    def render(self) -> str:
        """Aligned table of the ablation's rows."""
        rows = [
            (name, f"{cost:.4f}")
            for name, cost in self.relative_costs.items()
        ]
        return render_table(
            ["exploration", "relative cost"],
            rows,
            title="Ablation: exploration strategy",
        )


def ablation_exploration(
    scenario: Scenario,
    fraction: float = 0.4,
    max_sweeps: int = 300,
) -> ExplorationAblationResult:
    """Train with each exploration strategy; compare extracted policies."""
    train, test = time_ordered_split(scenario.processes, fraction)
    clean_train = filter_noise(train).clean
    bundle = train_fraction(scenario, fraction)
    registry = bundle.learner.registry_
    assert registry is not None
    groups = registry.partition(clean_train)
    platform = SimulationPlatform(clean_train, scenario.catalog)
    evaluator = PolicyEvaluator(
        filter_noise(test).clean,
        scenario.catalog,
        error_types=registry.names,
    )

    relative: Dict[str, float] = {}
    for strategy in ("boltzmann", "epsilon"):
        trainer = QLearningTrainer(
            platform,
            QLearningConfig(max_sweeps=max_sweeps, exploration=strategy),
        )
        tables = []
        for error_type, processes in groups.items():
            if not processes:
                continue
            result = trainer.train_type(error_type, processes)
            tables.append(extract_greedy_rules(result.qtable))
        policy = TrainedPolicy(merge_rules(*tables), label=strategy)
        relative[strategy] = evaluator.evaluate(
            policy
        ).overall_relative_cost
    return ExplorationAblationResult(relative_costs=relative)


@dataclass(frozen=True)
class ApproximationAblationResult:
    """Tabular (with tree) vs linear-approximation policies.

    Attributes
    ----------
    relative_costs:
        Overall relative downtime per representation.
    parameters:
        Learned-parameter counts: table entries vs linear weights.
    """

    relative_costs: Mapping[str, float]
    parameters: Mapping[str, int]

    def render(self) -> str:
        """Aligned table of the ablation's rows."""
        rows = [
            (
                name,
                f"{self.relative_costs[name]:.4f}",
                self.parameters[name],
            )
            for name in self.relative_costs
        ]
        return render_table(
            ["representation", "relative cost", "parameters"],
            rows,
            title="Ablation: tabular vs linear Q-function approximation",
        )


def ablation_approximation(
    scenario: Scenario, fraction: float = 0.4
) -> ApproximationAblationResult:
    """The paper's future-work extension: generalization functions.

    Trains one linear Q-function per error type on the same platform the
    tabular course uses and compares the extracted policies on the same
    held-out split.
    """
    from repro.learning.approximation import ApproximateQLearningTrainer
    from repro.learning.selection_tree import SelectionTreeExtractor

    bundle = train_fraction(scenario, fraction)
    learner = bundle.learner
    assert learner.registry_ is not None
    train, test = time_ordered_split(scenario.processes, fraction)
    clean_train = filter_noise(train).clean
    groups = learner.registry_.partition(clean_train)
    platform = SimulationPlatform(clean_train, scenario.catalog)

    trainer = ApproximateQLearningTrainer(platform)
    extractor = SelectionTreeExtractor(platform)
    rule_tables = []
    weight_count = 0
    for error_type, processes in groups.items():
        if not processes:
            continue
        result = trainer.train_type(error_type, processes)
        weight_count += result.qfunction.dimension
        # Same conservative protocol as the tabular course: adopt the
        # learned rules only when they beat the incumbent ladder on
        # exact training replay.
        learned_cost = extractor.evaluate(result.rules, processes)
        incumbent = extractor.baseline_rules(
            scenario.user_policy, processes, error_type
        )
        incumbent_cost = extractor.evaluate(incumbent, processes)
        if learned_cost < incumbent_cost * 0.97:
            rule_tables.append(result.rules)
        else:
            rule_tables.append(incumbent)
    approx_policy = TrainedPolicy(
        merge_rules(*rule_tables), label="linear-approximation"
    )

    table_entries = 0
    assert learner.training_result_ is not None
    for outcome in learner.training_result_.per_type.values():
        qtable = outcome.qtable
        table_entries += sum(
            1
            for state in qtable.states()
            for action in qtable.action_names
            if qtable.visit_count(state, action) > 0
        )

    evaluator = learner.make_evaluator(test)
    approx = evaluator.evaluate(approx_policy, train_fraction=fraction)
    return ApproximationAblationResult(
        relative_costs={
            "tabular + selection tree": (
                bundle.trained_eval.overall_relative_cost
            ),
            "linear approximation": approx.overall_relative_cost,
        },
        parameters={
            "tabular + selection tree": table_entries,
            "linear approximation": weight_count,
        },
    )


@dataclass(frozen=True)
class HypothesesAblationResult:
    """Replay soundness under the two required-action rules.

    ``mean_ratio`` is the estimated/real downtime ratio of replaying the
    log's own policy over its own processes in actual-cost mode — 1.0 for
    a self-consistent replay rule, below 1.0 for one that finishes
    recoveries earlier than the log it replays.
    """

    mean_ratio: Mapping[str, float]
    early_finish_fraction: Mapping[str, float]

    def render(self) -> str:
        """Aligned table of the ablation's rows."""
        rows = [
            (
                rule,
                f"{self.mean_ratio[rule]:.4f}",
                f"{self.early_finish_fraction[rule]:.4f}",
            )
            for rule in self.mean_ratio
        ]
        return render_table(
            ["required-action rule", "est/real ratio", "early finishes"],
            rows,
            title="Ablation: replay hypotheses (self-replay soundness)",
        )


def ablation_hypotheses(
    scenario: Scenario, sample: int = 2000
) -> HypothesesAblationResult:
    """Compare the multiplicity-aware rule with last-action-only replay."""
    processes = scenario.clean[:sample]
    ratios: Dict[str, float] = {}
    early: Dict[str, float] = {}
    for label, last_only in (
        ("last+stronger (paper)", False),
        ("last action only", True),
    ):
        platform = SimulationPlatform(
            processes,
            scenario.catalog,
            cost_mode=CostMode.ACTUAL_WHEN_MATCHING,
            last_action_only=last_only,
        )
        estimated = 0.0
        real = 0.0
        early_count = 0
        results = platform.replay_many(processes, scenario.user_policy)
        for process, result in zip(processes, results):
            if not result.handled:
                continue
            estimated += result.cost
            real += result.real_cost
            if len(result.actions) < len(process.actions):
                early_count += 1
        ratios[label] = estimated / real if real else 1.0
        early[label] = early_count / len(processes) if processes else 0.0
    return HypothesesAblationResult(
        mean_ratio=ratios, early_finish_fraction=early
    )
