"""The selection-tree learning-rate optimization (Section 5.3).

Standard Q-learning needs the Boltzmann course to anneal fully before the
greedy policy stabilizes — up to 160k sweeps in the paper, sometimes never
converging.  The selection tree shortcuts this: whenever the expected
total cost of the *second best* action is close enough to the best one
(within a threshold), both are kept as candidates; stacking candidate
actions along the failure chain yields a small tree of candidate
policies, each of which is evaluated *exactly* by deterministic replay
over the training processes.  Scanning the tree finds the optimal policy
long before the Q values themselves settle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TrainingError
from repro.learning.qlearning import (
    QLearningTrainer,
    TypeTrainingResult,
)
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy as PolicyLike
from repro.policies.trained import check_rules
from repro.recoverylog.process import RecoveryProcess
from repro.simplatform.platform import SimulationPlatform

__all__ = ["SelectionTreeConfig", "SelectionTreeExtractor", "TreeTrainingOutcome"]

Rule = Tuple[str, float]
RuleTable = Dict[RecoveryState, Rule]


@dataclass(frozen=True)
class SelectionTreeConfig:
    """Parameters of selection-tree extraction.

    Attributes
    ----------
    threshold:
        Relative closeness for keeping the second-best action: it becomes
        a candidate when ``q2 <= q1 * (1 + threshold)``.
    check_interval:
        Sweeps between candidate evaluations during training.
    min_sweeps:
        Earliest sweep at which candidates are evaluated.
    stable_checks:
        Consecutive evaluations that must pick the same best policy
        before the course is declared converged.
    max_candidates:
        Cap on enumerated candidate policies; beyond it, further branch
        points keep only their best action.
    evaluation_sample:
        Cap on the number of training processes replayed per candidate
        evaluation; larger ensembles are thinned to an evenly spaced,
        deterministic subset.
    branch_all_at_root:
        Consider *every* action as a candidate for the initial state,
        not just the best two.  The paper's improved types all differ
        from the user-defined policy in their *first* action ("the
        trained policy will try a stronger repair action at the
        beginning"), and exact evaluation of the root alternatives is
        cheap insurance against residual Q noise.
    monotone_chains:
        Restrict candidate actions at non-initial states to strengths at
        least that of the previous attempt.  Under a cheapest-first log
        policy every recovery's required-action multiset is homogeneous
        (the final action plus equal-strength repeats), so weakening
        mid-chain can never fix a recovery the chain hasn't fixed yet —
        but an unconstrained candidate with a weak tail looks harmless
        on training data that happens to lack deep patterns, then rides
        the N-action cap into a manual repair on test processes that do
        have them.
    improvement_margin:
        Conservative policy improvement: when a baseline policy is
        supplied, a deviating candidate is adopted only if its evaluated
        cost beats the baseline's by at least this relative margin;
        otherwise the baseline's own rules are kept.  Near-tie
        alternatives measured on thin training data generalize poorly
        (the instability the paper observes on its type 23 at the 20%
        split), so ties go to the incumbent.
    """

    threshold: float = 0.3
    check_interval: int = 20
    min_sweeps: int = 60
    stable_checks: int = 2
    max_candidates: int = 64
    evaluation_sample: int = 500
    branch_all_at_root: bool = True
    monotone_chains: bool = True
    improvement_margin: float = 0.03

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ConfigurationError(
                f"threshold must be >= 0, got {self.threshold}"
            )
        for name in ("check_interval", "min_sweeps", "stable_checks",
                     "max_candidates", "evaluation_sample"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.improvement_margin < 0:
            raise ConfigurationError(
                "improvement_margin must be >= 0, got "
                f"{self.improvement_margin}"
            )


@dataclass(frozen=True)
class TreeTrainingOutcome:
    """Result of a selection-tree training course for one type.

    Attributes
    ----------
    training:
        The underlying Q-learning course (its ``sweeps_to_convergence``
        is the Figure 13 "with selection tree" measurement).
    rules:
        The best candidate policy's rule table.
    expected_cost:
        Its exactly evaluated mean cost on the training processes.
    candidates_evaluated:
        Candidate policies enumerated at the final check.
    """

    training: TypeTrainingResult
    rules: RuleTable
    expected_cost: float
    candidates_evaluated: int


class SelectionTreeExtractor:
    """Enumerate and exactly evaluate candidate policies from a Q table."""

    def __init__(
        self,
        platform: SimulationPlatform,
        config: Optional[SelectionTreeConfig] = None,
    ) -> None:
        self.platform = platform
        self.config = config if config is not None else SelectionTreeConfig()

    # ------------------------------------------------------------------
    def candidate_rule_tables(
        self, qtable: QTable, error_type: str
    ) -> List[RuleTable]:
        """Build the selection tree and return one rule table per leaf.

        Candidates are enumerated along the failure chain from the
        initial state; at each state the best action always continues
        and the second-best joins when within the threshold, until the
        candidate cap bites.
        """
        complete: List[RuleTable] = []

        def expand(state: RecoveryState, rules: RuleTable) -> None:
            if state.attempt_count >= self.platform.max_actions - 1:
                # The platform forces the manual repair here; no rule needed.
                complete.append(rules)
                return
            ranked = qtable.ranked_actions(state)
            if self.config.monotone_chains and state.tried:
                catalog = self.platform.catalog
                floor = max(
                    catalog[name].strength for name in state.tried
                )
                ranked = tuple(
                    (name, value)
                    for name, value in ranked
                    if catalog[name].strength >= floor
                )
            if not ranked:
                # Unexplored state: the policy simply ends (unhandled at
                # runtime if ever reached).
                complete.append(rules)
                return
            if (
                self.config.branch_all_at_root
                and state.attempt_count == 0
                and len(complete) < self.config.max_candidates
            ):
                candidates = list(ranked)
            else:
                candidates = [ranked[0]]
                if (
                    len(ranked) > 1
                    and len(complete) < self.config.max_candidates
                    and ranked[1][1]
                    <= ranked[0][1] * (1.0 + self.config.threshold)
                ):
                    candidates.append(ranked[1])
            for action_name, q_value in candidates:
                new_rules = dict(rules)
                new_rules[state] = (action_name, q_value)
                successor = state.after(action_name, healthy=False)
                expand(successor, new_rules)

        expand(RecoveryState.initial(error_type), {})
        return complete

    def evaluate(
        self,
        rules: RuleTable,
        processes: Sequence[RecoveryProcess],
    ) -> float:
        """Mean replayed cost of the candidate policy over ``processes``.

        Unhandled replays are charged their real downtime, a neutral
        substitution that neither rewards nor punishes rule gaps.  Each
        process replays on the platform's compiled rows
        (:meth:`~repro.simplatform.platform.CompiledReplay.step`),
        looking rules up by tried-action-id tuples: bit-identical to
        :meth:`~repro.simplatform.platform.SimulationPlatform.replay`
        under a :class:`~repro.policies.trained.TrainedPolicy` of
        ``rules``, without building one.
        """
        if not processes:
            raise TrainingError("cannot evaluate a policy on no processes")
        sample = self._evaluation_sample(processes)
        platform = self.platform
        compiled = platform.compiled()
        tables = self._rule_ids(rules)
        strongest_aid = platform.action_id(platform.forced_action_name)
        total = 0.0
        for process in sample:
            if not process.attempts:
                # Self-healed: nothing to decide; charge real downtime.
                total += process.downtime
                continue
            row = platform.process_index(process)
            table = tables.get(process.error_type, {})
            executed = [0] * compiled.n_actions
            tried: Tuple[int, ...] = ()
            cost = compiled.initial_cost[row]
            depth = 0
            while True:
                if platform.forced_action(depth) is not None:
                    aid = strongest_aid
                else:
                    aid = table.get(tried)
                    if aid is None:
                        cost = process.downtime
                        break
                    if aid < 0:
                        # Outside the catalog: resolving the rule's
                        # action by name raises the catalog's error.
                        state = RecoveryState(
                            process.error_type,
                            tried=tuple(compiled.actions[a] for a in tried),
                        )
                        aid = platform.action_id(rules[state][0])
                succeeded, step_cost = compiled.step(
                    row, executed, depth, aid
                )
                cost += step_cost
                if succeeded:
                    break
                tried += (aid,)
                depth += 1
            total += cost
        return total / len(sample)

    def _rule_ids(
        self, rules: RuleTable
    ) -> Dict[str, Dict[Tuple[int, ...], int]]:
        """``rules`` keyed by error type, then by tried-action ids.

        A rule whose action is outside the catalog maps to -1 and raises
        only when a replay reaches it, as a policy's answer would; a
        rule whose history is outside the catalog is dropped, since no
        replay can reach its state.
        """
        check_rules(rules)
        action_ids = self.platform.action_ids
        tables: Dict[str, Dict[Tuple[int, ...], int]] = {}
        for state, (action, _cost) in rules.items():
            tried = tuple(action_ids.get(name, -1) for name in state.tried)
            if -1 not in tried:
                table = tables.setdefault(state.error_type, {})
                table[tried] = action_ids.get(action, -1)
        return tables

    def _evaluation_sample(
        self, processes: Sequence[RecoveryProcess]
    ) -> Sequence[RecoveryProcess]:
        cap = self.config.evaluation_sample
        if len(processes) <= cap:
            return processes
        stride = len(processes) / cap
        return [processes[int(i * stride)] for i in range(cap)]

    def baseline_rules(
        self,
        baseline: "PolicyLike",
        processes: Sequence[RecoveryProcess],
        error_type: str,
    ) -> RuleTable:
        """The baseline policy unrolled into a rule table for this type.

        Rules follow the baseline along the failure chain, down to the
        deepest attempt count observed in the training processes (a rule
        is only justified where data existed — deeper states stay
        unhandled, exactly like learned rules).
        """
        max_depth = max(
            (len(p.actions) for p in processes), default=0
        )
        rules: RuleTable = {}
        state = RecoveryState.initial(error_type)
        for _depth in range(min(max_depth, self.platform.max_actions - 1)):
            action_name = baseline.decide(state).action
            rules[state] = (action_name, 0.0)
            state = state.after(action_name, healthy=False)
        return rules

    def extract_best(
        self,
        qtable: QTable,
        processes: Sequence[RecoveryProcess],
        error_type: str,
        baseline: Optional["PolicyLike"] = None,
    ) -> Tuple[RuleTable, float, int]:
        """Pick the exactly-best candidate policy.

        With a ``baseline`` policy, applies conservative improvement:
        the winning candidate must beat the baseline's evaluated cost by
        ``improvement_margin``, otherwise the baseline's rules win.

        Returns ``(rules, expected cost, candidates evaluated)``.
        """
        candidates = self.candidate_rule_tables(qtable, error_type)
        if not candidates:
            raise TrainingError(
                f"no candidate policies for error type {error_type!r}"
            )
        best_rules: Optional[RuleTable] = None
        best_cost = float("inf")
        for rules in candidates:
            cost = self.evaluate(rules, processes)
            if cost < best_cost:
                best_cost = cost
                best_rules = rules
        assert best_rules is not None
        if baseline is not None:
            incumbent = self.baseline_rules(baseline, processes, error_type)
            incumbent_cost = self.evaluate(incumbent, processes)
            if best_cost > incumbent_cost * (
                1.0 - self.config.improvement_margin
            ):
                return incumbent, incumbent_cost, len(candidates) + 1
        return best_rules, best_cost, len(candidates)

    # ------------------------------------------------------------------
    def train_type(
        self,
        trainer: QLearningTrainer,
        error_type: str,
        processes: Sequence[RecoveryProcess],
        baseline: Optional[PolicyLike] = None,
        telemetry=None,
    ) -> TreeTrainingOutcome:
        """Run a Q-learning course that stops via selection-tree checks.

        Every ``check_interval`` sweeps the tree is rebuilt and its
        candidates exactly evaluated; once the winning action sequence is
        stable for ``stable_checks`` consecutive checks, training stops —
        typically an order of magnitude sooner than waiting for the Q
        values themselves to settle (Figures 13 and 14).
        """
        # ``extracted`` keeps the last check's sweep and extraction: the
        # Q table does not change after the course's last sweep, so a
        # check made there is the final extraction too.
        state = {"previous": None, "stable": 0, "extracted": None}

        def signature(rules: RuleTable) -> Tuple[Tuple[Tuple[str, ...], str], ...]:
            return tuple(
                sorted((s.tried, rule[0]) for s, rule in rules.items())
            )

        def callback(sweep: int, qtable: QTable) -> bool:
            if sweep + 1 < self.config.min_sweeps:
                return False
            if (sweep + 1) % self.config.check_interval != 0:
                return False
            best = self.extract_best(
                qtable, processes, error_type, baseline=baseline
            )
            state["extracted"] = (sweep, best)
            current = signature(best[0])
            if current == state["previous"]:
                state["stable"] += 1
            else:
                state["stable"] = 1
                state["previous"] = current
            return state["stable"] >= self.config.stable_checks

        training = trainer.train_type(
            error_type, processes, sweep_callback=callback,
            telemetry=telemetry,
        )
        extracted = state["extracted"]
        if extracted is not None and extracted[0] == training.sweeps_run - 1:
            rules, cost, count = extracted[1]
        else:
            rules, cost, count = self.extract_best(
                training.qtable, processes, error_type, baseline=baseline
            )
        return TreeTrainingOutcome(
            training=training,
            rules=rules,
            expected_cost=cost,
            candidates_evaluated=count,
        )
