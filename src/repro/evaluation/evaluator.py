"""Replay a policy over held-out processes and aggregate metrics."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.actions.action import ActionCatalog
from repro.errors import EvaluationError
from repro.evaluation.metrics import EvaluationResult, TypeEvaluation
from repro.policies.base import Policy
from repro.recoverylog.process import RecoveryProcess
from repro.session.trace import EpisodeTelemetry
from repro.simplatform.coststats import CostStatistics
from repro.simplatform.platform import CostMode, SimulationPlatform

__all__ = ["PolicyEvaluator"]


class _TypeAccumulator:
    __slots__ = ("total", "handled", "estimated", "real_handled", "real_all")

    def __init__(self) -> None:
        self.total = 0
        self.handled = 0
        self.estimated = 0.0
        self.real_handled = 0.0
        self.real_all = 0.0


class PolicyEvaluator:
    """Evaluate policies on a fixed ensemble of test processes.

    Parameters
    ----------
    processes:
        The held-out test processes.
    catalog:
        Repair-action catalog.
    error_types:
        Restrict evaluation to these types (the paper's 40 most
        frequent); ``None`` evaluates every type present.
    stats:
        Cost statistics for non-matching replay steps; defaults to
        statistics over the test ensemble itself, which makes the
        relative cost of the log's own policy exactly 1.0 — the natural
        reference point for Figures 8-12.
    max_actions:
        The paper's per-process action cap ``N``.
    """

    def __init__(
        self,
        processes: Sequence[RecoveryProcess],
        catalog: ActionCatalog,
        *,
        error_types: Optional[Iterable[str]] = None,
        stats: Optional[CostStatistics] = None,
        max_actions: int = 20,
    ) -> None:
        if not processes:
            raise EvaluationError("no test processes to evaluate on")
        self._platform = SimulationPlatform(
            processes,
            catalog,
            stats=stats,
            cost_mode=CostMode.ACTUAL_WHEN_MATCHING,
            max_actions=max_actions,
        )
        present = {p.error_type for p in processes}
        if error_types is None:
            self._types = sorted(present)
        else:
            self._types = [t for t in error_types if t in present]
        # Keep every test process; out-of-scope ones are skipped (and
        # counted) at evaluation time rather than silently dropped here.
        self._all_processes = tuple(processes)
        in_scope = set(self._types)
        self._processes = [
            p for p in processes if p.error_type in in_scope
        ]

    @property
    def platform(self) -> SimulationPlatform:
        """The underlying replay platform."""
        return self._platform

    @property
    def error_types(self) -> Sequence[str]:
        """The types being evaluated."""
        return tuple(self._types)

    def evaluate(
        self,
        policy: Policy,
        *,
        train_fraction: Optional[float] = None,
        telemetry: Optional[EpisodeTelemetry] = None,
    ) -> EvaluationResult:
        """Replay every test process under ``policy`` and aggregate.

        Processes whose error type is outside the evaluation scope are
        skipped explicitly and reported via ``EvaluationResult.skipped``
        — they can never reach a per-type accumulator.  All replays run
        in the platform's lockstep waves; batch-safe policies decide
        over every concurrent replay in one ``decide_batch`` call per
        wave.  Per-type sums accumulate in the original process order,
        so results are bit-identical to one-at-a-time replay.
        """
        in_scope = set(self._types)
        skipped = 0
        evaluated = []
        for process in self._all_processes:
            if process.error_type not in in_scope:
                skipped += 1
                continue
            evaluated.append(process)
        replays = self._platform.replay_many(
            evaluated, policy, origin="evaluation", telemetry=telemetry
        )
        accumulators: Dict[str, _TypeAccumulator] = {
            t: _TypeAccumulator() for t in self._types
        }
        for process, result in zip(evaluated, replays):
            accumulator = accumulators[process.error_type]
            accumulator.total += 1
            accumulator.real_all += process.downtime
            if result.handled:
                accumulator.handled += 1
                accumulator.estimated += result.cost
                accumulator.real_handled += result.real_cost
        per_type = {
            t: TypeEvaluation(
                error_type=t,
                total=acc.total,
                handled=acc.handled,
                estimated_cost=acc.estimated,
                real_cost_handled=acc.real_handled,
                real_cost_all=acc.real_all,
            )
            for t, acc in accumulators.items()
        }
        return EvaluationResult(
            policy_name=policy.name,
            per_type=per_type,
            train_fraction=train_fraction,
            skipped=skipped,
        )
