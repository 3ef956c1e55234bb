"""Parallel per-error-type training engine.

The paper trains one independent tabular Q-learner per error type (97
types; the top 40 cover 98.68% of processes), each against the same
log-replay simulation platform — an embarrassingly parallel workload.
This engine shards the types across a ``concurrent.futures`` process
pool while guaranteeing that the result is *bit-identical* to a serial
run:

* every type's course draws from its own child RNG derived from
  ``(seed, error_type)`` (:func:`repro.util.rng.derive_seed`), so
  neither training order nor worker placement can change a course;
* every worker rebuilds the simulation platform from the same training
  ensemble, so cost statistics are identical everywhere;
* results are merged in the caller's type order, never completion
  order.

Each course comes back as one
:class:`~repro.learning.checkpoint.TypeOutcome`, its per-sweep curve
inside.  The engine also owns checkpoint/resume: each finished type is
persisted immediately via
:class:`~repro.learning.checkpoint.CheckpointStore`, including when a
later type subsequently fails.

Serial (``n_workers=1``) and parallel runs execute the *same* per-type
function, so the equivalence test harness in
``tests/test_learning_parallel.py`` is a real guarantee, not a
coincidence of duplicated code paths.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.actions.action import ActionCatalog
from repro.errors import ConfigurationError, ReproError, TrainingError
from repro.learning.checkpoint import CheckpointStore, TypeOutcome
from repro.learning.extraction import extract_greedy_rules
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.selection_tree import (
    SelectionTreeConfig,
    SelectionTreeExtractor,
)
from repro.policies.base import Policy
from repro.recoverylog.process import RecoveryProcess
from repro.simplatform.platform import SimulationPlatform

__all__ = ["ParallelTrainingEngine"]


def _train_one_type(
    platform: SimulationPlatform,
    qlearning: QLearningConfig,
    tree: Optional[SelectionTreeConfig],
    baseline: Optional[Policy],
    error_type: str,
    processes: Sequence[RecoveryProcess],
) -> TypeOutcome:
    """Train one type — the single code path shared by serial and pool.

    With ``tree`` the Section 5.3 selection-tree course runs (candidate
    policies exactly evaluated, conservative baseline guard); without it
    the standard course runs to stability and rules are extracted
    greedily.
    """
    trainer = QLearningTrainer(platform, qlearning)
    started = time.perf_counter()  # repro-lint: disable=R3 telemetry wall-clock only
    if tree is not None:
        extractor = SelectionTreeExtractor(platform, tree)
        outcome = extractor.train_type(
            trainer, error_type, processes, baseline=baseline
        )
        training = outcome.training
        rules = outcome.rules
        expected_cost: Optional[float] = outcome.expected_cost
        candidates = outcome.candidates_evaluated
    else:
        training = trainer.train_type(error_type, processes)
        rules = extract_greedy_rules(training.qtable)
        expected_cost = None
        candidates = 0
    return TypeOutcome(
        training=training,
        rules=rules,
        expected_cost=expected_cost,
        candidates_evaluated=candidates,
        wall_clock=time.perf_counter() - started,  # repro-lint: disable=R3 telemetry wall-clock only
    )


# ----------------------------------------------------------------------
# Process-pool plumbing.  The training ensemble and configuration are
# shipped once per worker through the initializer; each task then only
# carries its own type's processes.
_WORKER_STATE: Dict[str, object] = {}


def _worker_init(
    processes: Tuple[RecoveryProcess, ...],
    catalog: ActionCatalog,
    qlearning: QLearningConfig,
    tree: Optional[SelectionTreeConfig],
    baseline: Optional[Policy],
    max_actions: int,
) -> None:
    _WORKER_STATE["platform"] = SimulationPlatform(
        processes, catalog, max_actions=max_actions
    )
    _WORKER_STATE["qlearning"] = qlearning
    _WORKER_STATE["tree"] = tree
    _WORKER_STATE["baseline"] = baseline


def _worker_train(
    task: Tuple[str, Tuple[RecoveryProcess, ...]]
) -> TypeOutcome:
    error_type, processes = task
    return _train_one_type(
        _WORKER_STATE["platform"],  # type: ignore[arg-type]
        _WORKER_STATE["qlearning"],  # type: ignore[arg-type]
        _WORKER_STATE["tree"],  # type: ignore[arg-type]
        _WORKER_STATE["baseline"],  # type: ignore[arg-type]
        error_type,
        processes,
    )


class ParallelTrainingEngine:
    """Shard per-type Q-learning courses across a process pool.

    Parameters
    ----------
    processes:
        The full training ensemble (every worker's simulation platform
        replays against the same ensemble, so cost statistics match a
        serial run exactly).
    catalog:
        Repair-action catalog.
    qlearning:
        Q-learning hyper-parameters; the ``seed`` is the root from which
        each type's child RNG derives.
    tree:
        Selection-tree configuration, or ``None`` for greedy extraction.
    baseline:
        Incumbent policy for the tree's conservative improvement guard
        (ignored under greedy extraction).
    max_actions:
        The paper's ``N``-action cap.
    n_workers:
        1 trains inline in this process (no pool); >1 fans the types out
        over that many worker processes.
    checkpoint:
        Optional store; every finished type is persisted immediately.
    resume:
        When a store is given: load matching checkpoints instead of
        retraining (True), or retrain everything and overwrite (False).
    """

    def __init__(
        self,
        processes: Sequence[RecoveryProcess],
        catalog: ActionCatalog,
        *,
        qlearning: Optional[QLearningConfig] = None,
        tree: Optional[SelectionTreeConfig] = None,
        baseline: Optional[Policy] = None,
        max_actions: int = 20,
        n_workers: int = 1,
        checkpoint: Optional[CheckpointStore] = None,
        resume: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.platform = SimulationPlatform(
            processes, catalog, max_actions=max_actions
        )
        self._catalog = catalog
        self._qlearning = (
            qlearning if qlearning is not None else QLearningConfig()
        )
        self._tree = tree
        self._baseline = baseline
        self._max_actions = max_actions
        self.n_workers = n_workers
        self._checkpoint = checkpoint
        self._resume = resume

    # ------------------------------------------------------------------
    def _finish(self, outcome: TypeOutcome) -> None:
        """Persist one freshly trained type."""
        if self._checkpoint is not None:
            self._checkpoint.save(outcome)

    def _restore(self, error_type: str) -> Optional[TypeOutcome]:
        if self._checkpoint is None or not self._resume:
            return None
        return self._checkpoint.load(error_type)

    def train(
        self,
        groups: Mapping[str, Sequence[RecoveryProcess]],
    ) -> Dict[str, TypeOutcome]:
        """Train every type in ``groups``; returns outcomes in its order.

        Raises :class:`TrainingError` naming the failing type if any
        course fails; types that finished before the failure have
        already been checkpointed (when a store is configured), so a
        rerun with ``resume=True`` picks up where the failure struck.
        """
        ordered = {t: tuple(ps) for t, ps in groups.items()}
        outcomes: Dict[str, TypeOutcome] = {}
        pending: List[str] = []
        for error_type in ordered:
            restored = self._restore(error_type)
            if restored is not None:
                outcomes[error_type] = restored
            else:
                pending.append(error_type)

        if not pending:
            pass
        elif self.n_workers == 1:
            for error_type in pending:
                outcome = _train_one_type(
                    self.platform,
                    self._qlearning,
                    self._tree,
                    self._baseline,
                    error_type,
                    ordered[error_type],
                )
                self._finish(outcome)
                outcomes[error_type] = outcome
        else:
            outcomes.update(self._train_pool(ordered, pending))
        return {t: outcomes[t] for t in ordered}

    def _train_pool(
        self,
        ordered: Mapping[str, Tuple[RecoveryProcess, ...]],
        pending: Sequence[str],
    ) -> Dict[str, TypeOutcome]:
        results: Dict[str, TypeOutcome] = {}
        executor = ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(pending)),
            initializer=_worker_init,
            initargs=(
                self.platform.processes,
                self._catalog,
                self._qlearning,
                self._tree,
                self._baseline,
                self._max_actions,
            ),
        )
        try:
            futures = {
                executor.submit(
                    _worker_train, (error_type, ordered[error_type])
                ): error_type
                for error_type in pending
            }
            for future in as_completed(futures):
                error_type = futures[future]
                try:
                    outcome = future.result()
                except ReproError as exc:
                    raise TrainingError(
                        f"training of error type {error_type!r} failed in "
                        f"a worker: {exc}"
                    ) from exc
                except Exception as exc:
                    raise TrainingError(
                        f"worker training error type {error_type!r} "
                        f"crashed: {exc}"
                    ) from exc
                self._finish(outcome)
                results[error_type] = outcome
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        return results
