"""The end-to-end recovery-policy learner.

Typical use::

    from repro.core import RecoveryPolicyLearner
    from repro.evaluation import time_ordered_split

    train, test = time_ordered_split(log.to_processes(), 0.4)
    learner = RecoveryPolicyLearner().fit(train)
    trained = learner.trained_policy()
    hybrid = learner.hybrid_policy()
    result = learner.make_evaluator(test).evaluate(trained)
    print(result.overall_relative_cost)   # ~0.89 on the paper's data

The learner consumes only the recovery log (processes), never ground
truth about faults — the same information barrier the paper's offline
components face.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.actions.action import ActionCatalog, default_catalog
from repro.core.config import PipelineConfig
from repro.errors import NotTrainedError, TrainingError
from repro.errortypes.registry import ErrorTypeRegistry
from repro.evaluation.evaluator import PolicyEvaluator
from repro.learning.checkpoint import CheckpointStore, training_fingerprint
from repro.learning.extraction import merge_rules
from repro.learning.parallel import ParallelTrainingEngine, TypeOutcome
from repro.learning.qlearning import (
    TrainingResult,
    TypeTrainingResult,
)
from repro.learning.telemetry import TrainingTelemetry
from repro.mining.noise import NoiseFilterResult, filter_noise
from repro.policies.base import Policy
from repro.policies.hybrid import HybridPolicy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog.log import RecoveryLog
from repro.recoverylog.process import RecoveryProcess
from repro.simplatform.platform import SimulationPlatform

__all__ = ["RecoveryPolicyLearner"]

ProcessSource = Union[RecoveryLog, Sequence[RecoveryProcess]]


class RecoveryPolicyLearner:
    """Learn recovery policies from a recovery log (Figure 1, lower half).

    Parameters
    ----------
    catalog:
        Repair-action catalog; defaults to the paper's four actions.
    config:
        Pipeline configuration (including ``n_workers`` /
        ``checkpoint_dir`` / ``resume`` for the parallel engine).
    telemetry:
        Optional :class:`~repro.learning.telemetry.TrainingTelemetry`
        observer for per-type training progress.

    Attributes (set by :meth:`fit`)
    -------------------------------
    noise_result_:
        The mining-based noise filter outcome.
    registry_:
        Error types actually trained (top-k by frequency).
    training_result_:
        Per-type Q-learning outcomes.
    outcomes_:
        Per-type engine outcomes (rules, wall-clock, checkpoint
        provenance).
    rules_:
        The merged state-action rule table.
    """

    def __init__(
        self,
        catalog: Optional[ActionCatalog] = None,
        config: Optional[PipelineConfig] = None,
        baseline: Optional[Policy] = None,
        telemetry: Optional[TrainingTelemetry] = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else default_catalog()
        self.config = config if config is not None else PipelineConfig()
        # The incumbent policy: the selection tree's conservative margin
        # compares candidates against it, and the hybrid policy falls
        # back to it.  Defaults to the cheapest-first ladder.
        self.baseline = (
            baseline
            if baseline is not None
            else UserDefinedPolicy(self.catalog)
        )
        self.telemetry = telemetry
        self.noise_result_: Optional[NoiseFilterResult] = None
        self.registry_: Optional[ErrorTypeRegistry] = None
        self.training_result_: Optional[TrainingResult] = None
        self.outcomes_: Optional[Dict[str, TypeOutcome]] = None
        self.rules_ = None
        self._platform: Optional[SimulationPlatform] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _as_processes(source: ProcessSource) -> Tuple[RecoveryProcess, ...]:
        if isinstance(source, RecoveryLog):
            return source.to_processes()
        return tuple(source)

    def _make_checkpoint_store(self) -> Optional[CheckpointStore]:
        """The configured checkpoint store, fingerprinted to this run.

        The fingerprint covers every knob that shapes a type's course —
        hyper-parameters, extraction mode, catalog, action cap and
        baseline — so checkpoints from a differently configured run are
        invalidated rather than silently mixed in.
        """
        if not self.config.checkpoint_dir:
            return None
        fingerprint = training_fingerprint(
            {
                "qlearning": asdict(self.config.qlearning),
                "tree": (
                    asdict(self.config.tree)
                    if self.config.use_selection_tree
                    else None
                ),
                "use_selection_tree": self.config.use_selection_tree,
                "max_actions": self.config.max_actions,
                "actions": list(self.catalog.names()),
                "baseline": self.baseline.name,
            }
        )
        return CheckpointStore(
            self.config.checkpoint_dir,
            fingerprint=fingerprint,
            alpha_floor=self.config.qlearning.alpha_floor,
        )

    def fit(self, source: ProcessSource) -> "RecoveryPolicyLearner":
        """Run mining, type induction and per-type Q-learning.

        ``source`` is a recovery log or its segmented processes — the
        *training* portion of a time-ordered split.  Training fans out
        over ``config.n_workers`` processes; per-type RNG derivation
        makes the fitted policies identical for every worker count.
        """
        processes = self._as_processes(source)
        if not processes:
            raise TrainingError("cannot fit on an empty recovery log")

        self.noise_result_ = filter_noise(processes, self.config.minp)
        clean = self.noise_result_.clean
        if not clean:
            raise TrainingError("noise filtering removed every process")

        full_registry = ErrorTypeRegistry.from_processes(clean)
        self.registry_ = full_registry.top(self.config.top_k_types)
        groups = self.registry_.partition(clean)

        trainable: Dict[str, Sequence[RecoveryProcess]] = {}
        for info in self.registry_:
            type_processes = groups[info.name]
            if len(type_processes) < self.config.min_processes_per_type:
                continue
            trainable[info.name] = type_processes
        if not trainable:
            raise TrainingError(
                "no error type had enough training processes "
                f"(min_processes_per_type={self.config.min_processes_per_type})"
            )

        engine = ParallelTrainingEngine(
            clean,
            self.catalog,
            qlearning=self.config.qlearning,
            tree=(
                self.config.tree if self.config.use_selection_tree else None
            ),
            baseline=(
                self.baseline if self.config.use_selection_tree else None
            ),
            max_actions=self.config.max_actions,
            n_workers=self.config.n_workers,
            checkpoint=self._make_checkpoint_store(),
            resume=self.config.resume,
            telemetry=self.telemetry,
        )
        self._platform = engine.platform
        outcomes = engine.train(trainable)

        per_type: Dict[str, TypeTrainingResult] = {
            error_type: outcome.training
            for error_type, outcome in outcomes.items()
        }
        self.outcomes_ = outcomes
        self.training_result_ = TrainingResult(per_type=per_type)
        self.rules_ = merge_rules(
            *(outcome.rules for outcome in outcomes.values())
        )
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.rules_ is None:
            raise NotTrainedError(
                "call fit() before requesting policies or evaluators"
            )

    def trained_policy(self, label: str = "trained") -> TrainedPolicy:
        """The pure RL-trained policy (raises on unhandled states)."""
        self._require_fitted()
        return TrainedPolicy(self.rules_, label=label)

    def hybrid_policy(
        self, fallback: Optional[Policy] = None
    ) -> HybridPolicy:
        """The Section 3.4 hybrid: trained policy with automatic fallback.

        ``fallback`` defaults to the learner's baseline policy (the
        user-defined cheapest-first ladder unless overridden).
        """
        self._require_fitted()
        if fallback is None:
            fallback = self.baseline
        return HybridPolicy(self.trained_policy(), fallback)

    def make_evaluator(
        self,
        test_source: ProcessSource,
        *,
        filter_test_noise: bool = True,
    ) -> PolicyEvaluator:
        """An evaluator over held-out processes, restricted to the
        trained error types.

        ``filter_test_noise`` applies the same mining-based noise filter
        to the test processes (the paper ignores noisy cases for a
        precise evaluation).
        """
        self._require_fitted()
        processes = self._as_processes(test_source)
        if filter_test_noise:
            processes = filter_noise(processes, self.config.minp).clean
        if self.registry_ is None:
            # _require_fitted guarantees rules_; the registry is built in
            # the same fit step, so a missing one means a partially
            # constructed learner (e.g. hand-assigned rules_), which must
            # fail loudly even under ``python -O``.
            raise NotTrainedError(
                "learner has rules but no error-type registry; call fit() "
                "before make_evaluator()"
            )
        return PolicyEvaluator(
            processes,
            self.catalog,
            error_types=self.registry_.names,
            max_actions=self.config.max_actions,
        )
