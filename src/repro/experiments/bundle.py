"""Trained bundles: one per train fraction, shared across figures.

Figures 8-12 all consume the same four training runs (20/40/60/80%).
:func:`train_fraction` performs one run — time-ordered split, pipeline
fit, evaluation of the user-defined, trained and hybrid policies on the
held-out remainder — and memoizes it per (scenario identity, fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.evaluation.metrics import EvaluationResult
from repro.evaluation.split import time_ordered_split
from repro.experiments.scenario import Scenario

__all__ = ["FractionBundle", "train_fraction"]


@dataclass(frozen=True)
class FractionBundle:
    """Everything produced by one train/test split.

    Attributes
    ----------
    fraction:
        The training fraction (0.2, 0.4, 0.6 or 0.8 in the paper).
    learner:
        The fitted pipeline (rules, registry, training diagnostics).
    user_eval / trained_eval / hybrid_eval:
        Evaluations of the three policies on the held-out remainder.
    """

    fraction: float
    learner: RecoveryPolicyLearner
    user_eval: EvaluationResult
    trained_eval: EvaluationResult
    hybrid_eval: EvaluationResult


# Entries pin the scenario object: an id() key alone can alias a *new*
# scenario allocated at a recycled address once the old one is garbage
# collected, so each entry holds the keyed scenario and is verified by
# identity before reuse (determinism contract R1).  Where keying by
# value works, prefer it, as SimulationPlatform.process_index does.
_CACHE: Dict[
    Tuple[int, float, Optional[PipelineConfig]],
    Tuple[Scenario, FractionBundle],
] = {}


def train_fraction(
    scenario: Scenario,
    fraction: float,
    *,
    config: Optional[PipelineConfig] = None,
    use_cache: bool = True,
) -> FractionBundle:
    """Train on the first ``fraction`` of the log and evaluate the rest.

    The split is over *all* completed processes; the learner applies its
    own noise filtering to the training part, and — like the paper's
    "precise evaluation" (Section 3.1) — the same mining-based filter is
    applied to the held-out part before replay.  Unhandled cases in the
    filtered test set are genuine new patterns the training data missed,
    which is exactly what Figures 10 and 11(a) attribute them to.
    """
    # PipelineConfig is a frozen dataclass of frozen parts, so it keys
    # the cache directly; the scenario keys by identity (it holds the
    # trace, which is not cheaply hashable).
    key = (id(scenario), fraction, config)  # repro-lint: disable=R1 entry pins scenario, verified by 'is'
    if use_cache:
        entry = _CACHE.get(key)
        if entry is not None and entry[0] is scenario:
            return entry[1]

    train, test = time_ordered_split(scenario.processes, fraction)
    learner = RecoveryPolicyLearner(scenario.catalog, config)
    learner.fit(train)
    evaluator = learner.make_evaluator(test, filter_test_noise=True)
    bundle = FractionBundle(
        fraction=fraction,
        learner=learner,
        user_eval=evaluator.evaluate(
            scenario.user_policy, train_fraction=fraction
        ),
        trained_eval=evaluator.evaluate(
            learner.trained_policy(), train_fraction=fraction
        ),
        hybrid_eval=evaluator.evaluate(
            learner.hybrid_policy(), train_fraction=fraction
        ),
    )
    if use_cache:
        _CACHE[key] = (scenario, bundle)
    return bundle
