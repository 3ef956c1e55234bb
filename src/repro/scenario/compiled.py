"""The scenario model flattened into dense arrays.

:class:`CompiledScenario` is to :class:`~repro.scenario.model.ScenarioModel`
what :class:`~repro.cluster.faults.CompiledFaults` is to
:class:`~repro.cluster.faults.FaultCatalog` — and it is built *through*
:func:`~repro.cluster.faults.compile_fault_arrays` per epoch, so the
stationary single-class slice ``[0, 0]`` holds exactly the same float64
values as the legacy compilation.  The fleet engine reads cure
probabilities and cost scales from these arrays as whole waves, and
the event-driven reference in the tests reads them as scalars, which is
what makes per-class multipliers bit-identical between the two: each
value is computed once here, never re-derived by a
differently-associated multiplication at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.actions.action import ActionCatalog
from repro.cluster.faults import compile_fault_arrays
from repro.scenario.model import ScenarioModel

__all__ = ["CompiledScenario", "CompiledCascade", "compile_scenario"]


@dataclass(frozen=True)
class CompiledCascade:
    """Cascade coupling flattened onto fault ids.

    Attributes
    ----------
    matrix:
        ``(F, F)`` trigger probabilities, ``matrix[source, target]``.
    targets:
        Per-source tuple of target fault ids with positive probability,
        in catalog order (the deterministic coin-flip order).
    radius / delay_low / delay_high:
        As on :class:`~repro.scenario.model.CascadeCoupling`.
    """

    matrix: np.ndarray
    targets: Tuple[Tuple[int, ...], ...]
    radius: int
    delay_low: float
    delay_high: float


@dataclass(frozen=True)
class CompiledScenario:
    """Dense scenario arrays indexed ``[epoch, class, fault, action]``.

    Attributes
    ----------
    epoch_starts:
        ``(E,)`` epoch start times for ``searchsorted`` resolution.
    cumulative:
        ``(E, F)`` cumulative occurrence probabilities per epoch.
    cure:
        ``(E, C, F, A)`` effective cure probabilities: the epoch's
        hypothesis-2-resolved matrix times the class cure multiplier,
        clipped to 1.0, with manual actions re-pinned to exactly 1.0.
    cost:
        ``(E, C, F)`` combined duration multipliers: the epoch's fault
        ``cost_scale`` times the class cost multiplier, precomputed so
        every reader applies one identical float64 factor.
    secondary_probability:
        ``(E, F)`` per-epoch secondary-symptom emission probability.
    primary_symptoms:
        ``(C, F)`` class-decorated primary symptom strings.
    secondary_symptoms:
        ``(C, F, *)`` class-decorated secondary symptom tuples (ragged
        in the last dimension; identical across epochs by construction).
    fault_names / class_names / action_names:
        Dense id -> name, in catalog / scenario / strength order.
    manual_mask:
        ``(A,)`` which actions are manual (always cure).
    cascade:
        Compiled cascade coupling, or ``None``.
    """

    epoch_starts: np.ndarray
    cumulative: np.ndarray
    cure: np.ndarray
    cost: np.ndarray
    secondary_probability: np.ndarray
    primary_symptoms: Tuple[Tuple[str, ...], ...]
    secondary_symptoms: Tuple[Tuple[Tuple[str, ...], ...], ...]
    fault_names: Tuple[str, ...]
    class_names: Tuple[str, ...]
    action_names: Tuple[str, ...]
    manual_mask: np.ndarray
    cascade: Optional[CompiledCascade]

    @property
    def epoch_count(self) -> int:
        return len(self.epoch_starts)

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    @property
    def fault_count(self) -> int:
        return len(self.fault_names)

    @property
    def max_secondaries(self) -> int:
        """The widest secondary-symptom set across faults."""
        if not self.secondary_symptoms:
            return 0
        return max(len(s) for s in self.secondary_symptoms[0])

    def fault_ids(self) -> Dict[str, int]:
        """``{fault name: dense fault id}``."""
        return {name: fid for fid, name in enumerate(self.fault_names)}

    def action_ids(self) -> Dict[str, int]:
        """``{action name: dense action id}`` (strength order)."""
        return {name: aid for aid, name in enumerate(self.action_names)}


def compile_scenario(
    scenario: ScenarioModel, actions: ActionCatalog
) -> CompiledScenario:
    """Flatten ``scenario`` into :class:`CompiledScenario` arrays.

    Validates every epoch's catalog against ``actions`` as a side
    effect (hypothesis-2 monotonicity, unknown action references) via
    the per-epoch :func:`compile_fault_arrays` calls.
    """
    per_epoch = [
        compile_fault_arrays(epoch.catalog, actions)
        for epoch in scenario.epochs
    ]
    base = per_epoch[0]
    E = len(per_epoch)
    C = scenario.class_count
    F = base.fault_count
    A = len(base.action_names)

    cumulative = np.stack([c.cumulative for c in per_epoch])
    cure_epoch = np.stack([c.cure for c in per_epoch])  # (E, F, A)
    cost_epoch = np.stack([c.cost_scale for c in per_epoch])  # (E, F)
    secondary_probability = np.stack(
        [c.secondary_probability for c in per_epoch]
    )

    ordered = actions.by_strength()
    manual_mask = np.array([a.manual for a in ordered], dtype=bool)

    cure = np.empty((E, C, F, A), dtype=np.float64)
    cost = np.empty((E, C, F), dtype=np.float64)
    for cid, cls in enumerate(scenario.classes):
        class_cure = np.minimum(cure_epoch * cls.cure_multiplier, 1.0)
        # Manual actions cure regardless of class — the same contract as
        # FaultType.cure_probability, and exact 1.0 keeps the stationary
        # slice bit-identical to the legacy compilation.
        class_cure[:, :, manual_mask] = 1.0
        cure[:, cid] = class_cure
        cost[:, cid] = cost_epoch * cls.cost_multiplier

    primary = tuple(
        tuple(
            scenario.decorate(symptom, cid)
            for symptom in base.primary_symptoms
        )
        for cid in range(C)
    )
    secondary = tuple(
        tuple(
            tuple(scenario.decorate(s, cid) for s in symptoms)
            for symptoms in base.secondary_symptoms
        )
        for cid in range(C)
    )

    compiled_cascade: Optional[CompiledCascade] = None
    if scenario.cascade is not None:
        fault_ids = {
            fault.name: fid
            for fid, fault in enumerate(scenario.base_catalog.fault_types)
        }
        matrix = np.zeros((F, F), dtype=np.float64)
        for source, row in scenario.cascade.triggers.items():
            for target, prob in row.items():
                matrix[fault_ids[source], fault_ids[target]] = float(prob)
        targets = tuple(
            tuple(np.flatnonzero(matrix[fid] > 0).tolist())
            for fid in range(F)
        )
        compiled_cascade = CompiledCascade(
            matrix=matrix,
            targets=targets,
            radius=scenario.cascade.radius,
            delay_low=scenario.cascade.delay_low,
            delay_high=scenario.cascade.delay_high,
        )

    return CompiledScenario(
        epoch_starts=scenario.epoch_starts,
        cumulative=cumulative,
        cure=cure,
        cost=cost,
        secondary_probability=secondary_probability,
        primary_symptoms=primary,
        secondary_symptoms=secondary,
        fault_names=tuple(f.name for f in scenario.base_catalog.fault_types),
        class_names=tuple(c.name for c in scenario.classes),
        action_names=base.action_names,
        manual_mask=manual_mask,
        cascade=compiled_cascade,
    )
