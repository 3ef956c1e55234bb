"""Declarative scenario specs and the three workload-family presets.

:class:`ScenarioSpec` is the seedable, frozen description that rides on
:class:`~repro.tracegen.workload.TraceConfig`; :func:`build_scenario_model`
turns it plus a generated base catalog into a concrete
:class:`~repro.scenario.model.ScenarioModel`.  The defaults describe the
trivial scenario (one epoch, one class, no cascade), so a config without
a spec — or with the default spec — takes exactly the legacy catalog
path.

The drift perturbation follows the fault-identity contract: only
weights, cure probabilities, secondary emission probability and cost
scale move between epochs.  Cure probabilities are scaled by one
per-(epoch, fault) factor and clipped to ``[0, 1]``, which preserves
hypothesis-2 monotonicity (a common monotone map of a monotone ladder
stays monotone).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.faults import FaultCatalog
from repro.errors import ConfigurationError
from repro.scenario.model import (
    CascadeCoupling,
    Epoch,
    MachineClass,
    ScenarioModel,
)
from repro.util.rng import derive_rng
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "ScenarioSpec",
    "build_scenario_model",
    "drift_spec",
    "heterogeneous_spec",
    "cascade_spec",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Seedable description of a scenario's non-stationary structure.

    Attributes
    ----------
    drift_epochs:
        Number of catalog epochs; the run duration splits evenly.  1
        means no drift.
    drift_strength:
        Scale of the per-epoch perturbation: log-weights jitter with
        this standard deviation and cure probabilities scale by
        ``exp(strength * normal / 2)`` per (epoch, fault).
    machine_classes:
        Number of heterogeneous machine classes.  1 means homogeneous.
    class_cost_spread:
        Half-width of the class cost-multiplier ramp: class multipliers
        span ``[1 - spread, 1 + spread]`` linearly across classes.
    class_cure_spread:
        Half-width of the class cure-multiplier ramp, applied in the
        *opposite* direction (costlier machines are also harder to
        cure), clipped at compile time to 1.0.
    cascade_strength:
        Expected induced onsets per onset (must stay < 1, the
        subcritical condition).  0 disables cascading.
    cascade_radius:
        Ring radius of the coupling.
    cascade_delay:
        ``(low, high)`` uniform window for induced-onset delays.
    """

    drift_epochs: int = 1
    drift_strength: float = 0.5
    machine_classes: int = 1
    class_cost_spread: float = 0.5
    class_cure_spread: float = 0.25
    cascade_strength: float = 0.0
    cascade_radius: int = 1
    cascade_delay: Tuple[float, float] = (120.0, 3600.0)

    def __post_init__(self) -> None:
        check_positive("drift_epochs", self.drift_epochs)
        check_non_negative("drift_strength", self.drift_strength)
        check_positive("machine_classes", self.machine_classes)
        if not 0 <= self.class_cost_spread < 1:
            raise ConfigurationError(
                "class_cost_spread must be in [0, 1), got "
                f"{self.class_cost_spread}"
            )
        if not 0 <= self.class_cure_spread < 1:
            raise ConfigurationError(
                "class_cure_spread must be in [0, 1), got "
                f"{self.class_cure_spread}"
            )
        if not 0 <= self.cascade_strength < 1:
            raise ConfigurationError(
                "cascade_strength must be in [0, 1) (subcritical), got "
                f"{self.cascade_strength}"
            )
        check_positive("cascade_radius", self.cascade_radius)
        low, high = self.cascade_delay
        if not 0 <= low < high:
            raise ConfigurationError(
                f"cascade_delay must satisfy 0 <= low < high, got "
                f"{self.cascade_delay}"
            )

    @property
    def is_trivial(self) -> bool:
        """Whether the spec describes the plain stationary workload."""
        return (
            self.drift_epochs == 1
            and self.machine_classes == 1
            and self.cascade_strength == 0.0  # repro-lint: disable=R6 zero means disabled, an exact sentinel
        )


def _perturb_catalog(
    catalog: FaultCatalog,
    rng: np.random.Generator,
    strength: float,
) -> FaultCatalog:
    """One drifted copy of ``catalog`` (same fault identities)."""
    drifted = []
    for fault in catalog:
        weight_jitter = float(np.exp(strength * rng.standard_normal()))
        cure_factor = float(np.exp(strength * rng.standard_normal() / 2.0))
        cost_jitter = float(np.exp(strength * rng.standard_normal() / 4.0))
        cures = {
            action: float(np.clip(prob * cure_factor, 0.0, 1.0))
            for action, prob in fault.cure_probabilities.items()
        }
        drifted.append(
            dataclasses.replace(
                fault,
                weight=fault.weight * weight_jitter,
                cure_probabilities=cures,
                cost_scale=fault.cost_scale * cost_jitter,
            )
        )
    return FaultCatalog(drifted)


def _class_ramp(count: int, spread: float) -> np.ndarray:
    """Multipliers spanning ``[1 - spread, 1 + spread]`` across classes."""
    if count == 1:
        return np.ones(1)
    positions = np.linspace(-1.0, 1.0, count)
    return 1.0 + spread * positions


def build_scenario_model(
    catalog: FaultCatalog,
    spec: ScenarioSpec,
    *,
    duration: float,
    seed: Optional[int] = None,
) -> ScenarioModel:
    """Concretize ``spec`` around a generated base catalog.

    Deterministic for a given ``(catalog, spec, duration, seed)``; the
    perturbation stream derives from the root seed by name, so it never
    aliases the simulation streams.
    """
    check_positive("duration", duration)
    rng = derive_rng(seed if seed is not None else 0, "scenario/drift")

    epochs = [Epoch(0.0, catalog)]
    for eix in range(1, spec.drift_epochs):
        epochs.append(
            Epoch(
                duration * eix / spec.drift_epochs,
                _perturb_catalog(catalog, rng, spec.drift_strength),
            )
        )

    classes: Tuple[MachineClass, ...] = ()
    if spec.machine_classes > 1:
        cost_ramp = _class_ramp(spec.machine_classes, spec.class_cost_spread)
        cure_ramp = _class_ramp(spec.machine_classes, spec.class_cure_spread)
        classes = tuple(
            MachineClass(
                name=f"c{cid}",
                weight=1.0,
                cost_multiplier=float(cost_ramp[cid]),
                # Reversed ramp: the costliest class cures worst.
                cure_multiplier=float(cure_ramp[-1 - cid]),
            )
            for cid in range(spec.machine_classes)
        )

    cascade: Optional[CascadeCoupling] = None
    if spec.cascade_strength > 0:
        fault_names = [f.name for f in catalog]
        # Uniform coupling: every onset can induce every fault type on
        # each neighbor with equal probability, normalized so the
        # expected offspring per onset equals cascade_strength.
        per_pair = spec.cascade_strength / (
            2 * spec.cascade_radius * len(fault_names)
        )
        row = {name: per_pair for name in fault_names}
        cascade = CascadeCoupling(
            triggers={name: dict(row) for name in fault_names},
            radius=spec.cascade_radius,
            delay_low=spec.cascade_delay[0],
            delay_high=spec.cascade_delay[1],
        )

    return ScenarioModel(tuple(epochs), classes, cascade)


def drift_spec(epochs: int = 3, strength: float = 0.8) -> ScenarioSpec:
    """The catalog-drift workload family."""
    return ScenarioSpec(drift_epochs=epochs, drift_strength=strength)


def heterogeneous_spec(
    classes: int = 3, cost_spread: float = 0.6, cure_spread: float = 0.35
) -> ScenarioSpec:
    """The heterogeneous-machine-classes workload family."""
    return ScenarioSpec(
        machine_classes=classes,
        class_cost_spread=cost_spread,
        class_cure_spread=cure_spread,
    )


def cascade_spec(strength: float = 0.6, radius: int = 2) -> ScenarioSpec:
    """The cascading-faults workload family."""
    return ScenarioSpec(cascade_strength=strength, cascade_radius=radius)
