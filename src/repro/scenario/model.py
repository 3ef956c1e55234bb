"""The scenario model: a time- and machine-class-indexed fault model.

The paper (and every layer of this reproduction until now) assumes one
*stationary* fault catalog over an i.i.d. fleet.  :class:`ScenarioModel`
generalizes that assumption along three orthogonal axes while keeping
the stationary single-class case **bit-identical** to the plain
:class:`~repro.cluster.faults.FaultCatalog` path:

* **Catalog drift** — a piecewise-constant schedule of
  :class:`Epoch`\\ s.  Every epoch carries a full catalog sharing the
  same fault identities (names, primary and secondary symptoms) but
  free to move occurrence weights, cure probabilities,
  ``secondary_probability`` and ``cost_scale``.  The governing epoch is
  resolved **once, at fault onset** (``searchsorted`` on the epoch
  starts — the identical formula scalar and vectorized), and
  that epoch's parameters rule the whole recovery process; resolution
  consumes zero RNG draws, which is what keeps the stationary case
  bit-identical.
* **Heterogeneous machine classes** — :class:`MachineClass` rows with
  occurrence weights, per-class action-cost multipliers and per-class
  cure multipliers.  Machines are assigned to classes in deterministic
  contiguous index blocks (no RNG).  When more than one class exists,
  every emitted symptom is decorated ``symptom@class``, so the existing
  error-type induction yields per-(class, error type) policies with no
  learning-layer changes.
* **Cascading faults** — :class:`CascadeCoupling`, an onset-triggered
  hazard coupling: a fault onset on machine *i* flips one coin per
  (ring neighbor, coupled target fault) and, on success, schedules an
  *induced* onset of the target fault on the neighbor after a uniform
  delay.  Induced onsets fire only while the neighbor is healthy and
  the horizon has not passed, and they cascade further (a subcritical
  branching process — validated at construction).  The fleet engine
  runs them in waves: an onset fires only once no induced onset
  earlier than it can still be created.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.faults import FaultCatalog
from repro.errors import ConfigurationError
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "Epoch",
    "MachineClass",
    "CascadeCoupling",
    "ScenarioModel",
    "as_scenario_model",
    "DEFAULT_CLASS_NAME",
]

#: Name of the implicit machine class in single-class scenarios.
DEFAULT_CLASS_NAME = "std"

#: Separator between a symptom and its machine-class tag.  Chosen to
#: never collide with the ``flavor:Component-Mode`` symptom vocabulary.
CLASS_TAG_SEPARATOR = "@"


@dataclass(frozen=True)
class Epoch:
    """One piece of a piecewise-constant catalog schedule.

    Attributes
    ----------
    start:
        Simulation time (seconds) at which this epoch's catalog becomes
        active.  The first epoch must start at 0.
    catalog:
        The fault catalog governing onsets in ``[start, next start)``.
    """

    start: float
    catalog: FaultCatalog

    def __post_init__(self) -> None:
        check_non_negative("epoch start", self.start)


@dataclass(frozen=True)
class MachineClass:
    """One heterogeneous machine class.

    Attributes
    ----------
    name:
        Class tag; decorates symptoms as ``symptom@name`` when the
        scenario has more than one class.
    weight:
        Relative share of the fleet assigned to this class
        (deterministic contiguous index blocks, largest-share rounding).
    cost_multiplier:
        Multiplier on action durations for machines of this class
        (applied together with the fault's ``cost_scale`` as one
        precompiled factor).
    cure_multiplier:
        Multiplier on non-manual cure probabilities, clipped to 1.0.
        Manual actions always cure regardless of class.
    """

    name: str
    weight: float = 1.0
    cost_multiplier: float = 1.0
    cure_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("machine class name must be non-empty")
        if CLASS_TAG_SEPARATOR in self.name:
            raise ConfigurationError(
                f"machine class {self.name!r}: name must not contain "
                f"{CLASS_TAG_SEPARATOR!r} (it separates symptom and tag)"
            )
        check_positive(f"machine class {self.name!r}: weight", self.weight)
        check_positive(
            f"machine class {self.name!r}: cost_multiplier",
            self.cost_multiplier,
        )
        check_positive(
            f"machine class {self.name!r}: cure_multiplier",
            self.cure_multiplier,
        )


@dataclass(frozen=True)
class CascadeCoupling:
    """Onset-hazard coupling between ring-neighbor machines.

    Attributes
    ----------
    triggers:
        ``{source fault name: {target fault name: probability}}`` —
        the chance that one onset of the source fault induces an onset
        of the target fault on *each* ring neighbor.
    radius:
        Ring radius: machines ``i ± 1 .. i ± radius`` (mod fleet size)
        are neighbors of machine ``i``.
    delay_low / delay_high:
        Uniform window (seconds) for the induced-onset delay.

    Validation enforces **subcriticality**: the expected number of
    induced onsets per onset — ``max over sources of (sum of target
    probabilities) * 2 * radius`` — must stay below 1, so the branching
    process a-s terminates and the event queue cannot blow up.
    """

    triggers: Mapping[str, Mapping[str, float]]
    radius: int = 1
    delay_low: float = 60.0
    delay_high: float = 3600.0

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ConfigurationError(
                f"cascade radius must be >= 1, got {self.radius}"
            )
        if not 0 <= self.delay_low < self.delay_high:
            raise ConfigurationError(
                "cascade delay window must satisfy 0 <= delay_low < "
                f"delay_high, got [{self.delay_low}, {self.delay_high})"
            )
        for source, row in self.triggers.items():
            total = 0.0
            for target, prob in row.items():
                check_probability(
                    f"cascade trigger [{source!r} -> {target!r}]", prob
                )
                total += float(prob)
            offspring = total * 2 * self.radius
            if offspring >= 1.0:
                raise ConfigurationError(
                    f"cascade is supercritical: source fault {source!r} "
                    f"induces {offspring:.3f} expected onsets per onset "
                    "(sum of trigger probabilities * 2 * radius must be "
                    "< 1 so the branching process terminates)"
                )


def _check_epoch_compatibility(epochs: Sequence[Epoch]) -> None:
    """All epochs must describe the *same* fault identities.

    Only occurrence weights, cure probabilities, secondary emission
    probability and cost scale may drift; names, primary symptoms and
    secondary-symptom sets are the fault's identity and must match so
    the induced error types stay stable across the run.
    """
    base = epochs[0].catalog.fault_types
    for eix, epoch in enumerate(epochs[1:], start=1):
        other = epoch.catalog.fault_types
        if len(other) != len(base):
            raise ConfigurationError(
                f"epoch {eix} has {len(other)} faults, epoch 0 has "
                f"{len(base)}; epochs must share the fault roster"
            )
        for fid, (a, b) in enumerate(zip(base, other)):
            if a.name != b.name:
                raise ConfigurationError(
                    f"epoch {eix} fault {fid} is named {b.name!r}, epoch "
                    f"0 names it {a.name!r}; epochs must list the same "
                    "faults in the same order"
                )
            if a.primary_symptom != b.primary_symptom:
                raise ConfigurationError(
                    f"fault {a.name!r}: primary symptom differs between "
                    f"epoch 0 ({a.primary_symptom!r}) and epoch {eix} "
                    f"({b.primary_symptom!r}); symptoms are the fault's "
                    "identity and cannot drift"
                )
            if a.secondary_symptoms != b.secondary_symptoms:
                raise ConfigurationError(
                    f"fault {a.name!r}: secondary symptoms differ between "
                    f"epoch 0 and epoch {eix}; symptoms are the fault's "
                    "identity and cannot drift"
                )


class ScenarioModel:
    """A time- and machine-class-indexed generalization of the catalog.

    Parameters
    ----------
    epochs:
        Piecewise-constant catalog schedule; the first epoch must start
        at 0 and starts must be strictly increasing.
    classes:
        Machine classes; defaults to one neutral class (no decoration,
        multipliers exactly 1.0).
    cascade:
        Optional onset-hazard coupling.
    """

    def __init__(
        self,
        epochs: Sequence[Epoch],
        classes: Sequence[MachineClass] = (),
        cascade: Optional[CascadeCoupling] = None,
    ) -> None:
        if not epochs:
            raise ConfigurationError("scenario needs at least one epoch")
        if epochs[0].start != 0.0:  # repro-lint: disable=R6 config validation requires an exact zero origin
            raise ConfigurationError(
                f"the first epoch must start at 0, got {epochs[0].start}"
            )
        starts = [e.start for e in epochs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigurationError(
                f"epoch starts must be strictly increasing, got {starts}"
            )
        _check_epoch_compatibility(epochs)
        self.epochs: Tuple[Epoch, ...] = tuple(epochs)
        self._epoch_starts = np.array(starts, dtype=np.float64)

        if not classes:
            classes = (MachineClass(DEFAULT_CLASS_NAME),)
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"machine class names must be distinct, got {names}"
            )
        self.classes: Tuple[MachineClass, ...] = tuple(classes)

        if cascade is not None:
            known = {f.name for f in epochs[0].catalog}
            for source, row in cascade.triggers.items():
                if source not in known:
                    raise ConfigurationError(
                        f"cascade source fault {source!r} is not in the "
                        "catalog"
                    )
                for target in row:
                    if target not in known:
                        raise ConfigurationError(
                            f"cascade target fault {target!r} (triggered "
                            f"by {source!r}) is not in the catalog"
                        )
        self.cascade = cascade

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def stationary(
        cls,
        catalog: FaultCatalog,
        classes: Sequence[MachineClass] = (),
        cascade: Optional[CascadeCoupling] = None,
    ) -> "ScenarioModel":
        """A single-epoch scenario around an ordinary catalog."""
        return cls((Epoch(0.0, catalog),), classes, cascade)

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def base_catalog(self) -> FaultCatalog:
        """The epoch-0 catalog (the full roster of fault identities)."""
        return self.epochs[0].catalog

    @property
    def epoch_count(self) -> int:
        return len(self.epochs)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def is_stationary(self) -> bool:
        """One epoch: the catalog never drifts."""
        return len(self.epochs) == 1

    @property
    def has_classes(self) -> bool:
        """More than one machine class (symptoms get decorated)."""
        return len(self.classes) > 1

    @property
    def has_cascade(self) -> bool:
        return self.cascade is not None

    @property
    def is_trivial(self) -> bool:
        """Indistinguishable from a bare catalog (the legacy path)."""
        return (
            self.is_stationary
            and not self.has_classes
            and not self.has_cascade
            # Bit-identity needs exact neutral multipliers (x1.0 is the
            # identity in float64), so no tolerance is meaningful here.
            and self.classes[0].cost_multiplier == 1.0  # repro-lint: disable=R6 neutral multiplier must be exact
            and self.classes[0].cure_multiplier == 1.0  # repro-lint: disable=R6 neutral multiplier must be exact
        )

    @property
    def epoch_starts(self) -> np.ndarray:
        """Epoch start times, ``(E,)`` float64 (copy)."""
        return self._epoch_starts.copy()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def epoch_at(self, time: float) -> int:
        """The epoch governing a fault onset at ``time``.

        Uses the half-open convention: a drift switch at ``t`` governs
        onsets at times ``>= t``.  Negative times clamp to epoch 0.
        The identical ``searchsorted`` formula runs vectorized in the
        fleet engine (:meth:`epochs_at`), so scalar and wave resolution
        cannot disagree at a boundary.
        """
        return max(
            int(
                np.searchsorted(self._epoch_starts, time, side="right") - 1
            ),
            0,
        )

    def epochs_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`epoch_at` over an onset-time array."""
        return np.maximum(
            np.searchsorted(
                self._epoch_starts, np.asarray(times), side="right"
            )
            - 1,
            0,
        ).astype(np.int64)

    def class_assignment(self, machine_count: int) -> np.ndarray:
        """Deterministic machine -> class ids, ``(machine_count,)``.

        Classes occupy contiguous index blocks whose sizes follow the
        class weights (cumulative-share rounding, so blocks never
        disagree by more than one machine from the exact proportion).
        No RNG is consumed; the same machine always lands in the same
        class for a given fleet size.
        """
        check_positive("machine_count", machine_count)
        weights = np.array([c.weight for c in self.classes], dtype=np.float64)
        boundaries = np.round(
            np.cumsum(weights) / weights.sum() * machine_count
        ).astype(np.int64)
        assignment = np.zeros(machine_count, dtype=np.int64)
        previous = 0
        for class_id, boundary in enumerate(boundaries.tolist()):
            assignment[previous:boundary] = class_id
            previous = max(previous, boundary)
        return assignment

    def decorate(self, symptom: str, class_id: int) -> str:
        """Tag a symptom with its machine class (multi-class only).

        Single-class scenarios return the symptom unchanged — the
        stationary bit-identity contract depends on it.
        """
        if len(self.classes) == 1:
            return symptom
        return f"{symptom}{CLASS_TAG_SEPARATOR}{self.classes[class_id].name}"


#: What the cluster simulator accepts wherever a fault model is expected.
FaultModel = Union[FaultCatalog, ScenarioModel]


def as_scenario_model(faults: FaultModel) -> ScenarioModel:
    """Coerce a bare :class:`FaultCatalog` into a stationary scenario.

    :class:`ScenarioModel` instances pass through unchanged, so every
    consumer can accept either type with one call.
    """
    if isinstance(faults, ScenarioModel):
        return faults
    if isinstance(faults, FaultCatalog):
        return ScenarioModel.stationary(faults)
    raise ConfigurationError(
        "expected a FaultCatalog or ScenarioModel, got "
        f"{type(faults).__name__}"
    )
