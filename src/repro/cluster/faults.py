"""Ground-truth fault model for the cluster simulator.

A :class:`FaultType` is what the paper's operators *don't* know: the real
root cause behind a family of symptoms.  Each fault type has

* a **primary symptom** (always emitted first; the learner will induce
  it as the error type, per Section 3.1),
* **secondary symptoms** that co-occur with it (forming the mutually
  dependent symptom sets Figure 3 mines),
* a **cure probability per repair action** (monotone non-decreasing in
  action strength, matching hypothesis 2: stronger actions subsume
  weaker ones), and
* an occurrence **weight** controlling how often it strikes.

The learner must never import this module's objects; it sees only the
recovery log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

from repro.actions.action import ActionCatalog, RepairAction
from repro.errors import ConfigurationError
from repro.util.validation import check_positive, check_probability

__all__ = [
    "FaultType",
    "FaultCatalog",
    "CompiledFaults",
    "compile_fault_arrays",
    "effective_cure_probabilities",
    "validate_fault_catalog",
]


@dataclass(frozen=True)
class FaultType:
    """One ground-truth root cause.

    Attributes
    ----------
    name:
        Internal identifier (never appears in the log).
    primary_symptom:
        Symptom emitted at fault onset; defines the induced error type.
    secondary_symptoms:
        Symptoms that may co-occur with the primary one.
    secondary_probability:
        Chance that each secondary symptom is emitted in a given process.
    cure_probabilities:
        ``{action name: probability the action cures this fault}``.
        Manual actions cure with probability 1 regardless.
    weight:
        Relative occurrence frequency (Zipf-like weights give the paper's
        Figure 5 shape).
    cost_scale:
        Multiplier applied to action durations for this fault (some
        faults take longer to repair than others).
    """

    name: str
    primary_symptom: str
    secondary_symptoms: Tuple[str, ...] = ()
    secondary_probability: float = 0.7
    cure_probabilities: Mapping[str, float] = field(default_factory=dict)
    weight: float = 1.0
    cost_scale: float = 1.0

    def __post_init__(self) -> None:
        # Validate the name first so every later message can cite it —
        # a 40-fault generated catalog is unhelpful to debug otherwise.
        if not self.name:
            raise ConfigurationError("fault name must be non-empty")
        label = f"fault {self.name!r}"
        if not self.primary_symptom:
            raise ConfigurationError(
                f"{label}: primary_symptom must be non-empty"
            )
        if self.primary_symptom in self.secondary_symptoms:
            raise ConfigurationError(
                f"{label}: primary symptom {self.primary_symptom!r} must "
                "not repeat among secondary symptoms"
            )
        check_probability(
            f"{label}: secondary_probability", self.secondary_probability
        )
        for action_name, prob in self.cure_probabilities.items():
            check_probability(
                f"{label}: cure_probabilities[{action_name!r}]", prob
            )
        check_positive(f"{label}: weight", self.weight)
        check_positive(f"{label}: cost_scale", self.cost_scale)

    @property
    def all_symptoms(self) -> Tuple[str, ...]:
        """Primary symptom followed by the secondaries."""
        return (self.primary_symptom,) + self.secondary_symptoms

    def cure_probability(self, action: RepairAction) -> float:
        """Probability that one execution of ``action`` cures this fault."""
        if action.manual:
            return 1.0
        return float(self.cure_probabilities.get(action.name, 0.0))


class FaultCatalog:
    """The collection of ground-truth fault types, with weighted sampling
    from uniforms (:meth:`index_from_uniform`)."""

    def __init__(self, fault_types: Sequence[FaultType]) -> None:
        if not fault_types:
            raise ConfigurationError("fault catalog needs at least one fault")
        names = [f.name for f in fault_types]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"fault names must be distinct; duplicated: {duplicates}"
            )
        primaries = [f.primary_symptom for f in fault_types]
        if len(set(primaries)) != len(primaries):
            shared = sorted({p for p in primaries if primaries.count(p) > 1})
            colliders = sorted(
                f.name for f in fault_types if f.primary_symptom in shared
            )
            raise ConfigurationError(
                "primary symptoms must be distinct across fault types; "
                "the paper's error-type induction assumes the initial "
                f"symptom identifies the symptom set; symptom(s) {shared} "
                f"shared by faults {colliders}"
            )
        self._faults: Tuple[FaultType, ...] = tuple(fault_types)
        self._by_name: Dict[str, FaultType] = {f.name: f for f in fault_types}
        weights = np.array([f.weight for f in fault_types], dtype=float)
        self._probabilities = weights / weights.sum()
        self._cumulative = np.cumsum(self._probabilities)

    def __iter__(self) -> Iterator[FaultType]:
        return iter(self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    def __getitem__(self, name: str) -> FaultType:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown fault type {name!r}") from None

    @property
    def fault_types(self) -> Tuple[FaultType, ...]:
        return self._faults

    def occurrence_probabilities(self) -> Dict[str, float]:
        """``{fault name: normalized occurrence probability}``."""
        return {
            fault.name: float(p)
            for fault, p in zip(self._faults, self._probabilities)
        }

    def cumulative_probabilities(self) -> np.ndarray:
        """Cumulative occurrence probabilities, in catalog order.

        The last element is 1 up to float rounding; a copy is returned
        so callers cannot perturb the catalog's sampling.
        """
        return self._cumulative.copy()

    def index_from_uniform(self, u: "float | np.ndarray") -> "int | np.ndarray":
        """Map uniforms in ``[0, 1)`` to weighted fault-type indices.

        Inverse-CDF via ``searchsorted`` on the cumulative weights — the
        same fixed formula for a scalar and for a whole wave, which is
        what lets the event and fleet engines agree bit for bit.
        """
        index = np.minimum(
            np.searchsorted(self._cumulative, u, side="right"),
            len(self._faults) - 1,
        )
        if np.ndim(u) == 0:
            return int(index)
        return index.astype(np.intp)


def effective_cure_probabilities(
    fault: FaultType, actions: ActionCatalog
) -> Dict[str, float]:
    """Per-action cure probabilities with hypothesis-2 inheritance.

    An action left unspecified in ``fault.cure_probabilities`` cures at
    least as well as any weaker action (stronger actions subsume weaker
    ones), so it inherits the running maximum.  Manual actions always
    cure.  Raises :class:`ConfigurationError` when an *explicit*
    probability decreases with strength — the one catalog shape the
    hypotheses cannot accommodate.
    """
    for action_name in fault.cure_probabilities:
        if action_name not in actions:
            raise ConfigurationError(
                f"fault {fault.name!r} references unknown action "
                f"{action_name!r}"
            )
    effective: Dict[str, float] = {}
    running = 0.0
    for action in actions.by_strength():
        if action.manual:
            effective[action.name] = 1.0
            continue
        if action.name in fault.cure_probabilities:
            explicit = float(fault.cure_probabilities[action.name])
            if explicit + 1e-12 < running:
                raise ConfigurationError(
                    f"fault {fault.name!r}: cure probability of "
                    f"{action.name} ({explicit}) is below that of a weaker "
                    f"action ({running}); cure probabilities must be "
                    "monotone in strength (hypothesis 2)"
                )
            running = max(running, explicit)
        effective[action.name] = running
    return effective


@dataclass(frozen=True)
class CompiledFaults:
    """The fault catalog flattened into dense arrays for the fleet backend.

    Fault ids are catalog positions; action ids are positions in the
    action catalog's strength order (the same convention as
    :class:`~repro.mdp.state.StateIndex`).

    Attributes
    ----------
    cumulative:
        ``(F,)`` cumulative occurrence probabilities for inverse-CDF
        sampling.
    cure:
        ``(F, A)`` effective cure probabilities with hypothesis-2
        inheritance resolved (manual actions are 1.0).
    cost_scale:
        ``(F,)`` per-fault duration multipliers.
    secondary_probability:
        ``(F,)`` per-secondary emission probability.
    primary_symptoms:
        Per-fault primary symptom string, in fault-id order.
    secondary_symptoms:
        Per-fault tuple of secondary symptom strings.
    action_names:
        Action names in id order.
    """

    cumulative: np.ndarray
    cure: np.ndarray
    cost_scale: np.ndarray
    secondary_probability: np.ndarray
    primary_symptoms: Tuple[str, ...]
    secondary_symptoms: Tuple[Tuple[str, ...], ...]
    action_names: Tuple[str, ...]

    @property
    def fault_count(self) -> int:
        return len(self.primary_symptoms)

    @property
    def max_secondaries(self) -> int:
        """The widest secondary-symptom set across faults."""
        if not self.secondary_symptoms:
            return 0
        return max(len(s) for s in self.secondary_symptoms)


def compile_fault_arrays(
    faults: FaultCatalog, actions: ActionCatalog
) -> CompiledFaults:
    """Flatten ``faults`` into :class:`CompiledFaults` arrays.

    Validates the catalog against ``actions`` as a side effect (the
    cure matrix is built through
    :func:`effective_cure_probabilities`).
    """
    ordered_actions = actions.by_strength()
    fault_types = faults.fault_types
    cure = np.zeros((len(fault_types), len(ordered_actions)), dtype=np.float64)
    for fid, fault in enumerate(fault_types):
        effective = effective_cure_probabilities(fault, actions)
        for aid, action in enumerate(ordered_actions):
            cure[fid, aid] = effective[action.name]
    return CompiledFaults(
        cumulative=faults.cumulative_probabilities(),
        cure=cure,
        cost_scale=np.array(
            [f.cost_scale for f in fault_types], dtype=np.float64
        ),
        secondary_probability=np.array(
            [f.secondary_probability for f in fault_types], dtype=np.float64
        ),
        primary_symptoms=tuple(f.primary_symptom for f in fault_types),
        secondary_symptoms=tuple(f.secondary_symptoms for f in fault_types),
        action_names=tuple(a.name for a in ordered_actions),
    )


def validate_fault_catalog(
    faults: FaultCatalog, actions: ActionCatalog
) -> None:
    """Check catalog consistency against the paper's hypotheses.

    Raises :class:`ConfigurationError` if any fault's explicit cure
    probabilities decrease with action strength (violating hypothesis 2)
    or reference unknown actions.
    """
    for fault in faults:
        effective_cure_probabilities(fault, actions)
