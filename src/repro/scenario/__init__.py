"""Scenario models: drifting, heterogeneous and cascading fault workloads.

This package generalizes the stationary
:class:`~repro.cluster.faults.FaultCatalog` into a time- and
machine-class-indexed :class:`ScenarioModel` (see DESIGN.md §5g).  The
cluster simulator accepts either type; a stationary single-class
scenario is bit-identical to the bare catalog path.
"""

from repro.scenario.compiled import (
    CompiledCascade,
    CompiledScenario,
    compile_scenario,
)
from repro.scenario.model import (
    DEFAULT_CLASS_NAME,
    CascadeCoupling,
    Epoch,
    MachineClass,
    ScenarioModel,
    as_scenario_model,
)
from repro.scenario.presets import (
    ScenarioSpec,
    build_scenario_model,
    cascade_spec,
    drift_spec,
    heterogeneous_spec,
)

__all__ = [
    "Epoch",
    "MachineClass",
    "CascadeCoupling",
    "ScenarioModel",
    "as_scenario_model",
    "DEFAULT_CLASS_NAME",
    "CompiledScenario",
    "CompiledCascade",
    "compile_scenario",
    "ScenarioSpec",
    "build_scenario_model",
    "drift_spec",
    "heterogeneous_spec",
    "cascade_spec",
]
