"""Composite repair actions (the paper's future-work item 2).

Section 7 suggests "introducing more complicated relationships among
actions".  A :class:`CompositeAction` bundles several repairs executed
as one unit (e.g. restart the service *and* clear its cache): its cost
is the sum of its components' costs and its strength must dominate every
component (it can replace any of them under hypothesis 2, because it
performs all of their work).

Composites are ordinary :class:`~repro.actions.action.RepairAction`
objects afterwards — the catalog, platform and learners treat them
uniformly, which is exactly the paper's observation that its framework
"does not set any limitations on the set of repair actions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.actions.action import RepairAction
from repro.actions.costs import CostModel
from repro.errors import ConfigurationError

__all__ = ["SumCost", "compose_actions"]


@dataclass(frozen=True)
class SumCost(CostModel):
    """The sum of several component cost models.

    Each component reads its own ``uniform_count`` rows of the uniforms,
    in component order, and the durations are summed in that order.
    """

    components: Tuple[CostModel, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError("SumCost needs at least one component")

    @property
    def uniform_count(self) -> int:  # type: ignore[override]
        return sum(c.uniform_count for c in self.components)

    def from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        uniforms = np.asarray(uniforms)
        total = np.zeros(uniforms.shape[-1], dtype=np.float64)
        row = 0
        for component in self.components:
            count = component.uniform_count
            total = total + component.from_uniforms(uniforms[row:row + count])
            row += count
        return total

    @property
    def mean(self) -> float:
        return float(sum(c.mean for c in self.components))


def compose_actions(
    name: str,
    components: Sequence[RepairAction],
    strength: int,
) -> RepairAction:
    """Bundle ``components`` into one composite repair action.

    Parameters
    ----------
    name:
        The composite's log name.
    components:
        The repairs executed together; none may be manual (a human
        repair cannot be bundled into an automated composite).
    strength:
        The composite's position in the strength order.  Must be at
        least the strongest component's strength: the composite performs
        all component work, so hypothesis 2 demands it can replace each
        of them.

    Returns a regular :class:`RepairAction` whose cost model sums the
    components' costs.
    """
    if not components:
        raise ConfigurationError("a composite needs at least one component")
    strongest = max(component.strength for component in components)
    if strength < strongest:
        raise ConfigurationError(
            f"composite strength {strength} is below its strongest "
            f"component ({strongest}); the composite must be able to "
            "replace every component (hypothesis 2)"
        )
    if any(component.manual for component in components):
        raise ConfigurationError(
            "manual repairs cannot be bundled into an automated composite"
        )
    return RepairAction(
        name=name,
        strength=strength,
        cost_model=SumCost(tuple(c.cost_model for c in components)),
        manual=False,
    )
