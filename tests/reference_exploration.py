"""The mapping-form explorer draws, kept as a test-only reference.

The explorers used to draw from a ``{action: Q}`` mapping as well as
from a Q row: :meth:`BoltzmannExplorer.select` over
:meth:`BoltzmannExplorer.probabilities` and
:meth:`EpsilonGreedyExplorer.select`.  The library keeps only the row
draw (``select_index``).  These subclasses keep the mapping draws
verbatim, so ``test_learning_exploration.py`` can pin ``select_index``
against them draw for draw and ``test_session_equivalence.py`` can run
the frozen pre-refactor training loop on them.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.learning.exploration import BoltzmannExplorer, EpsilonGreedyExplorer

__all__ = ["ReferenceBoltzmannExplorer", "ReferenceEpsilonGreedyExplorer"]


class ReferenceBoltzmannExplorer(BoltzmannExplorer):
    """The Boltzmann explorer with its mapping-form draw."""

    def probabilities(
        self, q_values: Mapping[str, float], sweep: int
    ) -> Mapping[str, float]:
        """Selection probabilities for each action at this sweep."""
        if not q_values:
            raise ConfigurationError("q_values must be non-empty")
        temperature = self.schedule.temperature(sweep)
        names = list(q_values.keys())
        values = np.array([q_values[n] for n in names], dtype=float)
        # Costs are minimized: lower Q => higher probability.  Shift by the
        # minimum for numerical stability (invariant under softmax).
        logits = -(values - values.min()) / temperature
        weights = np.exp(logits)
        probabilities = weights / weights.sum()
        return dict(zip(names, probabilities))

    def select(self, q_values: Mapping[str, float], sweep: int) -> str:
        """Draw one action."""
        probabilities = self.probabilities(q_values, sweep)
        names = list(probabilities.keys())
        p = np.array([probabilities[n] for n in names])
        return names[int(self._rng.choice(len(names), p=p))]


class ReferenceEpsilonGreedyExplorer(EpsilonGreedyExplorer):
    """The epsilon-greedy explorer with its mapping-form draw."""

    def select(self, q_values: Mapping[str, float], sweep: int) -> str:
        """Draw one action: random w.p. epsilon, else the minimum-Q one."""
        if not q_values:
            raise ConfigurationError("q_values must be non-empty")
        names = list(q_values.keys())
        if self._rng.random() < self.epsilon(sweep):
            return names[int(self._rng.integers(0, len(names)))]
        return min(names, key=lambda n: q_values[n])
