"""Cost (duration) models for repair actions.

The duration of a repair action is the machine downtime it contributes: the
time to execute the action plus the time spent observing whether it cured
the error.  The paper notes that even "cheap" actions have non-negligible
observation cost, which is why a cheapest-first policy can be suboptimal.

Durations in a real cluster are heavy-tailed, so the default model is
lognormal; a deterministic model is provided for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

__all__ = ["CostModel", "DeterministicCost", "LognormalCost"]


class CostModel:
    """Interface for sampling action durations, in seconds.

    :meth:`from_uniforms` transforms ``uniform_count`` uniforms in
    ``[0, 1)`` into durations with fixed numpy ufunc formulas, so a
    scalar caller and a vectorized caller fed the same uniforms obtain
    bit-identical IEEE-754 results — the property the cluster engines'
    differential tests pin.
    """

    #: How many uniforms :meth:`from_uniforms` consumes per duration.
    uniform_count: int = 0

    def from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        """Durations from uniforms of shape ``(uniform_count, n)``.

        Returns an array of ``n`` durations.  Models with
        ``uniform_count == 0`` accept any ``(0, n)`` array and are
        fully deterministic.
        """
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """The expected duration."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicCost(CostModel):
    """A constant duration; useful for unit tests and analytic checks."""

    value: float

    uniform_count = 0

    def __post_init__(self) -> None:
        check_positive("value", self.value)

    def from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        count = np.asarray(uniforms).shape[-1]
        return np.full(count, self.value, dtype=np.float64)

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class LognormalCost(CostModel):
    """A lognormal duration with the given mean and coefficient of variation.

    Parameters
    ----------
    mean_seconds:
        Desired expected value of the distribution.
    cv:
        Coefficient of variation (std/mean).  ``cv=0.3`` gives mild
        variability; ``cv>=1`` gives a pronounced heavy tail.
    """

    mean_seconds: float
    cv: float = 0.3

    uniform_count = 2

    def __post_init__(self) -> None:
        check_positive("mean_seconds", self.mean_seconds)
        check_positive("cv", self.cv)

    @property
    def _sigma(self) -> float:
        return math.sqrt(math.log(1.0 + self.cv**2))

    @property
    def _mu(self) -> float:
        return math.log(self.mean_seconds) - 0.5 * self._sigma**2

    def from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        # Box–Muller on two uniforms; log1p(-u) keeps u=0 finite and the
        # transform is pure numpy ufuncs, so scalar and vectorized
        # callers produce bit-identical values from the same uniforms.
        u1, u2 = np.asarray(uniforms)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        gaussian = radius * np.cos(2.0 * np.pi * u2)
        return np.exp(self._mu + self._sigma * gaussian)

    @property
    def mean(self) -> float:
        return self.mean_seconds
