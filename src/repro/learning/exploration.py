"""Exploration strategies (Section 3.3).

The paper uses the Boltzmann distribution over Q values,

    P(a | s) = exp(-Q(s, a) / T) / sum_a' exp(-Q(s, a') / T),

with a temperature ``T`` that decreases as more recovery processes are
analyzed, moving the learning course from exploration to search like
simulated annealing.  An epsilon-greedy explorer is provided for the
exploration-strategy ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.util.rng import make_rng
from repro.util.validation import check_positive, check_probability

__all__ = ["TemperatureSchedule", "BoltzmannExplorer", "EpsilonGreedyExplorer"]


@dataclass(frozen=True)
class TemperatureSchedule:
    """Geometric annealing: ``T(k) = max(floor, initial * decay ** k)``.

    ``k`` counts *sweeps* (full passes over the type's training
    processes).  The initial temperature is on the scale of Q values
    (seconds), so that early selection is near-uniform.
    """

    initial: float = 20_000.0
    decay: float = 0.98
    floor: float = 50.0

    def __post_init__(self) -> None:
        check_positive("initial", self.initial)
        check_positive("floor", self.floor)
        if not 0.0 < self.decay <= 1.0:
            raise ConfigurationError(
                f"decay must be in (0, 1], got {self.decay}"
            )
        if self.floor > self.initial:
            raise ConfigurationError(
                "floor temperature must not exceed the initial temperature"
            )

    def temperature(self, sweep: int) -> float:
        """The temperature at 0-based sweep index ``sweep``."""
        if sweep < 0:
            raise ConfigurationError(f"sweep must be >= 0, got {sweep}")
        return max(self.floor, self.initial * self.decay**sweep)

    def is_search_phase(self, sweep: int, threshold_ratio: float = 2.0) -> bool:
        """Whether annealing has essentially reached the floor."""
        return self.temperature(sweep) <= self.floor * threshold_ratio


class BoltzmannExplorer:
    """Stochastic action selection by the Boltzmann distribution."""

    def __init__(
        self,
        schedule: Optional[TemperatureSchedule] = None,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.schedule = schedule if schedule is not None else TemperatureSchedule()
        self._rng = rng if rng is not None else make_rng(seed)
        # Per-sweep temperature cache: the schedule is pure, and the
        # training loop asks for thousands of draws at the same sweep.
        self._cached_sweep = -1
        self._cached_temperature = 0.0

    def select_index(self, q_row: Sequence[float], sweep: int) -> int:
        """Draw one action id from a Q row (the trainer's per-step draw).

        Bit-identical to ``Generator.choice(n, p=p)`` over the softmax
        ``p = exp(-(q - min q) / T) / sum(...)``: the draw replicates
        ``choice``'s internal inverse-CDF computation — it consumes
        exactly one ``random()`` and returns
        ``searchsorted(normalized cumsum(p), u, side="right")`` — while
        skipping its input validation.  The tests pin it draw for draw
        to the mapping-form reference in
        ``tests/reference_exploration.py``.
        """
        size = len(q_row)
        if size == 0:
            raise ConfigurationError("q_row must be non-empty")
        if sweep != self._cached_sweep:
            self._cached_temperature = self.schedule.temperature(sweep)
            self._cached_sweep = sweep
        temperature = self._cached_temperature
        # The logits ``(m - q) / T`` equal the softmax's ``-(q - m) / T``
        # bit for bit (IEEE-754 rounding is sign-symmetric).
        lowest = min(q_row)
        if size >= 8:
            # numpy's add-reduce turns pairwise at 8 elements, so wide
            # catalogs take the array form itself.
            logits = (lowest - np.asarray(q_row, dtype=float)) / temperature
            weights = np.exp(logits)
            p = weights / weights.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            return int(cdf.searchsorted(self._rng.random(), side="right"))
        # Scalar inverse-CDF: below 8 elements numpy's add-reduce and
        # cumsum are plain left folds, so these scalar ops reproduce the
        # array ops (and the ``choice`` draw) bit for bit at a fraction
        # of the per-call overhead.  Catalogs are action-strength
        # ladders, so this branch is the norm.  Each weight is numpy's
        # ``exp`` of a Python float, which equals the array ufunc's
        # element; ``math.exp`` does not always (DESIGN.md §5b).
        exp = np.exp
        weights = [float(exp((lowest - q) / temperature)) for q in q_row]
        total = 0.0
        for weight in weights:
            total += weight
        cumulative = 0.0
        tail = 0.0
        for weight in weights:
            tail += weight / total
        uniform = self._rng.random()
        last = size - 1
        for position in range(last):
            cumulative += weights[position] / total
            if cumulative / tail > uniform:
                return position
        return last


class EpsilonGreedyExplorer:
    """Epsilon-greedy selection with geometric epsilon decay (ablation).

    With probability ``epsilon(sweep)`` a uniformly random action is
    taken; otherwise the minimum-Q action.
    """

    def __init__(
        self,
        epsilon_initial: float = 1.0,
        decay: float = 0.98,
        floor: float = 0.01,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        check_probability("epsilon_initial", epsilon_initial)
        check_probability("floor", floor)
        if not 0.0 < decay <= 1.0:
            raise ConfigurationError(f"decay must be in (0, 1], got {decay}")
        self._epsilon_initial = epsilon_initial
        self._decay = decay
        self._floor = floor
        self._rng = rng if rng is not None else make_rng(seed)

    def epsilon(self, sweep: int) -> float:
        """Exploration rate at 0-based sweep index ``sweep``."""
        return max(self._floor, self._epsilon_initial * self._decay**sweep)

    def select_index(self, q_row: Sequence[float], sweep: int) -> int:
        """Draw one action id from a Q row (the trainer's per-step draw).

        A uniformly random id with probability ``epsilon(sweep)``, else
        the minimum-Q id; the first minimum wins, so ties break in
        catalog order.
        """
        if len(q_row) == 0:
            raise ConfigurationError("q_row must be non-empty")
        if self._rng.random() < self.epsilon(sweep):
            return int(self._rng.integers(0, len(q_row)))
        return q_row.index(min(q_row))
