"""The cluster simulator's random source: per-machine counter streams.

Every ``(machine, channel)`` pair owns an independent splitmix64-keyed
counter stream, so a machine's draws depend only on its *own* logical
trajectory, never on how the global schedule interleaves machines.
That is what lets the vectorized :class:`~repro.cluster.fleet.FleetEngine`
(drawing for whole *waves* of machines at once) and the event-driven
:class:`~repro.cluster.cluster.ClusterSimulator` (drawing one machine at
a time, in event order) produce bit-identical runs — pinned by
``tests/test_fleet_equivalence.py`` — and what lets the fleet engine hold
10^5+ machines.

All distribution transforms are fixed numpy ufunc formulas (``log1p``,
``searchsorted``, Box–Muller) applied to the raw uniforms, never
generator method calls, so scalar and vectorized evaluation agree to the
last bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.actions.costs import CostModel
    from repro.cluster.faults import FaultCatalog

__all__ = [
    "ARRIVALS",
    "SYMPTOMS",
    "CURES",
    "COSTS",
    "DELAYS",
    "CHANNEL_COUNT",
    "CHANNEL_NAMES",
    "mix64",
    "uniform_from_bits",
    "exponential_from_uniform",
    "range_from_uniform",
    "MachineRandomSource",
]

# Per-machine channel ids, one per kind of draw site.
ARRIVALS = 0
SYMPTOMS = 1
CURES = 2
COSTS = 3
DELAYS = 4
CHANNEL_COUNT = 5
CHANNEL_NAMES = ("arrivals", "symptoms", "cures", "costs", "delays")

#: The splitmix64 increment (2^64 / golden ratio, odd).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U53 = np.float64(2.0**-53)


def mix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over ``uint64`` values (vectorized).

    A bijective avalanche mix: consecutive inputs produce statistically
    independent outputs, which is what turns ``key + n * golden`` counter
    sequences into usable uniform bits.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(values, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def uniform_from_bits(bits: np.ndarray) -> np.ndarray:
    """Map ``uint64`` bit patterns to float64 uniforms in ``[0, 1)``.

    Uses the top 53 bits — the same construction numpy itself uses — so
    the result is exactly representable and never 1.0.
    """
    return (bits >> np.uint64(11)).astype(np.float64) * _U53


def exponential_from_uniform(u: np.ndarray, mean: float) -> np.ndarray:
    """Inverse-CDF exponential; ``log1p(-u)`` keeps ``u=0`` finite."""
    return -mean * np.log1p(-np.asarray(u))


def range_from_uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Affine map of uniforms onto ``[low, high)``."""
    return low + (high - low) * np.asarray(u)


class MachineRandomSource:
    """Counter-based per-``(machine, channel)`` uniform streams.

    Each pair owns the sequence ``mix64(key + n * golden)`` for draw
    number ``n``, with ``key`` itself a mix of the root entropy and the
    pair's index.  Draws are therefore a pure function of *how many*
    draws the machine has made on the channel — global interleaving is
    irrelevant, so the event backend (drawing one machine at a time) and
    the fleet backend (drawing whole waves) produce identical values.

    The counters are exposed via :meth:`draw_counts`; equality of the
    full counter matrix across backends is one of the differential fuzz
    harness's pinned invariants.
    """

    def __init__(self, entropy: int, machine_count: int) -> None:
        if machine_count <= 0:
            raise ConfigurationError(
                f"machine_count must be positive, got {machine_count}"
            )
        root = np.uint64(int(entropy) % (2**64))
        pair_ids = np.arange(
            1, machine_count * CHANNEL_COUNT + 1, dtype=np.uint64
        ).reshape(machine_count, CHANNEL_COUNT)
        with np.errstate(over="ignore"):
            self._keys = mix64(root + pair_ids * _GOLDEN)
        self._counters = np.zeros(
            (machine_count, CHANNEL_COUNT), dtype=np.uint64
        )

    # -- vectorized core ------------------------------------------------
    def uniform_wave(self, machines: np.ndarray, channel: int) -> np.ndarray:
        """One uniform per machine index (indices must be distinct).

        Advances each addressed machine's channel counter by one.  This
        is the fleet backend's draw primitive; the scalar methods below
        are one-element waves, which is what guarantees the two
        backends read identical values.
        """
        machines = np.asarray(machines, dtype=np.intp)
        counters = self._counters[machines, channel]
        with np.errstate(over="ignore"):
            bits = mix64(
                self._keys[machines, channel]
                + (counters + np.uint64(1)) * _GOLDEN
            )
        self._counters[machines, channel] = counters + np.uint64(1)
        return uniform_from_bits(bits)

    def uniform_block(
        self, machines: np.ndarray, channel: int, count: int
    ) -> np.ndarray:
        """``count`` uniforms per machine, shape ``(count, len(machines))``.

        Row ``k`` is each machine's ``k``-th draw, so a block is the
        same values as ``count`` consecutive one-row waves.
        """
        machines = np.asarray(machines, dtype=np.intp)
        if not count:
            return np.empty((0, machines.size))
        return np.stack(
            [self.uniform_wave(machines, channel) for _ in range(count)]
        )

    def _uniform(self, machine: int, channel: int) -> float:
        return float(self.uniform_wave(np.array([machine]), channel)[0])

    # -- scalar draws, one per simulator draw site ----------------------
    def arrival_gap(self, machine: int, mean: float) -> float:
        """Exponential inter-arrival gap (arrivals channel)."""
        return float(
            exponential_from_uniform(self._uniform(machine, ARRIVALS), mean)
        )

    def fault_index(self, machine: int, catalog: "FaultCatalog") -> int:
        """Weighted fault-type index (arrivals channel)."""
        return catalog.index_from_uniform(self._uniform(machine, ARRIVALS))

    def noise_uniform(self, machine: int) -> float:
        """Raw uniform for the noise and cascade coins (arrivals channel)."""
        return self._uniform(machine, ARRIVALS)

    def symptom_uniform(self, machine: int) -> float:
        """Raw uniform for emission coins (symptoms channel)."""
        return self._uniform(machine, SYMPTOMS)

    def symptom_offset(self, machine: int, low: float, high: float) -> float:
        """Uniform offset in ``[low, high)`` (symptoms channel)."""
        return float(
            range_from_uniform(self._uniform(machine, SYMPTOMS), low, high)
        )

    def cure_uniform(self, machine: int) -> float:
        """Raw uniform for one cure check (cures channel)."""
        return self._uniform(machine, CURES)

    def action_duration(self, machine: int, cost_model: "CostModel") -> float:
        """One action duration from ``cost_model`` (costs channel)."""
        uniforms = self.uniform_block(
            np.array([machine]), COSTS, cost_model.uniform_count
        )
        return float(cost_model.from_uniforms(uniforms)[0])

    def delay(self, machine: int, mean: float) -> float:
        """Exponential latency delay; callers guard ``mean > 0``
        (delays channel)."""
        return float(
            exponential_from_uniform(self._uniform(machine, DELAYS), mean)
        )

    def draw_counts(self) -> np.ndarray:
        """A copy of the ``(machine_count, 5)`` uint64 draw counters."""
        return self._counters.copy()
