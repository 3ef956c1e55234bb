"""The cluster simulator's random source: per-machine counter streams.

Every ``(machine, channel)`` pair owns an independent splitmix64-keyed
counter stream, so a machine's draws depend only on its *own* logical
trajectory, never on how the global schedule interleaves machines.
That is what lets the vectorized :class:`~repro.cluster.fleet.FleetEngine`
draw for whole *waves* of machines at once and still produce, bit for
bit, the run of an engine that draws one machine at a time in event
order — pinned against the event-driven reference in
``tests/test_fleet_equivalence.py`` — and what lets it hold 10^5+
machines.

All distribution transforms are fixed numpy ufunc formulas (``log1p``,
``searchsorted``, Box–Muller) applied to the raw uniforms, never
generator method calls, so scalar and vectorized evaluation agree to the
last bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

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
    irrelevant, so drawing one machine at a time (the event-driven
    reference) and drawing whole waves (the fleet engine) produce
    identical values.

    The counters are exposed via :meth:`draw_counts`; equality of the
    full counter matrix with the reference's is one of the differential
    fuzz harness's pinned invariants.
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
        is the engine's one draw primitive: a machine's ``n``-th value
        on a channel is the same whichever wave draws it.
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
        same values as ``count`` consecutive one-row waves, computed
        in one pass.
        """
        machines = np.asarray(machines, dtype=np.intp)
        counters = self._counters[machines, channel]
        steps = np.arange(1, count + 1, dtype=np.uint64).reshape(-1, 1)
        with np.errstate(over="ignore"):
            bits = mix64(
                self._keys[machines, channel] + (counters + steps) * _GOLDEN
            )
        self._counters[machines, channel] = counters + np.uint64(count)
        return uniform_from_bits(bits)

    def draw_counts(self) -> np.ndarray:
        """A copy of the ``(machine_count, 5)`` uint64 draw counters."""
        return self._counters.copy()
