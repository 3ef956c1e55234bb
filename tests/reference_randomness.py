"""The key-matrix counter-stream source, kept as a test-only reference.

This is :class:`~repro.cluster.randomness.MachineRandomSource` (and the
splitmix64 finalizer it used) as it was when every pair's key was
precomputed into an ``(N, 5)`` matrix, kept verbatim apart from its
names.  The source now derives each pair's key when it draws; the
hypothesis properties in ``test_randomness_keys.py`` compare it with
this reference on every draw and on the draw counters.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.randomness import CHANNEL_COUNT
from repro.errors import ConfigurationError

__all__ = ["KeyMatrixRandomSource", "reference_mix64"]

#: The splitmix64 increment (2^64 / golden ratio, odd).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U53 = np.float64(2.0**-53)


def reference_mix64(values: np.ndarray) -> np.ndarray:
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
    """Map ``uint64`` bit patterns to float64 uniforms in ``[0, 1)``."""
    return (bits >> np.uint64(11)).astype(np.float64) * _U53


class KeyMatrixRandomSource:
    """Counter-based per-``(machine, channel)`` uniform streams.

    Each pair owns the sequence ``mix64(key + n * golden)`` for draw
    number ``n``, with ``key`` itself a mix of the root entropy and the
    pair's index, precomputed for every pair.
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
            self._keys = reference_mix64(root + pair_ids * _GOLDEN)
        self._counters = np.zeros(
            (machine_count, CHANNEL_COUNT), dtype=np.uint64
        )

    def uniform_wave(self, machines: np.ndarray, channel: int) -> np.ndarray:
        """One uniform per machine index (indices must be distinct)."""
        machines = np.asarray(machines, dtype=np.intp)
        counters = self._counters[machines, channel]
        with np.errstate(over="ignore"):
            bits = reference_mix64(
                self._keys[machines, channel]
                + (counters + np.uint64(1)) * _GOLDEN
            )
        self._counters[machines, channel] = counters + np.uint64(1)
        return uniform_from_bits(bits)

    def uniform_block(
        self, machines: np.ndarray, channel: int, count: int
    ) -> np.ndarray:
        """``count`` uniforms per machine, shape ``(count, len(machines))``."""
        machines = np.asarray(machines, dtype=np.intp)
        counters = self._counters[machines, channel]
        steps = np.arange(1, count + 1, dtype=np.uint64).reshape(-1, 1)
        with np.errstate(over="ignore"):
            bits = reference_mix64(
                self._keys[machines, channel] + (counters + steps) * _GOLDEN
            )
        self._counters[machines, channel] = counters + np.uint64(count)
        return uniform_from_bits(bits)

    def draw_counts(self) -> np.ndarray:
        """A copy of the ``(machine_count, 5)`` uint64 draw counters."""
        return self._counters.copy()
