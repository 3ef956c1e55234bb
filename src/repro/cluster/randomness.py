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
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = np.float64(2.0**-53)
#: Pair ``(m, c)`` has index ``m * CHANNEL_COUNT + c + 1``; its key
#: input ``root + index * golden`` is ``m * _PAIR_STRIDE`` plus a
#: per-channel offset (arithmetic mod 2^64).
_PAIR_STRIDE = np.uint64((CHANNEL_COUNT * int(_GOLDEN)) % 2**64)


def _finalize(z: np.ndarray) -> np.ndarray:
    """Run the splitmix64 finalizer in place on the ``uint64`` array ``z``.

    Every step writes into ``z`` or into one scratch buffer, so the
    eight passes allocate nothing else; array ufuncs wrap on overflow
    without a warning, so no ``np.errstate`` is needed.
    """
    scratch = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def mix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over ``uint64`` values (vectorized).

    A bijective avalanche mix: consecutive inputs produce statistically
    independent outputs, which is what turns ``key + n * golden`` counter
    sequences into usable uniform bits.  ``values`` is left as it is.
    """
    z = _finalize(np.array(values, dtype=np.uint64))
    return z if z.ndim else z[()]


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
    number ``n``, with ``key = mix64(root + (m * 5 + c + 1) * golden)``
    for machine ``m``, channel ``c`` and the root entropy.  Draws are
    therefore a pure function of *how many* draws the machine has made
    on the channel — global interleaving is irrelevant, so drawing one
    machine at a time (the event-driven reference) and drawing whole
    waves (the fleet engine) produce identical values.

    Keys are derived on each draw, never stored: a source holds the
    root and one ``uint64`` counter per pair, 40 bytes per machine.
    The counters are exposed via :meth:`draw_counts`; equality of the
    full counter matrix with the reference's is one of the differential
    fuzz harness's pinned invariants.
    """

    def __init__(self, entropy: int, machine_count: int) -> None:
        if machine_count <= 0:
            raise ConfigurationError(
                f"machine_count must be positive, got {machine_count}"
            )
        root = int(entropy) % 2**64
        # Channel c's key offset: root + (c + 1) * golden, mod 2^64.
        self._offsets = np.array(
            [
                (root + (channel + 1) * int(_GOLDEN)) % 2**64
                for channel in range(CHANNEL_COUNT)
            ],
            dtype=np.uint64,
        )
        # Channel-major, so one channel's counters are one contiguous row.
        self._counters = np.zeros(
            (CHANNEL_COUNT, machine_count), dtype=np.uint64
        )

    # -- vectorized core ------------------------------------------------
    def uniform_wave(self, machines: np.ndarray, channel: int) -> np.ndarray:
        """One uniform per machine index (indices must be distinct).

        Advances each addressed machine's channel counter by one.  This
        is the engine's one draw primitive: a machine's ``n``-th value
        on a channel is the same whichever wave draws it.
        """
        return self._draw(machines, channel, 1)[0]

    def uniform_block(
        self, machines: np.ndarray, channel: int, count: int
    ) -> np.ndarray:
        """``count`` uniforms per machine, shape ``(count, len(machines))``.

        Row ``k`` is each machine's ``k``-th draw, so a block is the
        same values as ``count`` consecutive one-row waves, computed
        in one pass.
        """
        return self._draw(machines, channel, count)

    def _draw(self, machines: np.ndarray, channel: int, count: int) -> np.ndarray:
        """The next ``count`` uniforms of each machine's ``channel`` stream.

        ``machines`` is a 1-D array of distinct indices.  Row ``k`` of
        the ``(count, len(machines))`` result is draw ``counter + k + 1``;
        the counters advance by ``count``.
        """
        # int64 ids are non-negative, so their uint64 view is the same
        # number: the key input is one multiply and one add from it.
        machines = np.asarray(machines, dtype=np.int64)
        keys = machines.view(np.uint64) * _PAIR_STRIDE
        keys += self._offsets[channel]
        _finalize(keys)
        row = self._counters[channel]
        bits = row[machines] + np.arange(1, count + 1, dtype=np.uint64)[:, None]
        if count:
            row[machines] = bits[-1]
        bits *= _GOLDEN
        bits += keys
        return uniform_from_bits(_finalize(bits))

    def draw_counts(self) -> np.ndarray:
        """A fresh C-contiguous ``(machine_count, 5)`` uint64 copy of the
        draw counters."""
        return self._counters.T.copy()
