"""Deterministic random-number management.

All stochastic components of the library draw from
:class:`numpy.random.Generator` instances derived from a single user-supplied
seed.  :class:`RngStreams` hands out *named* child generators so that adding a
new consumer of randomness does not perturb the streams seen by existing
consumers — a property the reproduction benchmarks rely on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["make_rng", "derive_seed", "derive_rng", "RngStreams"]

SeedLike = Union[int, np.random.Generator, None]


def _check_seed(seed: Optional[int]) -> None:
    """Reject what :class:`numpy.random.SeedSequence` cannot take.

    A negative (or non-integer) seed otherwise surfaces as numpy's bare
    ``ValueError`` deep inside a run; this names the seed instead.
    """
    if seed is None:
        return
    if (
        isinstance(seed, bool)
        or not isinstance(seed, (int, np.integer))
        or seed < 0
    ):
        raise ConfigurationError(
            f"seed must be a non-negative integer, got {seed!r}"
        )


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be a non-negative integer, an existing generator
    (returned unchanged), or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    _check_seed(seed)
    return np.random.default_rng(seed)


def derive_seed(seed: int, name: str) -> int:
    """A child seed for ``(seed, name)``, stable across processes.

    The derivation hashes the pair with SHA-256, so it does not depend on
    ``PYTHONHASHSEED``, interpreter version, process boundaries or the
    order in which names are derived — the property that lets per-error-
    type training courses run on any worker of a process pool and still
    reproduce a serial run bit for bit.  Distinct names yield distinct
    seeds (collisions would need a SHA-256 collision in the first eight
    bytes).
    """
    payload = f"{int(seed)}\x1f{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, name: str) -> np.random.Generator:
    """A generator seeded with :func:`derive_seed` of ``(seed, name)``."""
    return np.random.default_rng(derive_seed(seed, name))


class RngStreams:
    """A family of independent, named random streams under one root seed.

    Each distinct name deterministically maps to its own child generator via
    :class:`numpy.random.SeedSequence` spawn keys derived from the name hash,
    so ``RngStreams(42).get("faults")`` is reproducible and independent of
    ``RngStreams(42).get("costs")``.

    Example::

        streams = RngStreams(seed=42)
        fault_rng = streams.get("faults")
        cost_rng = streams.get("costs")
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        _check_seed(seed)
        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> Optional[int]:
        """The root seed this family was created with."""
        return self._seed

    @property
    def root_entropy(self) -> int:
        """The root :class:`~numpy.random.SeedSequence` entropy.

        Equals ``seed`` when one was given; otherwise the OS entropy the
        root sequence gathered, so even seedless runs expose one stable
        integer from which sibling deterministic key schedules (the
        counter-based per-machine streams) can be derived.
        """
        entropy = self._root.entropy
        if isinstance(entropy, int):
            return entropy
        # SeedSequence stores pooled entropy as a sequence of ints for
        # some seed shapes; fold it into one stable integer.
        folded = 0
        for word in np.atleast_1d(np.asarray(entropy, dtype=object)):
            folded = (folded << 32) | int(word)
        return folded

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so state advances across calls.
        """
        if name not in self._cache:
            # Derive a stable per-name entropy value from the name bytes so
            # the mapping does not depend on creation order.
            name_key = int.from_bytes(name.encode("utf-8"), "big") % (2**63)
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(name_key,)
            )
            self._cache[name] = np.random.default_rng(child)
        return self._cache[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a freshly re-seeded generator for ``name``.

        Unlike :meth:`get`, the returned generator always starts from the
        name's initial state, discarding any previously drawn values.
        """
        self._cache.pop(name, None)
        return self.get(name)
