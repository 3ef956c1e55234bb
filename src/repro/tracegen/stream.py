"""Streamed synthetic recovery logs of unbounded length.

The cluster simulators build a full :class:`~repro.recoverylog.log.RecoveryLog`
in memory, which caps how large a workload they can produce.  This
module generates a *statistically* realistic recovery log as a pure
iterator: per-machine recovery processes (initial error symptom,
correlated extra symptoms, an occasional cross-cluster noise symptom,
an action ladder, a success report) merged into one globally
time-ordered entry stream.  Nothing is ever materialized, so a
100-million-entry log costs a few kilobytes of state — exactly the
producer the streaming-mining benchmark needs.

Determinism: each machine draws from its own generator derived via
:func:`repro.util.rng.derive_rng` from the root seed and the machine
name, in fixed-size blocks, so the stream is reproducible and
independent of how far other machines have advanced.  The symptom
structure mirrors what the miner must recover: each error type owns a
disjoint symptom pool (one cluster per type) and noise symptoms borrow
from a *different* type's pool, producing multi-cluster "noisy"
processes at a controlled rate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.recoverylog.entry import LogEntry
from repro.util.rng import derive_rng

__all__ = ["SyntheticStreamConfig", "iter_synthetic_log"]

#: The paper's repair ladder, cheapest first.
_ACTION_LADDER = ("TRYNOP", "REBOOT", "REIMAGE", "RMA")

#: Per-machine processes drawn per RNG block (amortizes numpy call
#: overhead to a fraction of a microsecond per entry).
_BLOCK = 64


@dataclass(frozen=True)
class SyntheticStreamConfig:
    """Shape of a streamed synthetic log.

    Attributes
    ----------
    machines:
        Concurrent machines; each runs an independent fault process.
    seed:
        Root seed; machine streams derive from it by name.
    error_types:
        Distinct error types (= intended symptom clusters).
    symptoms_per_type:
        Extra correlated symptoms in each type's pool.
    max_extra_symptoms:
        At most this many pool symptoms accompany the initial one.
    noise_probability:
        Chance a process also shows one symptom from another type's
        pool (making it multi-cluster, i.e. "noisy").
    mean_time_between_failures:
        Mean idle gap between a success and the next fault (seconds).
    detection_delay:
        Seconds from first symptom to the first repair action.
    mean_action_duration:
        Mean seconds per repair attempt.
    max_actions:
        Longest action ladder tried before success (1..4).
    drift_epochs:
        Cyclic catalog-drift epochs: during epoch ``e`` the error-type
        distribution rotates by ``e`` positions, shifting which types
        dominate.  1 (the default) reproduces the stationary stream
        byte for byte; drift resolution consumes zero RNG draws, so
        every other entry is unchanged.
    drift_period:
        Seconds per drift epoch (the schedule cycles, since a stream
        has no finite duration to split).
    machine_classes:
        Heterogeneous machine classes; machines split into contiguous
        blocks and their symptoms are decorated ``symptom@c<id>``,
        mirroring the cluster scenario model.  1 (the default) leaves
        names undecorated.
    """

    machines: int = 1_000
    seed: int = 7
    error_types: int = 24
    symptoms_per_type: int = 4
    max_extra_symptoms: int = 2
    noise_probability: float = 0.03
    mean_time_between_failures: float = 6 * 86_400.0
    detection_delay: float = 60.0
    mean_action_duration: float = 1_800.0
    max_actions: int = 4
    drift_epochs: int = 1
    drift_period: float = 30 * 86_400.0
    machine_classes: int = 1

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ConfigurationError(
                f"machines must be >= 1, got {self.machines}"
            )
        if self.error_types < 1:
            raise ConfigurationError(
                f"error_types must be >= 1, got {self.error_types}"
            )
        if not 1 <= self.max_actions <= len(_ACTION_LADDER):
            raise ConfigurationError(
                f"max_actions must be in 1..{len(_ACTION_LADDER)}, "
                f"got {self.max_actions}"
            )
        if not 0.0 <= self.noise_probability <= 1.0:
            raise ConfigurationError(
                "noise_probability must be in [0, 1], "
                f"got {self.noise_probability}"
            )
        if self.drift_epochs < 1:
            raise ConfigurationError(
                f"drift_epochs must be >= 1, got {self.drift_epochs}"
            )
        if self.drift_period <= 0:
            raise ConfigurationError(
                f"drift_period must be positive, got {self.drift_period}"
            )
        if self.machine_classes < 1:
            raise ConfigurationError(
                f"machine_classes must be >= 1, got {self.machine_classes}"
            )


def _machine_stream(
    machine: str,
    seed: int,
    config: SyntheticStreamConfig,
    type_names: Tuple[str, ...],
    pools: Tuple[Tuple[str, ...], ...],
) -> Iterator[LogEntry]:
    """Yield one machine's entries forever, in strictly advancing time."""
    rng = derive_rng(seed, f"synthetic-stream/{machine}")
    n_types = config.error_types
    extra_cap = max(1, config.max_extra_symptoms)
    detection = max(config.detection_delay, config.max_extra_symptoms + 2.0)
    cursor = 0.0
    while True:
        gaps = rng.exponential(config.mean_time_between_failures, _BLOCK)
        etypes = rng.integers(0, n_types, _BLOCK)
        extra_counts = rng.integers(0, config.max_extra_symptoms + 1, _BLOCK)
        extra_picks = rng.integers(
            0, config.symptoms_per_type, (_BLOCK, extra_cap)
        )
        noise_draws = rng.random(_BLOCK)
        noise_shifts = rng.integers(1, max(2, n_types), _BLOCK)
        noise_picks = rng.integers(0, config.symptoms_per_type, _BLOCK)
        action_counts = rng.integers(1, config.max_actions + 1, _BLOCK)
        durations = rng.exponential(
            config.mean_action_duration, (_BLOCK, config.max_actions)
        )
        for i in range(_BLOCK):
            etype = int(etypes[i])
            onset = cursor + float(gaps[i])
            if config.drift_epochs > 1:
                # Cyclic drift: rotate the type distribution by the
                # onset's epoch.  Pure arithmetic on the already-drawn
                # type — zero extra RNG draws, so the default stream is
                # untouched.
                epoch = int(onset // config.drift_period) % config.drift_epochs
                etype = (etype + epoch) % n_types
            yield LogEntry.symptom(onset, machine, type_names[etype])
            pool = pools[etype]
            for j in range(int(extra_counts[i])):
                yield LogEntry.symptom(
                    onset + 1.0 + j, machine, pool[int(extra_picks[i, j])]
                )
            if noise_draws[i] < config.noise_probability and n_types > 1:
                other = (etype + int(noise_shifts[i])) % n_types
                yield LogEntry.symptom(
                    onset + config.max_extra_symptoms + 1.0,
                    machine,
                    pools[other][int(noise_picks[i])],
                )
            time = onset + detection
            for k in range(int(action_counts[i])):
                yield LogEntry.action(time, machine, _ACTION_LADDER[k])
                time += max(float(durations[i, k]), 1e-3)
            yield LogEntry.success(time, machine)
            cursor = time


def iter_synthetic_log(
    config: SyntheticStreamConfig,
    *,
    total_entries: int = 0,
) -> Iterator[LogEntry]:
    """Merge all machine streams into one time-ordered entry stream.

    ``total_entries`` bounds the stream (0 = unbounded); a cut can land
    mid-process, leaving trailing incomplete processes exactly as a real
    log window does.  The merge holds one pending entry per machine, so
    memory is O(machines) regardless of stream length.
    """
    if total_entries < 0:
        raise ConfigurationError(
            f"total_entries must be >= 0, got {total_entries}"
        )
    width = len(str(config.machines - 1))
    type_names = tuple(
        f"error:t{index:02d}" for index in range(config.error_types)
    )
    pools = tuple(
        tuple(
            f"sym:t{index:02d}:{j}"
            for j in range(config.symptoms_per_type)
        )
        for index in range(config.error_types)
    )
    # Per-class decorated symptom tables, mirroring the cluster scenario
    # model's ``symptom@class`` convention; one undecorated table when
    # homogeneous.
    C = config.machine_classes
    if C > 1:
        names_by_class = tuple(
            tuple(f"{n}@c{cid}" for n in type_names) for cid in range(C)
        )
        pools_by_class = tuple(
            tuple(tuple(f"{s}@c{cid}" for s in pool) for pool in pools)
            for cid in range(C)
        )
    else:
        names_by_class = (type_names,)
        pools_by_class = (pools,)
    streams: List[Iterator[LogEntry]] = [
        _machine_stream(
            f"m-{index:0{width}d}",
            config.seed,
            config,
            names_by_class[index * C // config.machines],
            pools_by_class[index * C // config.machines],
        )
        for index in range(config.machines)
    ]
    # Keying on the bare timestamp is safe: each machine's stream is
    # strictly time-increasing, streams are passed in machine-name
    # order, and ``heapq.merge`` is stable — so a cross-machine
    # timestamp tie resolves machine-ascending, exactly the LogEntry
    # row order.  Merging whole rows (which compare in C) measured no
    # faster.
    merged = heapq.merge(*streams, key=attrgetter("time"))
    if total_entries:
        return islice(merged, total_entries)
    return merged
