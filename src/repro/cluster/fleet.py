"""The vectorized fleet-scale cluster engine — the cluster simulator.

:class:`FleetEngine` holds every machine's state in flat numpy arrays
and advances all machines in batched lockstep *waves* — the
tianshou-``Collector``-over-vectorized-envs shape.
:func:`simulate_cluster` (and so every generated trace) runs it.  One
pass of the wave loop moves every active machine through its next
lifecycle phase:

* **onset** — the pending fault fires: sample the fault (and possible
  overlapping noise fault), record the primary symptom, queue secondary-
  symptom candidates, sample the detection delay, and, in a cascading
  scenario, flip the coins that induce onsets on ring neighbours;
* **decide** — every machine awaiting a repair decision resolves in one
  :func:`~repro.session.driver.decide_wave` call (cap-forced machines
  bypass the policy; the rest share a single
  :meth:`~repro.policies.base.Policy.decide_batch`), then durations are
  sampled per action group;
* **complete** — cure checks run for all finishing actions at once;
  successes close their recovery process and schedule the next fault,
  failures queue re-emission candidates and the next decision.

Every draw comes from the counter-based
:class:`~repro.cluster.randomness.MachineRandomSource`, so each machine
consumes the same per-channel uniform sequence no matter how the global
schedule interleaves, and a machine's trajectory depends on no other
machine's — except through cascades.  That is what makes wave execution
*exactly* equivalent to event execution; ``tests/test_fleet_equivalence.py``
pins it bit for bit against the event-driven reference kept in
``tests/reference_cluster.py``.

A cascade couples machines in one direction only: an onset can induce a
neighbour's later onset.  Such an onset is queued on its target
(:class:`_Cascades`), and a machine's onset fires only once no induced
onset earlier than it can still be created (:meth:`_Cascades.gate`);
decide and complete waves are never gated.

The one cross-time construct, *straggler* symptom candidates (secondary
symptoms, noise symptoms and re-emissions that fire later and are only
recorded while the machine is still unhealthy), is resolved after the
wave loop by a vectorized interval sweep over the completed recovery
processes — equivalent to the event engine's check of the machine's
state at fire time, because every process interval is closed by the
time the sweep runs.

Policies with ``batch_safe = False`` draw internal RNG state per
decision, so their behaviour depends on global decision order; waves
cannot run them, and the engine refuses them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.actions.action import ActionCatalog, default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.randomness import (
    ARRIVALS,
    CURES,
    DELAYS,
    SYMPTOMS,
    MachineRandomSource,
    exponential_from_uniform,
    range_from_uniform,
)
from repro.cluster.randomness import COSTS as COSTS_CHANNEL
from repro.errors import ConfigurationError, UnhandledStateError
from repro.mdp.state import RecoveryState, StateIndex
from repro.policies.base import DecisionBatch, Policy
from repro.recoverylog.entry import LogEntry, SUCCESS_DESCRIPTION
from repro.recoverylog.log import RecoveryLog
from repro.scenario.compiled import (
    CompiledCascade,
    CompiledScenario,
    compile_scenario,
)
from repro.scenario.model import FaultModel, as_scenario_model
from repro.session.core import forced_action
from repro.session.driver import decide_wave
from repro.session.trace import EpisodeTelemetry, EpisodeTrace, StepTrace
from repro.util.rng import RngStreams

__all__ = ["FleetEngine", "FleetResult", "simulate_cluster"]

# Machine lifecycle phases inside the wave loop.  A machine's next
# event time lives in ``t_event``; the phase says what happens there.
_PH_DONE = 0      # horizon reached; machine is permanently healthy
_PH_ONSET = 1     # a fault fires at t_event
_PH_DECIDE = 2    # a repair decision is due at t_event
_PH_COMPLETE = 3  # the running action finishes at t_event

# Log-entry kind codes: EntryKind's tie-break ranks, the codes
# LogEntry.from_columns reads.
_KIND_SYMPTOM = 0
_KIND_ACTION = 1
_KIND_SUCCESS = 2


def _string_ranks(strings: Tuple[str, ...]) -> np.ndarray:
    """Each string's rank in Python string order; equal strings tie."""
    rank = {s: r for r, s in enumerate(sorted(set(strings)))}
    return np.array([rank[s] for s in strings], dtype=np.int64)


class _Columns:
    """Append-only column store: per-wave arrays, concatenated on demand."""

    def __init__(self, *names: str) -> None:
        self._names = names
        self._chunks: Dict[str, List[np.ndarray]] = {n: [] for n in names}

    def append(self, **arrays: np.ndarray) -> None:
        for name in self._names:
            self._chunks[name].append(np.asarray(arrays[name]))

    def column(self, name: str, dtype=None) -> np.ndarray:
        chunks = self._chunks[name]
        if not chunks:
            return np.empty(0, dtype=dtype if dtype is not None else float)
        out = np.concatenate(chunks)
        return out.astype(dtype) if dtype is not None else out


class _Cascades:
    """Cascading faults in waves: induced onsets and the onset gate.

    Each onset on a source machine draws, after its other draws, one
    coin per (ring neighbour, target fault) from its own ARRIVALS
    channel, in the event engine's (distance, side, target) order, and
    for each hit a delay from its SYMPTOMS channel.  A hit queues an
    induced onset ``(time, machine, fault)`` on the neighbour; it is
    dropped if it falls past the horizon or lands while its target is
    down.  A healthy machine's next onset is the earlier of its natural
    arrival and its earliest queued induced onset.  An induced onset
    draws no fault and no noise, and it cancels the pending natural
    arrival: the next one is drawn at its success.
    """

    #: Rounds of the lower-bound iteration in :meth:`gate`; more rounds
    #: admit more onsets per wave, never a wrong one.
    GATE_ROUNDS = 4

    def __init__(
        self, cascade: CompiledCascade, arrivals: np.ndarray, duration: float
    ) -> None:
        machine_count = arrivals.size
        self._duration = duration
        self._delay_low = cascade.delay_low
        self._delay_high = cascade.delay_high
        # Neighbour offsets in (distance, side) order.  On a small ring
        # an offset that wraps onto the machine itself, or onto a
        # neighbour already listed, is skipped — the same offsets for
        # every machine.
        offsets: List[int] = []
        for distance in range(1, cascade.radius + 1):
            for offset in (distance, -distance):
                if offset % machine_count and all(
                    (offset - seen) % machine_count for seen in offsets
                ):
                    offsets.append(offset)
        #: ``neighbours[slot, i]``: machine ``i``'s neighbour in ``slot``.
        self._neighbours = (
            np.arange(machine_count)
            + np.array(offsets, dtype=np.int64).reshape(-1, 1)
        ) % machine_count
        # Per-source-fault target ids and trigger probabilities, padded.
        sources = len(cascade.targets)
        width = max(1, max(len(t) for t in cascade.targets))
        self._target_count = np.array(
            [len(t) for t in cascade.targets], dtype=np.int64
        )
        self._target_ids = np.zeros((sources, width), dtype=np.int64)
        self._target_probs = np.zeros((sources, width), dtype=np.float64)
        for fid, targets in enumerate(cascade.targets):
            self._target_ids[fid, : len(targets)] = targets
            self._target_probs[fid, : len(targets)] = cascade.matrix[
                fid, list(targets)
            ]
        #: Next natural arrival of each healthy machine; inf past the
        #: horizon.  Not read while the machine is down.
        self.natural = arrivals.copy()
        # Time each machine last recovered.  The gate fires an onset
        # only once no earlier induced onset can reach it, so an induced
        # onset never lands before its target's last onset; landing at
        # or before the last recovery's end, it landed while down.
        self._healthy_since = np.full(machine_count, -np.inf)
        # Earliest queued induced onset per machine, and the queues.
        self._first = np.full(machine_count, np.inf)
        self._queued: Dict[int, List[Tuple[float, int]]] = {}

    def gate(self, t_event: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Per machine, the latest onset time no induced onset can precede.

        ``bound`` is a sound lower bound on each machine's future
        onsets: the global minimum next-event time to start with, then
        ``min(next event, neighbours' bound + delay_low)``, because an
        induced onset lands at least ``delay_low`` after its source's
        onset.  A machine's onset at ``a`` fires once ``a`` is at most
        its neighbours' bound plus ``delay_low``.  The globally
        earliest onset always passes, so the loop cannot stall.
        """
        if not len(self._neighbours):
            return np.full(t_event.shape, np.inf)
        upcoming = np.where(phase == _PH_DONE, np.inf, t_event)
        bound = np.full(upcoming.shape, upcoming.min())
        for _ in range(self.GATE_ROUNDS):
            bound = np.minimum(
                upcoming,
                bound[self._neighbours].min(axis=0) + self._delay_low,
            )
        return bound[self._neighbours].min(axis=0) + self._delay_low

    def take(self, machines: np.ndarray) -> np.ndarray:
        """Fire the onsets of ``machines``: the induced fault id of each
        one an induced onset starts, -1 where the natural arrival fires.

        Either way the natural arrival is spent; the next one is drawn
        at the recovery's success (:meth:`recovered`).
        """
        faults = np.full(machines.size, -1, dtype=np.int64)
        induced = self._first[machines] < self.natural[machines]
        for pos in np.flatnonzero(induced).tolist():
            machine = int(machines[pos])
            queue = self._queued[machine]
            faults[pos] = heapq.heappop(queue)[1]
            self._first[machine] = queue[0][0] if queue else np.inf
        return faults

    def trigger(self, rand, sources, times, faults, t_event, phase) -> None:
        """Draw the cascade coins and delays of the onsets of ``faults``
        on ``sources`` at ``times``, and queue the onsets they induce."""
        slots = len(self._neighbours)
        if not slots:
            return  # a lone machine has no neighbours
        counts = self._target_count[faults]
        for count in np.unique(counts[counts > 0]).tolist():
            group = np.flatnonzero(counts == count)
            machines = sources[group]
            # Coin row k is neighbour slot k // count, target k % count.
            hit = rand.uniform_block(
                machines, ARRIVALS, slots * count
            ) < np.tile(self._target_probs[faults[group], :count].T, (slots, 1))
            rows, cols = np.nonzero(hit)
            if not rows.size:
                continue
            # Each source draws one delay per hit, in coin order.
            rank = (np.cumsum(hit, axis=0) - 1)[rows, cols]
            delays = np.empty(rows.size, dtype=np.float64)
            for r in range(int(rank.max()) + 1):
                at_rank = rank == r
                delays[at_rank] = range_from_uniform(
                    rand.uniform_wave(machines[cols[at_rank]], SYMPTOMS),
                    self._delay_low, self._delay_high,
                )
            self._queue(
                times[group][cols] + delays,
                self._neighbours[rows // count, machines[cols]],
                self._target_ids[faults[group][cols], rows % count],
                t_event, phase,
            )

    def _queue(self, when, targets, target_faults, t_event, phase) -> None:
        """Queue induced onsets, dropping those past the horizon or
        inside a recovery their target has already finished."""
        keep = (when <= self._duration) & (
            when > self._healthy_since[targets]
        )
        for at, machine, fault in zip(
            when[keep].tolist(),
            targets[keep].tolist(),
            target_faults[keep].tolist(),
        ):
            heapq.heappush(self._queued.setdefault(machine, []), (at, fault))
            if at < self._first[machine]:
                self._first[machine] = at
                if phase[machine] in (_PH_ONSET, _PH_DONE):  # healthy
                    t_event[machine] = min(at, self.natural[machine])
                    phase[machine] = _PH_ONSET

    def recovered(
        self, machines: np.ndarray, times: np.ndarray, arrivals: np.ndarray
    ) -> np.ndarray:
        """Next onset of ``machines`` healthy again at ``times``, whose
        next natural arrivals are ``arrivals`` (inf past the horizon).

        Queued induced onsets that landed during the recovery are
        dropped.
        """
        self.natural[machines] = arrivals
        self._healthy_since[machines] = times
        for pos in np.flatnonzero(self._first[machines] <= times).tolist():
            machine = int(machines[pos])
            queue = self._queued[machine]
            while queue and queue[0][0] <= times[pos]:
                heapq.heappop(queue)
            self._first[machine] = queue[0][0] if queue else np.inf
        return np.minimum(arrivals, self._first[machines])


@dataclass
class FleetResult:
    """Everything a fleet run produced, kept in flat arrays.

    The log is stored as parallel columns (``times``, machine indices,
    kind codes, description ids) and only materialized into
    :class:`~repro.recoverylog.log.RecoveryLog` entry objects on
    demand via :meth:`to_log` — at 10^5 machines the object
    materialization costs more than the simulation itself.

    Attributes
    ----------
    machine_count / machine_name_format:
        The fleet size and the format naming machine ``i`` in the log;
        :attr:`machine_names` formats the names on first use.
    descriptions:
        Dense description id -> symptom/action string.
    log_times / log_machines / log_kinds / log_descriptions:
        One row per log entry, in no particular order (sorted during
        :meth:`to_log`).
    proc_machines / proc_fault_times / proc_success_times / proc_fault_ids:
        One row per completed recovery process.
    step_procs / step_numbers / step_action_ids / step_costs /
    step_forced / step_source_ids / step_expected_costs / step_succeeded:
        One row per executed repair action, keyed by process row.
    step_sources:
        Dense source id -> decision provenance string.
    action_names:
        Action id -> name (catalog strength order).
    failure_counts / recovery_counts:
        Per-machine lifetime counters.
    draw_counts:
        The ``(machine, channel)`` RNG counter matrix after the run.
    """

    machine_count: int
    machine_name_format: str
    descriptions: Tuple[str, ...]
    log_times: np.ndarray
    log_machines: np.ndarray
    log_kinds: np.ndarray
    log_descriptions: np.ndarray
    proc_machines: np.ndarray
    proc_fault_times: np.ndarray
    proc_success_times: np.ndarray
    proc_fault_ids: np.ndarray
    step_procs: np.ndarray
    step_numbers: np.ndarray
    step_action_ids: np.ndarray
    step_costs: np.ndarray
    step_forced: np.ndarray
    step_source_ids: np.ndarray
    step_expected_costs: np.ndarray
    step_succeeded: np.ndarray
    step_sources: Tuple[str, ...]
    action_names: Tuple[str, ...]
    failure_counts: np.ndarray
    recovery_counts: np.ndarray
    draw_counts: np.ndarray

    @cached_property
    def machine_names(self) -> Tuple[str, ...]:
        """Dense machine index -> log machine name."""
        return tuple(
            self.machine_name_format.format(i)
            for i in range(self.machine_count)
        )

    @property
    def entry_count(self) -> int:
        return len(self.log_times)

    @property
    def process_count(self) -> int:
        return len(self.proc_machines)

    def to_log(self) -> RecoveryLog:
        """Materialize the flat columns into a sorted :class:`RecoveryLog`.

        Ordering follows :class:`~repro.recoverylog.entry.LogEntry`'s
        total order — ``(time, machine name, kind rank, description)``
        — so the result is byte-identical to what the event engine's
        incremental inserts produce.  Names and descriptions sort by
        their ranks in Python string order; the sorted columns become
        rows through :meth:`LogEntry.from_columns`, which checks each
        column once, and entries share one ``str`` per machine name and
        per description.
        """
        names = self.machine_names
        descs = self.descriptions
        order = np.lexsort((
            _string_ranks(descs)[self.log_descriptions],
            self.log_kinds,
            _string_ranks(names)[self.log_machines],
            self.log_times,
        ))
        return RecoveryLog(LogEntry.from_columns(
            self.log_times[order],
            self.log_machines[order],
            self.log_kinds[order],
            self.log_descriptions[order],
            machine_names=names,
            description_names=descs,
        ))

    def downtime_per_machine(self) -> np.ndarray:
        """Seconds each machine spent inside recovery processes."""
        downtime = np.zeros(self.machine_count, dtype=np.float64)
        np.add.at(
            downtime,
            self.proc_machines,
            self.proc_success_times - self.proc_fault_times,
        )
        return downtime

    def process_actions(self) -> List[Tuple[str, ...]]:
        """Executed action-name sequences, one per process row."""
        order = np.lexsort((self.step_numbers, self.step_procs))
        sequences: List[List[str]] = [[] for _ in range(self.process_count)]
        procs = self.step_procs[order]
        aids = self.step_action_ids[order]
        for proc, aid in zip(procs.tolist(), aids.tolist()):
            sequences[proc].append(self.action_names[aid])
        return [tuple(seq) for seq in sequences]

    def episode_traces(self) -> List[EpisodeTrace]:
        """One trace per process, in success-time order.

        The event engine emits traces at success events, i.e. in
        global success-time order; this reproduces that order (ties
        broken by machine index, which almost surely never fire under
        continuous delays).
        """
        step_order = np.lexsort((self.step_numbers, self.step_procs))
        steps_by_proc: List[List[StepTrace]] = [
            [] for _ in range(self.process_count)
        ]
        for i in step_order.tolist():
            proc = int(self.step_procs[i])
            expected = float(self.step_expected_costs[i])
            steps_by_proc[proc].append(
                StepTrace(
                    step=int(self.step_numbers[i]),
                    attempt_count=int(self.step_numbers[i]),
                    action=self.action_names[int(self.step_action_ids[i])],
                    source=self.step_sources[int(self.step_source_ids[i])],
                    forced=bool(self.step_forced[i]),
                    cost=float(self.step_costs[i]),
                    succeeded=bool(self.step_succeeded[i]),
                    matched_log=None,
                    expected_cost=None if np.isnan(expected) else expected,
                )
            )
        proc_order = np.lexsort((self.proc_machines, self.proc_success_times))
        traces = []
        for proc in proc_order.tolist():
            steps = tuple(steps_by_proc[proc])
            traces.append(
                EpisodeTrace(
                    origin="cluster",
                    error_type=self.descriptions[
                        int(self.proc_fault_ids[proc])
                    ],
                    initial_cost=0.0,
                    steps=steps,
                    handled=True,
                    forced_manual=any(s.forced for s in steps),
                )
            )
        return traces


class FleetEngine:
    """Wave-vectorized cluster simulation over flat machine arrays.

    Runs every fault model — drifting, heterogeneous and cascading
    scenarios included — and holds fleets of 10^5+ machines.

    Parameters
    ----------
    config:
        Cluster parameters.
    faults:
        Ground-truth fault model: a plain
        :class:`~repro.cluster.faults.FaultCatalog` (the stationary
        homogeneous case) or a
        :class:`~repro.scenario.model.ScenarioModel` adding catalog
        drift, machine classes and/or cascading faults.  Every epoch's
        catalog is validated against ``actions`` for cure-probability
        monotonicity.
    policy:
        The online recovery policy scheduling repair actions; it must
        be ``batch_safe``.
    actions:
        Action catalog; defaults to the paper's four actions.
    streams:
        Named RNG streams; pass the same seed for reproducible traces.
    episode_telemetry:
        Optional observer receiving one trace per completed recovery
        after the run, in success-time order.
    """

    def __init__(
        self,
        config: ClusterConfig,
        faults: FaultModel,
        policy: Policy,
        actions: Optional[ActionCatalog] = None,
        streams: Optional[RngStreams] = None,
        *,
        episode_telemetry: Optional[EpisodeTelemetry] = None,
    ) -> None:
        if not policy.batch_safe:
            raise ConfigurationError(
                f"policy {policy.name!r} declares batch_safe=False (its "
                "decisions consume internal RNG state, so they depend on "
                "global decision order); the cluster simulator decides "
                "in waves and cannot run it"
            )
        self.scenario = as_scenario_model(faults)
        self.config = config
        #: The epoch-0 catalog — the full fault roster (legacy surface).
        self.faults = self.scenario.base_catalog
        self.policy = policy
        self.actions = actions if actions is not None else default_catalog()
        # Validates every epoch against the action catalog; cure and
        # cost factors are read from these arrays, never re-derived.
        self.compiled: CompiledScenario = compile_scenario(
            self.scenario, self.actions
        )
        streams = streams if streams is not None else RngStreams()
        self._rand = MachineRandomSource(
            streams.root_entropy, config.machine_count
        )
        self._telemetry = episode_telemetry
        self._index = StateIndex(self.compiled.action_names)
        self._action_ids: Dict[str, int] = self.compiled.action_ids()
        self._forced_id = self._action_ids[self.actions.strongest.name]
        self._models = [a.cost_model for a in self.actions.by_strength()]
        # Per-machine class ids (deterministic contiguous blocks).
        self._class_ids = self.scenario.class_assignment(config.machine_count)

        # Description string interning.  Symptom tables carry one row per
        # machine class (class-decorated strings); with a single class
        # the row is the undecorated legacy table.
        self._desc_ids: Dict[str, int] = {}
        self._descs: List[str] = []
        C = self.compiled.class_count
        F = self.compiled.fault_count
        self._primary_desc = np.array(
            [
                [self._intern(s) for s in self.compiled.primary_symptoms[cid]]
                for cid in range(C)
            ],
            dtype=np.int64,
        )
        width = self.compiled.max_secondaries
        self._secondary_desc = np.full(
            (C, F, max(width, 1)), -1, dtype=np.int64
        )
        self._secondary_count = np.zeros(F, dtype=np.int64)
        for cid in range(C):
            for fid, symptoms in enumerate(self.compiled.secondary_symptoms[cid]):
                self._secondary_count[fid] = len(symptoms)
                for slot, symptom in enumerate(symptoms):
                    self._secondary_desc[cid, fid, slot] = self._intern(symptom)
        self._action_desc = np.array(
            [self._intern(n) for n in self.compiled.action_names],
            dtype=np.int64,
        )
        self._success_desc = self._intern(SUCCESS_DESCRIPTION)
        # Initial MDP state id per (class, fault): the error type is the
        # class-decorated primary symptom, so multi-class scenarios
        # train and serve per-(class, error type) policies naturally.
        self._initial_sid = np.array(
            [
                [
                    self._index.intern(RecoveryState.initial(s))
                    for s in self.compiled.primary_symptoms[cid]
                ]
                for cid in range(C)
            ],
            dtype=np.int64,
        )
        self._source_ids: Dict[str, int] = {}
        self._sources: List[str] = []

    def _intern(self, description: str) -> int:
        did = self._desc_ids.get(description)
        if did is None:
            did = len(self._descs)
            self._desc_ids[description] = did
            self._descs.append(description)
        return did

    def _intern_source(self, source: str) -> int:
        sid = self._source_ids.get(source)
        if sid is None:
            sid = len(self._sources)
            self._source_ids[source] = sid
            self._sources.append(source)
        return sid

    def _source_column(self, batch: DecisionBatch) -> np.ndarray:
        """Interned source ids per row of ``batch``.

        Sources are interned in the order their first row appears, as a
        row-by-row pass would, so ids do not depend on the vocabulary's
        order.
        """
        used, first_rows = np.unique(batch.source_ids, return_index=True)
        interned = np.zeros(len(batch.sources), dtype=np.int64)
        for vocabulary_id in used[np.argsort(first_rows)].tolist():
            interned[vocabulary_id] = self._intern_source(
                batch.sources[vocabulary_id]
            )
        return interned[batch.source_ids]

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Execute the wave loop to completion and return the result."""
        cfg = self.config
        com = self.compiled
        N = cfg.machine_count
        rand = self._rand

        phase = np.full(N, _PH_ONSET, dtype=np.int8)
        t_event = np.zeros(N, dtype=np.float64)
        # Epoch governing each machine's current recovery process —
        # resolved once at onset, like the event engine's per-process
        # epoch pin, so mid-process drift never changes the rules.
        cur_epoch = np.zeros(N, dtype=np.int64)
        fault_id = np.full(N, -1, dtype=np.int64)
        noise_id = np.full(N, -1, dtype=np.int64)
        main_open = np.zeros(N, dtype=bool)
        noise_open = np.zeros(N, dtype=bool)
        attempts = np.zeros(N, dtype=np.int64)
        state_sid = np.zeros(N, dtype=np.int64)
        action_id = np.zeros(N, dtype=np.int64)
        cur_proc = np.full(N, -1, dtype=np.int64)
        pending_cost = np.zeros(N, dtype=np.float64)
        pending_forced = np.zeros(N, dtype=bool)
        pending_source = np.zeros(N, dtype=np.int64)
        pending_expected = np.full(N, np.nan, dtype=np.float64)
        failure_counts = np.zeros(N, dtype=np.int64)
        recovery_counts = np.zeros(N, dtype=np.int64)

        log = _Columns("t", "m", "k", "d")
        candidates = _Columns("t", "m", "d")
        procs = _Columns("m", "t", "f")
        steps = _Columns("p", "n", "a", "c", "fo", "s", "e", "ok")
        success_scatter: List[Tuple[np.ndarray, np.ndarray]] = []
        next_proc = 0

        # Initial fault arrivals: one gap per machine from t=0.
        all_machines = np.arange(N, dtype=np.intp)
        gaps = exponential_from_uniform(
            rand.uniform_wave(all_machines, ARRIVALS),
            cfg.mean_time_between_failures,
        )
        t_event[:] = gaps
        phase[gaps > cfg.duration] = _PH_DONE
        # Without a cascade nothing is induced: no gate, no queue.
        cascades = None
        if com.cascade is not None:
            cascades = _Cascades(
                com.cascade,
                np.where(gaps > cfg.duration, np.inf, gaps),
                cfg.duration,
            )

        while True:
            onset = np.flatnonzero(phase == _PH_ONSET).astype(np.intp)
            if cascades is not None and onset.size:
                onset = onset[
                    t_event[onset] <= cascades.gate(t_event, phase)[onset]
                ]
            if onset.size:
                next_proc = self._onset_wave(
                    onset, t_event, phase, cur_epoch, fault_id, noise_id,
                    main_open, noise_open, attempts, state_sid, cur_proc,
                    failure_counts, log, candidates, procs, next_proc,
                    cascades,
                )
            decide = np.flatnonzero(phase == _PH_DECIDE).astype(np.intp)
            if decide.size:
                self._decide_wave(
                    decide, t_event, phase, cur_epoch, fault_id, attempts,
                    state_sid, action_id, pending_cost, pending_forced,
                    pending_source, pending_expected, log,
                )
            complete = np.flatnonzero(phase == _PH_COMPLETE).astype(np.intp)
            if complete.size:
                self._complete_wave(
                    complete, t_event, phase, cur_epoch, fault_id, noise_id,
                    main_open, noise_open, attempts, state_sid, action_id,
                    cur_proc, pending_cost, pending_forced, pending_source,
                    pending_expected, recovery_counts, log, candidates,
                    steps, success_scatter, cascades,
                )
            if not (onset.size or decide.size or complete.size):
                break

        proc_success = np.zeros(next_proc, dtype=np.float64)
        for pids, times in success_scatter:
            proc_success[pids] = times

        # Straggler candidates: emitted iff they fire inside one of the
        # machine's recovery intervals [fault, success) — exactly the
        # event engine's "machine not HEALTHY at fire time" check,
        # resolvable post-hoc because every interval is now closed.
        cand_t = candidates.column("t", np.float64)
        cand_m = candidates.column("m", np.int64)
        cand_d = candidates.column("d", np.int64)
        emitted = self._sweep_candidates(
            cand_t, cand_m,
            procs.column("t", np.float64),
            proc_success,
            procs.column("m", np.int64),
        )
        log.append(
            t=cand_t[emitted],
            m=cand_m[emitted],
            k=np.full(int(emitted.sum()), _KIND_SYMPTOM, dtype=np.int8),
            d=cand_d[emitted],
        )

        result = FleetResult(
            machine_count=N,
            machine_name_format=cfg.machine_name_format,
            descriptions=tuple(self._descs),
            log_times=log.column("t", np.float64),
            log_machines=log.column("m", np.int64),
            log_kinds=log.column("k", np.int8),
            log_descriptions=log.column("d", np.int64),
            proc_machines=procs.column("m", np.int64),
            proc_fault_times=procs.column("t", np.float64),
            proc_success_times=proc_success,
            proc_fault_ids=self._primary_desc[
                self._class_ids[procs.column("m", np.int64)],
                procs.column("f", np.int64),
            ] if next_proc else np.empty(0, dtype=np.int64),
            step_procs=steps.column("p", np.int64),
            step_numbers=steps.column("n", np.int64),
            step_action_ids=steps.column("a", np.int64),
            step_costs=steps.column("c", np.float64),
            step_forced=steps.column("fo", bool),
            step_source_ids=steps.column("s", np.int64),
            step_expected_costs=steps.column("e", np.float64),
            step_succeeded=steps.column("ok", bool),
            step_sources=tuple(self._sources),
            action_names=self.compiled.action_names,
            failure_counts=failure_counts,
            recovery_counts=recovery_counts,
            draw_counts=rand.draw_counts(),
        )
        if self._telemetry is not None:
            for trace in result.episode_traces():
                self._telemetry.on_episode(trace)
        return result

    # ------------------------------------------------------------------
    def _sample_faults(self, eids: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF fault sampling against each machine's epoch.

        The single-epoch path is the exact
        :meth:`~repro.cluster.faults.FaultCatalog.index_from_uniform`
        formula; multi-epoch runs apply the same formula per distinct
        epoch, so a stationary scenario stays bit-identical.
        """
        com = self.compiled
        last = com.fault_count - 1
        if com.epoch_count == 1:
            return np.minimum(
                np.searchsorted(com.cumulative[0], u, side="right"), last
            ).astype(np.int64)
        fids = np.empty(u.shape, dtype=np.int64)
        for eid in np.unique(eids).tolist():
            in_epoch = eids == eid
            fids[in_epoch] = np.minimum(
                np.searchsorted(
                    com.cumulative[eid], u[in_epoch], side="right"
                ),
                last,
            )
        return fids

    def _draw_faults(
        self, I: np.ndarray, eids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fault and overlapping noise fault (-1 for none) of each
        natural onset on ``I``, drawn from the arrivals channel."""
        fids = self._sample_faults(eids, self._rand.uniform_wave(I, ARRIVALS))
        nids = np.full(I.size, -1, dtype=np.int64)
        if self.compiled.fault_count > 1:
            coin = self._rand.uniform_wave(I, ARRIVALS)
            drawing = coin < self.config.noise_probability
            pending = I[drawing]
            pending_eid = eids[drawing]
            pending_fid = fids[drawing]
            pending_pos = np.flatnonzero(drawing)
            # Rejection loop: redraw while the overlap equals the main
            # fault, exactly as the event engine does per machine.
            while pending.size:
                draw = self._sample_faults(
                    pending_eid, self._rand.uniform_wave(pending, ARRIVALS)
                )
                ok = draw != pending_fid
                nids[pending_pos[ok]] = draw[ok]
                pending = pending[~ok]
                pending_eid = pending_eid[~ok]
                pending_fid = pending_fid[~ok]
                pending_pos = pending_pos[~ok]
        return fids, nids

    def _onset_wave(
        self, I, t_event, phase, cur_epoch, fault_id, noise_id, main_open,
        noise_open, attempts, state_sid, cur_proc, failure_counts, log,
        candidates, procs, next_proc, cascades,
    ) -> int:
        cfg = self.config
        com = self.compiled
        rand = self._rand
        t = t_event[I].copy()
        failure_counts[I] += 1

        # Epoch resolution at onset time: zero draws, same searchsorted
        # formula as the scalar ScenarioModel.epoch_at.
        if com.epoch_count == 1:
            eids = np.zeros(I.size, dtype=np.int64)
        else:
            eids = self.scenario.epochs_at(t)
        cur_epoch[I] = eids
        cls = self._class_ids[I]

        if cascades is None:
            fids, nids = self._draw_faults(I, eids)
        else:
            # An induced onset's fault is fixed by the coupling: it
            # draws no fault and no overlapping noise fault.
            fids = cascades.take(I)
            nids = np.full(I.size, -1, dtype=np.int64)
            natural = np.flatnonzero(fids < 0)
            if natural.size:
                fids[natural], nids[natural] = self._draw_faults(
                    I[natural], eids[natural]
                )

        fault_id[I] = fids
        noise_id[I] = nids
        main_open[I] = True
        noise_open[I] = nids >= 0
        attempts[I] = 0
        state_sid[I] = self._initial_sid[cls, fids]

        # Primary symptom (recorded synchronously; always the process's
        # detection trigger, since stragglers never precede it).
        log.append(
            t=t, m=I,
            k=np.full(I.size, _KIND_SYMPTOM, dtype=np.int8),
            d=self._primary_desc[cls, fids],
        )

        # Detection delay -> first decision time.
        if cfg.detection_delay_mean > 0:
            delay = exponential_from_uniform(
                rand.uniform_wave(I, DELAYS), cfg.detection_delay_mean
            )
        else:
            delay = np.zeros(I.size)
        t_event[I] = t + delay
        phase[I] = _PH_DECIDE

        # Main fault's secondary-symptom candidates, slot by slot so each
        # machine draws coin/offset pairs in list order.
        self._queue_secondaries(I, fids, eids, t, candidates)

        # Overlapping noise fault: its primary appears strictly after the
        # main primary; its secondaries hang off that offset time.
        noisy = np.flatnonzero(nids >= 0)
        if noisy.size:
            nm = I[noisy]
            offset = range_from_uniform(
                rand.uniform_wave(nm, SYMPTOMS),
                30.0, cfg.secondary_symptom_window,
            )
            noise_after = t[noisy] + offset
            candidates.append(
                t=noise_after, m=nm,
                d=self._primary_desc[cls[noisy], nids[noisy]],
            )
            self._queue_secondaries(
                nm, nids[noisy], eids[noisy], noise_after, candidates
            )

        # Cascade coins last: they follow every other draw of the onset.
        if cascades is not None:
            cascades.trigger(rand, I, t, fids, t_event, phase)

        pids = np.arange(next_proc, next_proc + I.size, dtype=np.int64)
        cur_proc[I] = pids
        procs.append(m=I, t=t, f=fids)
        return next_proc + I.size

    def _queue_secondaries(
        self, machines, fids, eids, after, candidates
    ) -> None:
        cfg = self.config
        rand = self._rand
        counts = self._secondary_count[fids]
        width = int(counts.max()) if counts.size else 0
        for slot in range(width):
            has = counts > slot
            sub = machines[has]
            coin = rand.uniform_wave(sub, SYMPTOMS)
            emit = coin < self.compiled.secondary_probability[
                eids[has], fids[has]
            ]
            em = sub[emit]
            if em.size:
                offset = range_from_uniform(
                    rand.uniform_wave(em, SYMPTOMS),
                    1.0, cfg.secondary_symptom_window,
                )
                candidates.append(
                    t=np.asarray(after)[has][emit] + offset,
                    m=em,
                    d=self._secondary_desc[
                        self._class_ids[em], fids[has][emit], slot
                    ],
                )

    # ------------------------------------------------------------------
    def _decide_wave(
        self, J, t_event, phase, cur_epoch, fault_id, attempts, state_sid,
        action_id, pending_cost, pending_forced, pending_source,
        pending_expected, log,
    ) -> None:
        cfg = self.config
        rand = self._rand
        t = t_event[J]

        # The N-cap rule, from its single source in session.core, once
        # per distinct attempt count in the wave.
        forced_name = self.actions.strongest.name
        counts = attempts[J]
        capped = [
            count
            for count in np.unique(counts).tolist()
            if forced_action(count, cfg.max_actions, forced_name) is not None
        ]
        forced_mask = np.isin(counts, capped)
        batch = decide_wave(
            self.policy,
            [self._index.state(sid) for sid in state_sid[J].tolist()],
            forced_mask,
            forced_name,
        )
        # Columns in, columns out: vocabulary entries map to catalog and
        # source ids once each, then one gather per column.  Misses and
        # names outside the catalog map to -1 (the trailing entry).
        catalog_ids = np.array(
            [self._action_ids.get(name, -1) for name in batch.actions] + [-1],
            dtype=np.int64,
        )
        aids = catalog_ids[np.where(batch.hit, batch.action_ids, -1)]
        bad = aids < 0
        if bad.any():
            outcome = batch[int(np.argmax(bad))]
            if isinstance(outcome, UnhandledStateError):
                # The online path must never swallow an unable policy —
                # same contract as the event engine.
                raise outcome
            # Unknown action name: surface the catalog's error.
            self.actions[outcome.action]
        sources = self._source_column(batch)
        expected = np.where(batch.estimated, batch.costs, np.nan)

        log.append(
            t=t, m=J,
            k=np.full(J.size, _KIND_ACTION, dtype=np.int8),
            d=self._action_desc[aids],
        )

        # Durations: one vectorized transform per action group; each
        # machine draws its own cost uniforms in sequence, so grouping
        # does not perturb per-machine draw order.
        durations = np.empty(J.size, dtype=np.float64)
        for aid in np.unique(aids).tolist():
            in_group = aids == aid
            model = self._models[aid]
            durations[in_group] = model.from_uniforms(
                rand.uniform_block(
                    J[in_group], COSTS_CHANNEL, model.uniform_count
                )
            )
        durations = durations * self.compiled.cost[
            cur_epoch[J], self._class_ids[J], fault_id[J]
        ]

        action_id[J] = aids
        pending_cost[J] = durations
        pending_forced[J] = forced_mask
        pending_source[J] = sources
        pending_expected[J] = expected
        t_event[J] = t + durations
        phase[J] = _PH_COMPLETE

    # ------------------------------------------------------------------
    def _complete_wave(
        self, K, t_event, phase, cur_epoch, fault_id, noise_id, main_open,
        noise_open, attempts, state_sid, action_id, cur_proc, pending_cost,
        pending_forced, pending_source, pending_expected, recovery_counts,
        log, candidates, steps, success_scatter, cascades,
    ) -> None:
        cfg = self.config
        com = self.compiled
        rand = self._rand
        t = t_event[K]

        # Cure checks, main fault first then the overlap — the same
        # per-machine order the event engine iterates its uncured list
        # in.  Cure probabilities come from the process's onset epoch
        # and the machine's class.
        sub = K[main_open[K]]
        if sub.size:
            u = rand.uniform_wave(sub, CURES)
            cured = u < com.cure[
                cur_epoch[sub], self._class_ids[sub],
                fault_id[sub], action_id[sub],
            ]
            main_open[sub] = ~cured
        subn = K[noise_open[K]]
        if subn.size:
            u = rand.uniform_wave(subn, CURES)
            cured = u < com.cure[
                cur_epoch[subn], self._class_ids[subn],
                noise_id[subn], action_id[subn],
            ]
            noise_open[subn] = ~cured

        succeeded = ~(main_open[K] | noise_open[K])
        step_no = attempts[K]
        attempts[K] += 1
        steps.append(
            p=cur_proc[K], n=step_no, a=action_id[K], c=pending_cost[K],
            fo=pending_forced[K], s=pending_source[K],
            e=pending_expected[K], ok=succeeded,
        )

        S = K[succeeded]
        if S.size:
            recovery_counts[S] += 1
            log.append(
                t=t[succeeded], m=S,
                k=np.full(S.size, _KIND_SUCCESS, dtype=np.int8),
                d=np.full(S.size, self._success_desc, dtype=np.int64),
            )
            success_scatter.append((cur_proc[S], t[succeeded]))
            gaps = exponential_from_uniform(
                rand.uniform_wave(S, ARRIVALS),
                cfg.mean_time_between_failures,
            )
            next_fault = t[succeeded] + gaps
            if cascades is not None:
                # The next onset may be an induced one instead.
                next_fault = cascades.recovered(
                    S, t[succeeded],
                    np.where(next_fault > cfg.duration, np.inf, next_fault),
                )
            beyond = next_fault > cfg.duration
            t_event[S] = next_fault
            phase[S] = np.where(beyond, _PH_DONE, _PH_ONSET)
            fault_id[S] = -1
            noise_id[S] = -1
            cur_proc[S] = -1

        R = K[~succeeded]
        if R.size:
            tr = t[~succeeded]
            # Symptom re-emission per still-open fault, [main, noise]
            # order within each machine.
            for open_flags, ids in (
                (main_open, fault_id),
                (noise_open, noise_id),
            ):
                openr = open_flags[R]
                subr = R[openr]
                if not subr.size:
                    continue
                coin = rand.uniform_wave(subr, SYMPTOMS)
                emit = coin < cfg.symptom_reemission_probability
                em = subr[emit]
                if em.size:
                    offset = range_from_uniform(
                        rand.uniform_wave(em, SYMPTOMS), 1.0, 120.0
                    )
                    candidates.append(
                        t=tr[openr][emit] + offset,
                        m=em,
                        d=self._primary_desc[self._class_ids[em], ids[em]],
                    )
            if cfg.decision_delay_mean > 0:
                delay = exponential_from_uniform(
                    rand.uniform_wave(R, DELAYS), cfg.decision_delay_mean
                )
            else:
                delay = np.zeros(R.size)
            # Failure continuations: map (state, action) -> successor id
            # once per distinct pair, then scatter — machines cluster on
            # few distinct recovery prefixes, so this stays cheap.
            A = len(com.action_names)
            pairs = state_sid[R] * A + action_id[R]
            unique_pairs, inverse = np.unique(pairs, return_inverse=True)
            successors = np.array(
                [
                    self._index.successor(int(p) // A, int(p) % A, False)
                    for p in unique_pairs.tolist()
                ],
                dtype=np.int64,
            )
            state_sid[R] = successors[inverse]
            t_event[R] = tr + delay
            phase[R] = _PH_DECIDE

    # ------------------------------------------------------------------
    @staticmethod
    def _sweep_candidates(
        cand_t: np.ndarray,
        cand_m: np.ndarray,
        start_t: np.ndarray,
        end_t: np.ndarray,
        interval_m: np.ndarray,
    ) -> np.ndarray:
        """Which candidates fall inside a ``[start, end)`` interval of
        their machine.

        One global sweep: order events by (machine, time, priority) with
        interval ends before candidates before interval starts at equal
        times (half-open semantics), then a running open-interval count.
        Every machine's starts and ends balance, so a single global
        cumulative sum is valid across machine boundaries.
        """
        if not cand_t.size:
            return np.zeros(0, dtype=bool)
        times = np.concatenate([end_t, cand_t, start_t])
        machines = np.concatenate([interval_m, cand_m, interval_m])
        priority = np.concatenate(
            [
                np.zeros(end_t.size, dtype=np.int8),
                np.ones(cand_t.size, dtype=np.int8),
                np.full(start_t.size, 2, dtype=np.int8),
            ]
        )
        delta = np.concatenate(
            [
                np.full(end_t.size, -1, dtype=np.int64),
                np.zeros(cand_t.size, dtype=np.int64),
                np.ones(start_t.size, dtype=np.int64),
            ]
        )
        order = np.lexsort((priority, times, machines))
        open_count = np.cumsum(delta[order])
        is_candidate = priority[order] == 1
        emitted_in_order = open_count[is_candidate] > 0
        # Un-permute back to candidate input order.
        candidate_positions = np.flatnonzero(is_candidate)
        original = order[candidate_positions] - end_t.size
        emitted = np.zeros(cand_t.size, dtype=bool)
        emitted[original] = emitted_in_order
        return emitted


def simulate_cluster(
    config: ClusterConfig,
    faults: FaultModel,
    policy: Policy,
    actions: Optional[ActionCatalog] = None,
    streams: Optional[RngStreams] = None,
    *,
    episode_telemetry: Optional[EpisodeTelemetry] = None,
) -> RecoveryLog:
    """Simulate the cluster on :class:`FleetEngine` and return its log.

    Every fault model runs, cascading scenarios included.  A policy
    with ``batch_safe = False`` cannot be decided in waves and is a
    :class:`~repro.errors.ConfigurationError`.
    """
    return FleetEngine(
        config, faults, policy, actions, streams,
        episode_telemetry=episode_telemetry,
    ).run().to_log()
