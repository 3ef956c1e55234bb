"""The event-driven cluster simulator, frozen as the fleet engine's reference.

:class:`ClusterSimulator` walks one global heap of timed events
(:class:`SimulationEngine`), one machine at a time: fault arrivals emit
symptoms through the :class:`EventMonitor`, the :class:`FaultDetector`
notices new failures, and a recovery session asks the policy for each
repair action.  Cascading scenarios induce onsets on ring neighbours
through the same heap.  It draws every value one at a time from the
per-machine counter streams through :class:`ScalarRandomSource`, the
scalar draw sites of :class:`~repro.cluster.randomness.MachineRandomSource`.

``repro.cluster`` simulates with :class:`~repro.cluster.fleet.FleetEngine`
alone.  This module keeps the event engine verbatim so the differential
tests can pin the wave engine against it bit for bit: logs, draw-count
matrices, lifetime counters and episode traces
(``tests/test_fleet_equivalence.py``, ``tests/test_scenario_equivalence.py``).
It also runs what waves cannot: ``batch_safe=False`` policies, whose
decisions depend on global decision order.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.actions.action import ActionCatalog, RepairAction, default_catalog
from repro.actions.costs import CostModel
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.cluster.randomness import (
    ARRIVALS,
    COSTS,
    CURES,
    DELAYS,
    SYMPTOMS,
    MachineRandomSource,
    exponential_from_uniform,
    range_from_uniform,
)
from repro.errors import ConfigurationError, SimulationError
from repro.policies.base import Policy
from repro.recoverylog.entry import LogEntry
from repro.recoverylog.log import RecoveryLog
from repro.scenario.compiled import compile_scenario
from repro.scenario.model import FaultModel, as_scenario_model
from repro.session.core import RecoverySession
from repro.session.trace import EpisodeTelemetry
from repro.util.rng import RngStreams

__all__ = [
    "SimulationEngine",
    "MachineState",
    "Machine",
    "EventMonitor",
    "FaultDetector",
    "ScalarRandomSource",
    "ClusterSimulator",
]


# ---------------------------------------------------------------------------
# The discrete-event engine
# ---------------------------------------------------------------------------
EventCallback = Callable[[], None]


class SimulationEngine:
    """An event queue with a virtual clock.

    Example::

        engine = SimulationEngine()
        engine.schedule_at(10.0, lambda: print(engine.now))
        engine.run()
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventCallback]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events waiting to fire."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    def schedule_at(self, time: float, callback: EventCallback) -> None:
        """Schedule ``callback`` at absolute ``time``.

        Scheduling in the past raises :class:`SimulationError` — such an
        event would silently reorder causality.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (clock is already at {self._now})"
            )
        heapq.heappush(self._heap, (time, self._sequence, callback))
        self._sequence += 1

    def schedule_after(self, delay: float, callback: EventCallback) -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.schedule_at(self._now + delay, callback)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Fire events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time (the event
            stays queued).  ``None`` runs until the queue drains.
        max_events:
            Safety valve against runaway event loops.

        Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("engine is already running (reentrant run())")
        self._running = True
        fired = 0
        try:
            while self._heap:
                time, _seq, callback = self._heap[0]
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible event loop"
                    )
                heapq.heappop(self._heap)
                self._now = time
                callback()
                fired += 1
                self._processed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return fired


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------
class MachineState(enum.Enum):
    """Lifecycle of a simulated machine."""

    HEALTHY = "healthy"
    FAILED = "failed"        # fault present, not yet detected
    RECOVERING = "recovering"  # repair actions in progress

    @property
    def code(self) -> int:
        """Dense integer code for flat status arrays (fleet backend)."""
        return _STATE_CODES[self]

    @classmethod
    def from_code(cls, code: int) -> "MachineState":
        """Inverse of :attr:`code`."""
        return _STATES_BY_CODE[code]


_STATE_CODES = {
    MachineState.HEALTHY: 0,
    MachineState.FAILED: 1,
    MachineState.RECOVERING: 2,
}
_STATES_BY_CODE = {code: state for state, code in _STATE_CODES.items()}


@dataclass
class Machine:
    """One simulated server.

    Attributes
    ----------
    name:
        Machine identifier as it appears in the log.
    state:
        Current lifecycle state.
    active_fault:
        Ground-truth fault currently affecting the machine, if any.
    noise_fault:
        A second, overlapping fault injected to create the paper's "noisy"
        (multi-error) cases, if any.
    actions_tried:
        Repair actions executed in the current recovery process.
    failure_count / recovery_count:
        Lifetime counters for reporting.
    """

    name: str
    state: MachineState = MachineState.HEALTHY
    active_fault: Optional[FaultType] = None
    noise_fault: Optional[FaultType] = None
    actions_tried: List[str] = field(default_factory=list)
    failure_count: int = 0
    recovery_count: int = 0
    #: Dense machine index used to address per-machine RNG channels;
    #: -1 for machines created outside a simulator.
    index: int = -1
    #: Machine-class id under the active scenario model (0 when the
    #: scenario is homogeneous).
    class_id: int = 0

    def fail(self, fault: FaultType, noise_fault: Optional[FaultType] = None) -> None:
        """Transition HEALTHY -> FAILED with the given ground-truth fault."""
        if self.state is not MachineState.HEALTHY:
            raise SimulationError(
                f"{self.name}: cannot fail while {self.state.value}"
            )
        self.state = MachineState.FAILED
        self.active_fault = fault
        self.noise_fault = noise_fault
        self.actions_tried = []
        self.failure_count += 1

    def begin_recovery(self) -> None:
        """Transition FAILED -> RECOVERING once the detector notices."""
        if self.state is not MachineState.FAILED:
            raise SimulationError(
                f"{self.name}: cannot begin recovery while {self.state.value}"
            )
        self.state = MachineState.RECOVERING

    def record_attempt(self, action_name: str) -> None:
        """Record a repair-action execution in the current process."""
        if self.state is not MachineState.RECOVERING:
            raise SimulationError(
                f"{self.name}: cannot repair while {self.state.value}"
            )
        self.actions_tried.append(action_name)

    def recover(self) -> None:
        """Transition RECOVERING -> HEALTHY after a curing action."""
        if self.state is not MachineState.RECOVERING:
            raise SimulationError(
                f"{self.name}: cannot recover while {self.state.value}"
            )
        self.state = MachineState.HEALTHY
        self.active_fault = None
        self.noise_fault = None
        self.actions_tried = []
        self.recovery_count += 1


# ---------------------------------------------------------------------------
# Event monitoring and fault detection (Figure 1)
# ---------------------------------------------------------------------------
EntryListener = Callable[[LogEntry], None]


class EventMonitor:
    """Collects log entries and notifies listeners (e.g. the fault detector).

    Example::

        monitor = EventMonitor()
        monitor.subscribe(detector.observe)
        monitor.record_symptom(12.0, "m-001", "error:Disk")
    """

    def __init__(self, log: Optional[RecoveryLog] = None) -> None:
        self._log = log if log is not None else RecoveryLog()
        self._listeners: List[EntryListener] = []

    @property
    def log(self) -> RecoveryLog:
        """The recovery log written so far."""
        return self._log

    def subscribe(self, listener: EntryListener) -> None:
        """Register a callback invoked for every recorded entry."""
        self._listeners.append(listener)

    def record(self, entry: LogEntry) -> None:
        """Append ``entry`` to the log and notify listeners."""
        self._log.append(entry)
        for listener in self._listeners:
            listener(entry)

    def record_symptom(self, time: float, machine: str, symptom: str) -> None:
        """Record an error-symptom entry."""
        self.record(LogEntry.symptom(time, machine, symptom))

    def record_action(self, time: float, machine: str, action_name: str) -> None:
        """Record a repair-action entry."""
        self.record(LogEntry.action(time, machine, action_name))

    def record_success(self, time: float, machine: str) -> None:
        """Record a successful-recovery report."""
        self.record(LogEntry.success(time, machine))


DetectionHandler = Callable[[str, str], None]
"""Callback ``(machine, initial_symptom)`` invoked on each new detection."""


class FaultDetector:
    """Turns raw symptom events into per-machine failure detections.

    Parameters
    ----------
    on_detection:
        Callback invoked (synchronously) when a new failure is detected.
    """

    def __init__(self, on_detection: Optional[DetectionHandler] = None) -> None:
        self._on_detection = on_detection
        self._in_recovery: Dict[str, str] = {}
        self._detections = 0

    @property
    def detections(self) -> int:
        """Total number of new failures detected."""
        return self._detections

    def set_handler(self, handler: DetectionHandler) -> None:
        """Install the detection callback (must be set before observing)."""
        self._on_detection = handler

    def active_symptom(self, machine: str) -> Optional[str]:
        """The initial symptom of ``machine``'s ongoing recovery, if any."""
        return self._in_recovery.get(machine)

    def observe(self, entry: LogEntry) -> None:
        """Feed one monitored entry to the detector."""
        if entry.is_symptom:
            if entry.machine not in self._in_recovery:
                if self._on_detection is None:
                    raise ConfigurationError(
                        "detector observed a symptom before a handler was set"
                    )
                self._in_recovery[entry.machine] = entry.description
                self._detections += 1
                self._on_detection(entry.machine, entry.description)
        elif entry.is_success:
            self._in_recovery.pop(entry.machine, None)


# ---------------------------------------------------------------------------
# Scalar draws: one per simulator draw site
# ---------------------------------------------------------------------------
class ScalarRandomSource(MachineRandomSource):
    """Per-machine counter streams drawn one value at a time.

    Each method is a one-element wave of
    :meth:`~repro.cluster.randomness.MachineRandomSource.uniform_wave`,
    which is what guarantees the event engine and the fleet engine
    read identical values.
    """

    def _uniform(self, machine: int, channel: int) -> float:
        return float(self.uniform_wave(np.array([machine]), channel)[0])

    def arrival_gap(self, machine: int, mean: float) -> float:
        """Exponential inter-arrival gap (arrivals channel)."""
        return float(
            exponential_from_uniform(self._uniform(machine, ARRIVALS), mean)
        )

    def fault_index(self, machine: int, catalog: FaultCatalog) -> int:
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

    def action_duration(self, machine: int, cost_model: CostModel) -> float:
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


# ---------------------------------------------------------------------------
# The event-driven cluster simulator
# ---------------------------------------------------------------------------
class ClusterSimulator:
    """Simulate a cluster under a recovery policy and produce its log.

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
        The online recovery policy scheduling repair actions.
    actions:
        Action catalog; defaults to the paper's four actions.
    streams:
        Named RNG streams; pass the same seed for reproducible traces.
    episode_telemetry:
        Optional :class:`~repro.session.trace.EpisodeTelemetry` observer
        receiving one trace per completed recovery (origin
        ``"cluster"``).  Purely observational — attaching it never
        changes the simulated log.
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
        self.config = config
        self.scenario = as_scenario_model(faults)
        #: The epoch-0 catalog — the full fault roster (legacy surface).
        self.faults = self.scenario.base_catalog
        self.policy = policy
        self.actions = actions if actions is not None else default_catalog()
        # Validates every epoch's monotonicity and resolves hypothesis-2
        # inheritance; both backends read cure/cost values from these
        # arrays, so per-class multipliers agree to the last bit.
        self._compiled = compile_scenario(self.scenario, self.actions)
        self._fault_ids = self._compiled.fault_ids()
        self._action_ids = self._compiled.action_ids()
        streams = streams if streams is not None else RngStreams()
        # Per-machine counter streams: each machine draws the values the
        # fleet engine's waves draw for it, so the two agree bit for bit.
        self._rand = ScalarRandomSource(
            streams.root_entropy, config.machine_count
        )

        self.engine = SimulationEngine()
        self.monitor = EventMonitor()
        self.detector = FaultDetector(self._on_detection)
        self.monitor.subscribe(self.detector.observe)
        class_ids = self.scenario.class_assignment(config.machine_count)
        self.machines: Dict[str, Machine] = {
            config.machine_name_format.format(i): Machine(
                config.machine_name_format.format(i),
                index=i,
                class_id=int(class_ids[i]),
            )
            for i in range(config.machine_count)
        }
        # Dense index -> machine, for cascade neighbor addressing.
        self._machine_list: List[Machine] = list(self.machines.values())
        # Which of a machine's overlapping faults remain uncured.
        self._uncured: Dict[str, List[FaultType]] = {}
        # Epoch governing each machine's open recovery process (set at
        # fault onset; rules cures and costs for the whole process).
        self._proc_epoch: Dict[str, int] = {}
        # Arrival generations: an induced (cascade) onset supersedes the
        # machine's pending natural arrival by bumping its generation,
        # so the stale event is dropped when it fires.  Without a
        # cascade the generation never changes and the guard is inert.
        self._arrival_generation: Dict[str, int] = {
            name: 0 for name in self.machines
        }
        self._cascade = self._compiled.cascade
        # One live recovery session per machine currently recovering:
        # the shared episode state machine decides (N-cap first, then
        # the policy) when an action starts and observes the outcome
        # when its completion event fires, possibly much later in
        # simulated time.
        self._sessions: Dict[str, RecoverySession] = {}
        self._episode_telemetry = episode_telemetry

    @property
    def random_source(self) -> ScalarRandomSource:
        """The per-machine random source (exposes the draw counters)."""
        return self._rand

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> RecoveryLog:
        """Execute the simulation and return the recovery log."""
        for machine in self.machines.values():
            self._schedule_next_fault(machine, from_time=0.0)
        # No `until`: arrivals beyond the horizon are simply not scheduled,
        # so the queue drains once in-flight recoveries finish.
        self.engine.run()
        return self.monitor.log

    # ------------------------------------------------------------------
    # Fault arrival and symptom emission
    # ------------------------------------------------------------------
    def _schedule_next_fault(self, machine: Machine, from_time: float) -> None:
        gap = self._rand.arrival_gap(
            machine.index, self.config.mean_time_between_failures
        )
        arrival = from_time + gap
        if arrival > self.config.duration:
            return
        generation = self._arrival_generation[machine.name]
        self.engine.schedule_at(
            arrival, lambda m=machine, g=generation: self._on_arrival(m, g)
        )

    def _on_arrival(self, machine: Machine, generation: int) -> None:
        """A natural fault arrival, unless a cascade superseded it."""
        if self._arrival_generation[machine.name] != generation:
            return
        self._on_fault(machine)

    def _on_fault(
        self, machine: Machine, induced_fault_id: Optional[int] = None
    ) -> None:
        now = self.engine.now
        # The onset epoch governs the whole recovery process: fault
        # sampling, cure probabilities, cost scales and secondary
        # emission all read this epoch's parameters.
        epoch = self.scenario.epoch_at(now)
        catalog = self.scenario.epochs[epoch].catalog
        noise_fault: Optional[FaultType] = None
        if induced_fault_id is None:
            fault = catalog.fault_types[
                self._rand.fault_index(machine.index, catalog)
            ]
            if (
                len(catalog) > 1
                and self._rand.noise_uniform(machine.index)
                < self.config.noise_probability
            ):
                while noise_fault is None or noise_fault.name == fault.name:
                    noise_fault = catalog.fault_types[
                        self._rand.fault_index(machine.index, catalog)
                    ]
        else:
            # Cascade-induced onsets are pure: the target fault is fixed
            # by the coupling, and no overlapping noise fault is drawn.
            fault = catalog.fault_types[induced_fault_id]
        machine.fail(fault, noise_fault)
        self._uncured[machine.name] = [fault] + (
            [noise_fault] if noise_fault is not None else []
        )
        self._proc_epoch[machine.name] = epoch
        self.monitor.record_symptom(
            now, machine.name, self._decorate(machine, fault.primary_symptom)
        )
        self._emit_secondary_symptoms(machine, fault, after=now)
        if noise_fault is not None:
            # The overlapping fault's symptoms appear strictly after the
            # primary, so the induced error type stays the main fault's.
            offset = self._rand.symptom_offset(
                machine.index, 30.0, self.config.secondary_symptom_window
            )
            symptom = self._decorate(machine, noise_fault.primary_symptom)
            self.engine.schedule_at(
                now + offset,
                lambda m=machine, s=symptom: self._emit_if_recovering(m, s),
            )
            self._emit_secondary_symptoms(machine, noise_fault, after=now + offset)
        if self._cascade is not None:
            self._trigger_cascade(machine, self._fault_ids[fault.name])

    def _decorate(self, machine: Machine, symptom: str) -> str:
        return self.scenario.decorate(symptom, machine.class_id)

    def _emit_secondary_symptoms(
        self, machine: Machine, fault: FaultType, after: float
    ) -> None:
        for symptom in fault.secondary_symptoms:
            if (
                self._rand.symptom_uniform(machine.index)
                < fault.secondary_probability
            ):
                offset = self._rand.symptom_offset(
                    machine.index, 1.0, self.config.secondary_symptom_window
                )
                decorated = self._decorate(machine, symptom)
                self.engine.schedule_at(
                    after + offset,
                    lambda m=machine, s=decorated: self._emit_if_recovering(
                        m, s
                    ),
                )

    # ------------------------------------------------------------------
    # Cascading faults
    # ------------------------------------------------------------------
    def _trigger_cascade(self, machine: Machine, fault_id: int) -> None:
        """Flip induced-onset coins for each (neighbor, target fault).

        Coins and delays draw from the *source* machine's channels, in
        the deterministic (distance, side, target) order, so a cascade
        run is reproducible.  Induced onsets re-enter :meth:`_on_fault`
        and may cascade further — a subcritical branching process by
        model validation.
        """
        cascade = self._cascade
        targets = cascade.targets[fault_id]
        if not targets:
            return
        count = self.config.machine_count
        now = self.engine.now
        seen = {machine.index}
        for distance in range(1, cascade.radius + 1):
            for neighbor_index in (
                (machine.index + distance) % count,
                (machine.index - distance) % count,
            ):
                if neighbor_index in seen:
                    continue  # small fleets: the ring wraps onto itself
                seen.add(neighbor_index)
                neighbor = self._machine_list[neighbor_index]
                for target in targets:
                    coin = self._rand.noise_uniform(machine.index)
                    if coin >= cascade.matrix[fault_id, target]:
                        continue
                    offset = self._rand.symptom_offset(
                        machine.index,
                        cascade.delay_low,
                        cascade.delay_high,
                    )
                    self.engine.schedule_at(
                        now + offset,
                        lambda n=neighbor, t=target: self._on_induced_fault(
                            n, t
                        ),
                    )

    def _on_induced_fault(self, machine: Machine, fault_id: int) -> None:
        """An induced onset fires — if the neighbor can still fail."""
        if machine.state is not MachineState.HEALTHY:
            return
        if self.engine.now > self.config.duration:
            return
        # Supersede the machine's pending natural arrival; the next one
        # is scheduled when this induced recovery completes.
        self._arrival_generation[machine.name] += 1
        self._on_fault(machine, induced_fault_id=fault_id)

    def _emit_if_recovering(self, machine: Machine, symptom: str) -> None:
        """Emit a symptom only while the error is still open."""
        if machine.state is not MachineState.HEALTHY:
            self.monitor.record_symptom(self.engine.now, machine.name, symptom)

    # ------------------------------------------------------------------
    # Detection and recovery
    # ------------------------------------------------------------------
    def _on_detection(self, machine_name: str, initial_symptom: str) -> None:
        machine = self.machines[machine_name]
        delay = self._sample_delay(machine, self.config.detection_delay_mean)
        self.engine.schedule_after(
            delay,
            lambda m=machine, s=initial_symptom: self._begin_recovery(m, s),
        )

    def _begin_recovery(self, machine: Machine, error_type: str) -> None:
        machine.begin_recovery()
        self._sessions[machine.name] = RecoverySession(
            error_type,
            self.policy,
            max_actions=self.config.max_actions,
            forced_action_name=self.actions.strongest.name,
            origin="cluster",
        )
        self._decide_and_act(machine)

    def _decide_and_act(self, machine: Machine) -> None:
        # The session enforces the paper's N-cap (manual repair on the
        # final slot) before consulting the policy; an
        # UnhandledStateError propagates, as the online path must never
        # swallow a policy that cannot act.
        session = self._sessions[machine.name]
        action = self.actions[session.next_action().action]
        now = self.engine.now
        machine.record_attempt(action.name)
        self.monitor.record_action(now, machine.name, action.name)
        fault = machine.active_fault
        if fault is not None:
            # One precompiled (epoch, class, fault) factor — the same
            # float64 value the fleet backend multiplies by.
            scale = float(
                self._compiled.cost[
                    self._proc_epoch[machine.name],
                    machine.class_id,
                    self._fault_ids[fault.name],
                ]
            )
        else:
            scale = 1.0
        duration = (
            self._rand.action_duration(machine.index, action.cost_model)
            * scale
        )
        self.engine.schedule_at(
            now + duration,
            lambda m=machine, a=action, d=duration: self._on_action_complete(
                m, a, d
            ),
        )

    def _on_action_complete(
        self, machine: Machine, action: RepairAction, duration: float
    ) -> None:
        epoch = self._proc_epoch[machine.name]
        action_id = self._action_ids[action.name]
        remaining = [
            fault
            for fault in self._uncured[machine.name]
            if self._rand.cure_uniform(machine.index)
            >= self._compiled.cure[
                epoch,
                machine.class_id,
                self._fault_ids[fault.name],
                action_id,
            ]
        ]
        self._uncured[machine.name] = remaining
        now = self.engine.now
        session = self._sessions[machine.name]
        session.record_outcome(duration, not remaining)
        if not remaining:
            if self._episode_telemetry is not None:
                self._episode_telemetry.on_episode(session.trace())
            del self._sessions[machine.name]
            self.monitor.record_success(now, machine.name)
            machine.recover()
            self._schedule_next_fault(machine, from_time=now)
            return
        # The error persists: symptoms may recur, then try again.
        for fault in remaining:
            if (
                self._rand.symptom_uniform(machine.index)
                < self.config.symptom_reemission_probability
            ):
                offset = self._rand.symptom_offset(machine.index, 1.0, 120.0)
                symptom = self._decorate(machine, fault.primary_symptom)
                self.engine.schedule_at(
                    now + offset,
                    lambda m=machine, s=symptom: self._emit_if_recovering(
                        m, s
                    ),
                )
        delay = self._sample_delay(machine, self.config.decision_delay_mean)
        self.engine.schedule_after(
            delay,
            lambda m=machine: self._decide_and_act(m),
        )

    def _sample_delay(self, machine: Machine, mean: float) -> float:
        if mean <= 0:
            return 0.0
        return self._rand.delay(machine.index, mean)
