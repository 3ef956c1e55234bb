"""The cluster simulator: machines, faults and online recovery.

:class:`ClusterSimulator` wires the discrete-event engine to the Figure 1
framework: fault arrivals emit symptoms through the
:class:`~repro.cluster.monitor.EventMonitor`; the
:class:`~repro.cluster.detector.FaultDetector` notices new failures; a
recovery manager consults the active :class:`~repro.policies.base.Policy`
and applies repair actions until the machine reports healthy.  The run's
output is the recovery log — the only artifact the offline learning
pipeline is allowed to see.

This is the sequential event engine.  :func:`repro.cluster.simulate_cluster`
runs the vectorized :class:`~repro.cluster.fleet.FleetEngine` by default
and falls back to this simulator only for what waves cannot run —
cascading scenarios and ``batch_safe=False`` policies.  Both engines draw
from the same per-machine counter streams, so wherever both can run they
produce the same log bit for bit (``tests/test_fleet_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.actions.action import ActionCatalog, RepairAction, default_catalog
from repro.cluster.detector import FaultDetector
from repro.cluster.engine import SimulationEngine
from repro.cluster.faults import FaultType
from repro.cluster.machine import Machine, MachineState
from repro.cluster.monitor import EventMonitor
from repro.cluster.randomness import MachineRandomSource
from repro.errors import ConfigurationError
from repro.policies.base import Policy
from repro.recoverylog.log import RecoveryLog
from repro.scenario.compiled import compile_scenario
from repro.scenario.model import FaultModel, as_scenario_model
from repro.session.core import RecoverySession
from repro.session.trace import EpisodeTelemetry
from repro.util.rng import RngStreams
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = ["ClusterConfig", "ClusterSimulator"]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of a simulated cluster run.

    Attributes
    ----------
    machine_count:
        Number of servers.
    duration:
        Simulated horizon in seconds (fault arrivals stop after this; any
        in-flight recovery is allowed to finish so processes complete).
    mean_time_between_failures:
        Per-machine mean seconds between recovery completion and the next
        fault arrival (exponential).
    detection_delay_mean:
        Mean seconds from first symptom to failure detection.
    decision_delay_mean:
        Mean seconds from an observed action failure to issuing the next
        action (operator/automation latency).
    secondary_symptom_window:
        Secondary symptoms appear within this many seconds of the primary.
    symptom_reemission_probability:
        Chance the fault's symptoms recur after a failed repair action.
    noise_probability:
        Chance a second, overlapping fault strikes at the same time,
        producing the paper's "noisy" multi-error cases (Section 3.1
        filters these; they are ~3.33% of the real log).
    max_actions:
        The paper's ``N``: a recovery process is capped at this many
        actions, the last being forced to the manual repair.
    machine_name_format:
        ``str.format`` pattern for machine names.
    backend:
        Always ``"fleet"``; nothing reads it.
        :func:`repro.cluster.simulate_cluster` picks the engine from the
        policy and the fault model, and :class:`ClusterSimulator` is
        constructed directly when the event engine is wanted.
    """

    machine_count: int = 200
    duration: float = 180 * SECONDS_PER_DAY
    mean_time_between_failures: float = 7.5 * SECONDS_PER_DAY
    detection_delay_mean: float = 180.0
    decision_delay_mean: float = 300.0
    secondary_symptom_window: float = 900.0
    symptom_reemission_probability: float = 0.7
    noise_probability: float = 0.042
    max_actions: int = 20
    machine_name_format: str = "m-{:05d}"
    backend: str = "fleet"

    def __post_init__(self) -> None:
        check_positive("machine_count", self.machine_count)
        check_positive("duration", self.duration)
        check_positive(
            "mean_time_between_failures", self.mean_time_between_failures
        )
        check_non_negative("detection_delay_mean", self.detection_delay_mean)
        check_non_negative("decision_delay_mean", self.decision_delay_mean)
        check_positive("secondary_symptom_window", self.secondary_symptom_window)
        check_probability(
            "symptom_reemission_probability", self.symptom_reemission_probability
        )
        check_probability("noise_probability", self.noise_probability)
        if self.max_actions < 2:
            raise ConfigurationError(
                f"max_actions must be >= 2, got {self.max_actions}"
            )
        if self.backend != "fleet":
            raise ConfigurationError(
                f"backend must be 'fleet', got {self.backend!r}: "
                "simulate_cluster() falls back to ClusterSimulator by "
                "itself for cascading scenarios and batch_safe=False "
                "policies; construct ClusterSimulator directly to run "
                "the event engine"
            )


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
        self._rand = MachineRandomSource(
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
    def random_source(self) -> MachineRandomSource:
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
    # Cascading faults (event backend only)
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
