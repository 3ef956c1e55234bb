"""Differential fuzzing: the fleet engine vs the event-driven reference.

The fleet engine's contract is *bit identity* with the event-driven
:class:`~reference_cluster.ClusterSimulator` kept in
``tests/reference_cluster.py`` — both draw from the per-machine counter
streams — same log entries (exact float times), same per-machine
downtime, same action sequences, same telemetry traces and same RNG
draw counters.  These tests pin that contract the way
``test_backend_equivalence`` pins the dict/array Q-table pair: generate
random cluster scenarios with hypothesis (machine counts, horizons,
fault catalogs, delay regimes, drift, machine classes, cascades, policy
families) and compare every observable of the two engines exactly.

Well over 300 scenarios run across this module's generators (120 in the
main sweep, 80 drifting or heterogeneous, 80 cascading, 40 per policy
family, plus deeper slow-lane sweeps).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_cluster import ClusterSimulator, MachineState
from repro.actions import REBOOT, RMA, TRYNOP, default_catalog
from repro.actions.action import ActionCatalog
from repro.actions.composite import compose_actions
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.cluster.fleet import FleetEngine, simulate_cluster
from repro.errors import ConfigurationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy
from repro.policies.hybrid import HybridPolicy
from repro.policies.static import AlwaysStrongestPolicy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.scenario.model import CascadeCoupling, ScenarioModel
from repro.scenario.presets import ScenarioSpec, build_scenario_model
from repro.session.trace import EpisodeTelemetry
from repro.util.rng import RngStreams

CATALOG = default_catalog()
DAY = 86_400.0

# Non-manual action names in strength order (cure probabilities must be
# monotone along this order).
_LADDER = [a.name for a in CATALOG.by_strength() if not a.manual]


class _TraceRecorder(EpisodeTelemetry):
    def __init__(self) -> None:
        self.traces = []

    def on_episode(self, trace) -> None:
        self.traces.append(trace)


# ---------------------------------------------------------------------------
# Scenario strategies
# ---------------------------------------------------------------------------
@st.composite
def fault_catalogs(draw) -> FaultCatalog:
    fault_count = draw(st.integers(1, 4))
    faults = []
    for fid in range(fault_count):
        # Monotone-in-strength cure probabilities via running max over
        # per-rung draws; a rung may be omitted (inherits hypothesis 2).
        cures = {}
        running = 0.0
        for name in _LADDER:
            running = max(
                running, draw(st.floats(0.0, 1.0, allow_nan=False))
            )
            if draw(st.booleans()):
                cures[name] = round(running, 6)
        secondary_count = draw(st.integers(0, 3))
        faults.append(
            FaultType(
                name=f"fault-{fid}",
                primary_symptom=f"error:F{fid}",
                secondary_symptoms=tuple(
                    f"warn:F{fid}s{k}" for k in range(secondary_count)
                ),
                secondary_probability=draw(
                    st.floats(0.0, 1.0, allow_nan=False)
                ),
                cure_probabilities=cures,
                weight=draw(
                    st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
                ),
                cost_scale=draw(st.floats(0.2, 3.0, allow_nan=False)),
            )
        )
    return FaultCatalog(faults)


def scenario_trained_chain(draw, scenario: ScenarioModel, max_actions: int):
    """A trained policy whose rule chains cover every *class-decorated*
    error symptom — the per-(class, type) analogue of
    :func:`trained_chain_policy`."""
    action_names = [a.name for a in CATALOG.by_strength()]
    rules = {}
    for class_id in range(scenario.class_count):
        for fault in scenario.base_catalog:
            symptom = scenario.decorate(fault.primary_symptom, class_id)
            tried = ()
            for _step in range(max_actions - 1):
                action = draw(st.sampled_from(action_names))
                cost = draw(st.floats(1.0, 1e5, allow_nan=False))
                rules[RecoveryState(symptom, False, tried)] = (action, cost)
                tried = tried + (action,)
    return TrainedPolicy(rules)


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """Non-trivial drift / machine-class specs (no cascade; see
    :func:`cascading_models_for`)."""
    epochs = draw(st.integers(1, 3))
    classes = draw(st.integers(1, 3))
    if epochs == 1 and classes == 1:
        classes = 2  # keep the spec non-trivial
    return ScenarioSpec(
        drift_epochs=epochs,
        drift_strength=draw(st.floats(0.1, 1.5, allow_nan=False)),
        machine_classes=classes,
        class_cost_spread=draw(st.floats(0.0, 0.9, allow_nan=False)),
        class_cure_spread=draw(st.floats(0.0, 0.6, allow_nan=False)),
    )


@st.composite
def scenario_models_for(draw, catalog, duration) -> ScenarioModel:
    return build_scenario_model(
        catalog,
        draw(scenario_specs()),
        duration=duration,
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def cascade_couplings(draw, catalog) -> CascadeCoupling:
    """Random subcritical couplings: radius 1-3, a delay window that may
    start at 0, and one or more targets per source fault."""
    radius = draw(st.integers(1, 3))
    low = draw(st.one_of(st.just(0.0), st.floats(1.0, 600.0)))
    strength = draw(st.floats(0.3, 0.95))
    per_pair = strength / (2 * radius * len(catalog))
    names = [fault.name for fault in catalog]
    return CascadeCoupling(
        triggers={
            source: dict.fromkeys(
                draw(st.lists(st.sampled_from(names), min_size=1, unique=True)),
                per_pair,
            )
            for source in names
        },
        radius=radius,
        delay_low=low,
        delay_high=low + draw(st.floats(1.0, 7200.0)),
    )


@st.composite
def cascading_models_for(draw, catalog, duration) -> ScenarioModel:
    """A cascade over a stationary catalog, or over drift and classes."""
    base = (
        draw(scenario_models_for(catalog, duration))
        if draw(st.booleans())
        else ScenarioModel.stationary(catalog)
    )
    return ScenarioModel(
        base.epochs, base.classes, draw(cascade_couplings(catalog))
    )


@st.composite
def cluster_configs(draw, **overrides) -> dict:
    params = dict(
        machine_count=draw(st.integers(1, 8)),
        duration=draw(st.floats(5.0, 20.0)) * DAY,
        mean_time_between_failures=draw(st.floats(1.0, 4.0)) * DAY,
        detection_delay_mean=draw(
            st.sampled_from([0.0, 60.0, 300.0, 900.0])
        ),
        decision_delay_mean=draw(
            st.sampled_from([0.0, 60.0, 300.0, 900.0])
        ),
        secondary_symptom_window=draw(st.floats(100.0, 1500.0)),
        symptom_reemission_probability=draw(
            st.floats(0.0, 1.0, allow_nan=False)
        ),
        noise_probability=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5])),
        max_actions=draw(st.integers(2, 6)),
    )
    params.update(overrides)
    return params


def trained_chain_policy(draw, faults: FaultCatalog, max_actions: int):
    """A trained policy with complete rules along its own decision chain.

    A deterministic rule table only ever visits the states its own
    choices produce, so covering the single chain per error type (up to
    the cap's last free slot) makes the policy proper for these runs.
    """
    action_names = [a.name for a in CATALOG.by_strength()]
    rules = {}
    for fault in faults:
        tried = ()
        for _step in range(max_actions - 1):
            action = draw(st.sampled_from(action_names))
            cost = draw(st.floats(1.0, 1e5, allow_nan=False))
            rules[
                RecoveryState(fault.primary_symptom, False, tried)
            ] = (action, cost)
            tried = tried + (action,)
    return TrainedPolicy(rules)


@st.composite
def policies(draw, faults: FaultCatalog, max_actions: int) -> Policy:
    family = draw(
        st.sampled_from(["user", "user-budgets", "strongest", "trained", "hybrid"])
    )
    if family == "user":
        return UserDefinedPolicy(CATALOG)
    if family == "user-budgets":
        budgets = {
            name: draw(st.integers(0, 3))
            for name in _LADDER
            if draw(st.booleans())
        }
        return UserDefinedPolicy(CATALOG, retry_budgets=budgets)
    if family == "strongest":
        return AlwaysStrongestPolicy(CATALOG)
    if family == "trained":
        return trained_chain_policy(draw, faults, max_actions)
    # Hybrid: the trained member keeps only a truncated rule chain, so
    # deeper states revert to the user-defined fallback mid-episode.
    full = trained_chain_policy(draw, faults, max_actions)
    keep = draw(st.integers(0, max_actions - 1))
    truncated = {
        state: rule
        for state, rule in full.rules.items()
        if state.attempt_count < keep
    }
    return HybridPolicy(TrainedPolicy(truncated), UserDefinedPolicy(CATALOG))


@st.composite
def scenario_policies(draw, scenario: ScenarioModel, max_actions: int):
    """User-defined, strongest, trained or hybrid, with trained rules
    over the scenario's class-decorated error types."""
    family = draw(st.sampled_from(["user", "strongest", "trained", "hybrid"]))
    if family == "user":
        return UserDefinedPolicy(CATALOG)
    if family == "strongest":
        return AlwaysStrongestPolicy(CATALOG)
    trained = scenario_trained_chain(draw, scenario, max_actions)
    if family == "trained":
        return trained
    return HybridPolicy(trained, UserDefinedPolicy(CATALOG))


# ---------------------------------------------------------------------------
# The differential core
# ---------------------------------------------------------------------------
def run_both(
    params, faults, policy_builder, seed, actions=CATALOG,
    reference=ClusterSimulator,
):
    """Run the event engine and the fleet engine on one scenario."""
    config = ClusterConfig(**params)
    event_rec, fleet_rec = _TraceRecorder(), _TraceRecorder()
    simulator = reference(
        config,
        faults,
        policy_builder(),
        actions,
        RngStreams(seed),
        episode_telemetry=event_rec,
    )
    event_log = simulator.run()
    engine = FleetEngine(
        config,
        faults,
        policy_builder(),
        actions,
        RngStreams(seed),
        episode_telemetry=fleet_rec,
    )
    result = engine.run()
    return simulator, event_log, event_rec, result, fleet_rec


def assert_equivalent(simulator, event_log, event_rec, result, fleet_rec):
    fleet_log = result.to_log()
    # Bit-exact log identity: same entries, same float times, same order.
    assert fleet_log == event_log
    # Same RNG consumption per (machine, channel).
    assert np.array_equal(
        simulator.random_source.draw_counts(), result.draw_counts
    )
    # Same per-machine lifetime counters.
    names = [
        simulator.config.machine_name_format.format(i)
        for i in range(simulator.config.machine_count)
    ]
    assert np.array_equal(
        result.failure_counts,
        np.array([simulator.machines[n].failure_count for n in names]),
    )
    assert np.array_equal(
        result.recovery_counts,
        np.array([simulator.machines[n].recovery_count for n in names]),
    )
    # Same per-machine downtime and per-process action sequences, via
    # the flat-array accessors (not just via to_log).
    processes = event_log.to_processes()
    downtime = dict.fromkeys(names, 0.0)
    for process in processes:
        downtime[process.machine] += (
            process.entries[-1].time - process.entries[0].time
        )
    fleet_downtime = result.downtime_per_machine()
    for i, name in enumerate(names):
        assert fleet_downtime[i] == downtime[name]
    expected_sequences = sorted(
        (p.machine, p.entries[0].time, tuple(e.description for e in p.entries if e.is_action))
        for p in processes
    )
    fleet_sequences = sorted(
        zip(
            (names[m] for m in result.proc_machines),
            result.proc_fault_times,
            result.process_actions(),
        )
    )
    assert fleet_sequences == expected_sequences
    # Same telemetry traces, in the same order.
    assert fleet_rec.traces == event_rec.traces


# ---------------------------------------------------------------------------
# Fuzz sweeps
# ---------------------------------------------------------------------------
class TestFuzzEquivalence:
    @given(data=st.data())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_scenarios(self, data):
        """Main sweep: random configs, catalogs, policies and seeds."""
        params = data.draw(cluster_configs())
        faults = data.draw(fault_catalogs())
        policy_spec = data.draw(policies(faults, params["max_actions"]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        # Build fresh, independent policy instances per backend (hybrid
        # policies carry fallback counters; sharing one would couple the
        # runs).
        outputs = run_both(
            params, faults, lambda: copy.deepcopy(policy_spec), seed
        )
        assert_equivalent(*outputs)

    @given(data=st.data())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drift_and_class_scenarios(self, data):
        """Scenario-model sweep: drifting epochs and heterogeneous
        machine classes must stay bit-identical across backends."""
        params = data.draw(cluster_configs())
        catalog = data.draw(fault_catalogs())
        scenario = data.draw(
            scenario_models_for(catalog, params["duration"])
        )
        policy_spec = data.draw(
            scenario_policies(scenario, params["max_actions"])
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        outputs = run_both(
            params, scenario, lambda: copy.deepcopy(policy_spec), seed
        )
        assert_equivalent(*outputs)

    @given(data=st.data())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cascading_scenarios(self, data):
        """Cascade sweep: induced onsets couple ring neighbours (1-8
        machines, so small rings wrap onto themselves), and the gated
        onset waves must still reproduce the event order bit for bit."""
        params = data.draw(cluster_configs())
        catalog = data.draw(fault_catalogs())
        scenario = data.draw(
            cascading_models_for(catalog, params["duration"])
        )
        policy_spec = data.draw(
            scenario_policies(scenario, params["max_actions"])
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        outputs = run_both(
            params, scenario, lambda: copy.deepcopy(policy_spec), seed
        )
        assert_equivalent(*outputs)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_trained_policy_scenarios(self, data):
        """Trained rule tables exercise forced-cap and batch decide paths."""
        params = data.draw(cluster_configs(noise_probability=0.3))
        faults = data.draw(fault_catalogs())
        policy = trained_chain_policy(data.draw, faults, params["max_actions"])
        seed = data.draw(st.integers(0, 2**16))
        outputs = run_both(params, faults, lambda: policy, seed)
        assert_equivalent(*outputs)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_zero_delay_scenarios(self, data):
        """Zero delays collapse symptom/action/success onto shared
        timestamps — the regime that exercises the log's causal
        tie-break ordering."""
        params = data.draw(
            cluster_configs(
                detection_delay_mean=0.0, decision_delay_mean=0.0
            )
        )
        faults = data.draw(fault_catalogs())
        seed = data.draw(st.integers(0, 2**16))
        outputs = run_both(
            params, faults, lambda: UserDefinedPolicy(CATALOG), seed
        )
        assert_equivalent(*outputs)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.slow
    def test_deep_scenarios(self, data):
        """Slow lane: larger fleets and longer horizons."""
        params = data.draw(cluster_configs())
        params["machine_count"] = data.draw(st.integers(20, 60))
        params["duration"] = data.draw(st.floats(20.0, 60.0)) * DAY
        faults = data.draw(fault_catalogs())
        policy_spec = data.draw(policies(faults, params["max_actions"]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        outputs = run_both(
            params, faults, lambda: copy.deepcopy(policy_spec), seed
        )
        assert_equivalent(*outputs)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    @pytest.mark.slow
    def test_deep_cascading_scenarios(self, data):
        """Slow lane: cascades over larger rings and longer horizons."""
        params = data.draw(cluster_configs())
        params["machine_count"] = data.draw(st.integers(20, 60))
        params["duration"] = data.draw(st.floats(20.0, 60.0)) * DAY
        catalog = data.draw(fault_catalogs())
        scenario = data.draw(
            cascading_models_for(catalog, params["duration"])
        )
        policy_spec = data.draw(
            scenario_policies(scenario, params["max_actions"])
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        outputs = run_both(
            params, scenario, lambda: copy.deepcopy(policy_spec), seed
        )
        assert_equivalent(*outputs)


# ---------------------------------------------------------------------------
# Directed edges
# ---------------------------------------------------------------------------
def simple_faults():
    return FaultCatalog(
        [
            FaultType(
                name="transient",
                primary_symptom="error:Transient",
                cure_probabilities={"TRYNOP": 0.7, "REBOOT": 0.95},
                weight=3.0,
            ),
            FaultType(
                name="hard",
                primary_symptom="error:Hard",
                secondary_symptoms=("warn:Side",),
                cure_probabilities={"REIMAGE": 0.95},
                weight=1.0,
            ),
        ]
    )


def small_params(**overrides):
    params = dict(
        machine_count=10,
        duration=30 * DAY,
        mean_time_between_failures=3 * DAY,
        noise_probability=0.3,
    )
    params.update(overrides)
    return params


class TestDirectedEquivalence:
    def test_single_machine_fleet(self):
        outputs = run_both(
            small_params(machine_count=1),
            simple_faults(),
            lambda: UserDefinedPolicy(CATALOG),
            seed=11,
        )
        assert_equivalent(*outputs)

    def test_single_fault_catalog_skips_noise_coin(self):
        faults = FaultCatalog(
            [
                FaultType(
                    name="only",
                    primary_symptom="error:Only",
                    cure_probabilities={"REBOOT": 0.8},
                )
            ]
        )
        outputs = run_both(
            small_params(noise_probability=0.5),
            faults,
            lambda: UserDefinedPolicy(CATALOG),
            seed=21,
        )
        assert_equivalent(*outputs)

    def test_tight_action_cap(self):
        outputs = run_both(
            small_params(max_actions=2),
            simple_faults(),
            lambda: UserDefinedPolicy(CATALOG),
            seed=31,
        )
        assert_equivalent(*outputs)

    def test_always_reemitting_symptoms(self):
        outputs = run_both(
            small_params(symptom_reemission_probability=1.0),
            simple_faults(),
            lambda: AlwaysStrongestPolicy(CATALOG),
            seed=41,
        )
        assert_equivalent(*outputs)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_composite_action_catalog(self, seed):
        """A composite's summed cost draws one uniform pair per
        component; both engines must draw them identically."""
        actions = ActionCatalog(
            [
                TRYNOP,
                REBOOT,
                compose_actions("REBOOT+FSCK", [TRYNOP, REBOOT], strength=2),
                RMA,
            ]
        )
        faults = FaultCatalog(
            [
                FaultType(
                    name="fsck-needing",
                    primary_symptom="error:Fs",
                    secondary_symptoms=("warn:Fs",),
                    cure_probabilities={"REBOOT": 0.1, "REBOOT+FSCK": 0.9},
                    weight=3.0,
                ),
                FaultType(
                    name="transient",
                    primary_symptom="error:Transient",
                    cure_probabilities={"TRYNOP": 0.6, "REBOOT": 0.9},
                ),
            ]
        )
        outputs = run_both(
            small_params(machine_count=30),
            faults,
            lambda: UserDefinedPolicy(actions),
            seed,
            actions=actions,
        )
        assert_equivalent(*outputs)
        composite_attempts = sum(
            entry.description == "REBOOT+FSCK"
            for entry in outputs[1].entries
        )
        assert composite_attempts > 100

    def test_machine_names_formatted_on_first_use(self):
        """Only the log needs machine names; a run formats none."""
        config = ClusterConfig(backend="fleet", **small_params())
        result = FleetEngine(
            config, simple_faults(), UserDefinedPolicy(CATALOG), CATALOG,
            RngStreams(3),
        ).run()
        assert "machine_names" not in vars(result)
        assert result.downtime_per_machine().shape == (config.machine_count,)
        assert "machine_names" not in vars(result)
        machines = {entry.machine for entry in result.to_log().entries}
        assert result.machine_names == tuple(
            config.machine_name_format.format(i)
            for i in range(config.machine_count)
        )
        assert machines <= set(result.machine_names)

    def test_both_backends_raise_on_unhandled_state(self):
        """An improper policy aborts both backends with the same error
        type — the online path must never swallow it."""
        empty = TrainedPolicy({})
        params = small_params(noise_probability=0.0)
        with pytest.raises(UnhandledStateError):
            ClusterSimulator(
                ClusterConfig(**params),
                simple_faults(),
                empty,
                CATALOG,
                RngStreams(5),
            ).run()
        with pytest.raises(UnhandledStateError):
            FleetEngine(
                ClusterConfig(backend="fleet", **params),
                simple_faults(),
                empty,
                CATALOG,
                RngStreams(5),
            ).run()


class _InducedOnsetCounter(ClusterSimulator):
    """The reference, counting what happens to induced onsets: dropped
    because the target is down, or reviving a machine whose natural
    arrivals ended past the horizon."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.dropped_while_down = 0
        self.revived = 0
        self._arrival_pending = {}

    def _schedule_next_fault(self, machine, from_time):
        queued = self.engine.pending
        super()._schedule_next_fault(machine, from_time)
        self._arrival_pending[machine.name] = self.engine.pending > queued

    def _on_induced_fault(self, machine, fault_id):
        if self.engine.now <= self.config.duration:
            if machine.state is not MachineState.HEALTHY:
                self.dropped_while_down += 1
            elif not self._arrival_pending[machine.name]:
                self.revived += 1
        super()._on_induced_fault(machine, fault_id)


def _directed_cascade(catalog, radius=1, **delays) -> ScenarioModel:
    """Every fault induces every fault, at just under critical."""
    per_pair = 0.99 / (2 * radius * len(catalog))
    names = [fault.name for fault in catalog]
    return ScenarioModel.stationary(
        catalog,
        cascade=CascadeCoupling(
            triggers={s: {t: per_pair for t in names} for s in names},
            radius=radius,
            **delays,
        ),
    )


class TestDirectedCascades:
    def test_induced_onset_during_recovery_is_dropped(self):
        """A target that is down when its induced onset lands keeps its
        recovery: the onset is dropped, and no draw is made for it.
        Short cascade delays and slow cures make that the common case
        (an induced onset often cascades straight back onto its
        still-recovering source)."""
        stubborn = FaultCatalog(
            [
                FaultType(
                    name="stubborn",
                    primary_symptom="error:Stubborn",
                    cure_probabilities={"TRYNOP": 0.1, "REBOOT": 0.2},
                )
            ]
        )
        outputs = run_both(
            small_params(machine_count=3, noise_probability=0.0),
            _directed_cascade(stubborn, delay_low=0.0, delay_high=120.0),
            lambda: UserDefinedPolicy(CATALOG),
            seed=7,
            reference=_InducedOnsetCounter,
        )
        assert outputs[0].dropped_while_down > 0
        assert_equivalent(*outputs)

    def test_induced_onset_revives_machine_past_its_arrivals(self):
        """A machine whose next natural arrival fell past the horizon
        (it would stay healthy to the end) still fails when a
        neighbour's onset induces one before the horizon."""
        outputs = run_both(
            small_params(
                machine_count=8,
                duration=10 * DAY,
                mean_time_between_failures=60 * DAY,
            ),
            _directed_cascade(simple_faults(), radius=2, delay_low=600.0),
            lambda: UserDefinedPolicy(CATALOG),
            seed=2,
            reference=_InducedOnsetCounter,
        )
        assert outputs[0].revived > 0
        assert_equivalent(*outputs)

    @pytest.mark.parametrize("machines", [1, 2, 3, 5])
    def test_ring_wraps_onto_itself(self, machines):
        """With 2 * radius >= machine count the ring wraps: each
        neighbour draws its coins once, and a lone machine none."""
        outputs = run_both(
            small_params(machine_count=machines),
            _directed_cascade(simple_faults(), radius=3, delay_low=0.0,
                              delay_high=900.0),
            lambda: UserDefinedPolicy(CATALOG),
            seed=machines,
        )
        assert_equivalent(*outputs)


class TestBackendSelection:
    def test_fleet_rejects_stream_discipline(self):
        """One RNG discipline: the knob that chose another is gone."""
        with pytest.raises(TypeError):
            ClusterConfig(rng_discipline="stream")

    def test_fleet_engine_rejects_stream_config(self):
        """The fleet is the only engine, and the error says so."""
        assert ClusterConfig().backend == "fleet"
        with pytest.raises(ConfigurationError, match="one engine"):
            ClusterConfig(**small_params(), backend="event")

    def test_factory_dispatches_identically(self):
        params = small_params()
        via_event = ClusterSimulator(
            ClusterConfig(**params),
            simple_faults(),
            UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(17),
        ).run()
        via_factory = simulate_cluster(
            ClusterConfig(**params),
            simple_faults(),
            UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(17),
        )
        assert via_event == via_factory

    def test_factory_rejects_batch_unsafe_policy(self):
        """batch_safe=False policies cannot be decided in waves, and
        the cluster simulator has no sequential engine to fall back to."""

        class StatefulPolicy(UserDefinedPolicy):
            batch_safe = False

        with pytest.raises(ConfigurationError, match="batch_safe=False"):
            simulate_cluster(
                ClusterConfig(**small_params()),
                simple_faults(),
                StatefulPolicy(CATALOG),
                CATALOG,
                RngStreams(23),
            )

    def test_fleet_engine_rejects_batch_unsafe_policy(self):
        class StatefulPolicy(UserDefinedPolicy):
            batch_safe = False

        with pytest.raises(ConfigurationError):
            FleetEngine(
                ClusterConfig(backend="fleet", **small_params()),
                simple_faults(),
                StatefulPolicy(CATALOG),
                CATALOG,
            )


class TestFullScale:
    @pytest.mark.slow
    def test_hundred_thousand_machine_fleet(self):
        """The fleet engine holds 10^5 machines (the committed
        BENCH_fleet_scale.json scale) and its aggregates stay
        self-consistent at that size."""
        machines = 100_000
        config = ClusterConfig(
            backend="fleet",
            machine_count=machines,
            duration=20 * DAY,
            mean_time_between_failures=7.5 * DAY,
            noise_probability=0.042,
        )
        engine = FleetEngine(
            config,
            simple_faults(),
            UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(11),
        )
        result = engine.run()
        assert result.process_count > machines  # ~2.7 recoveries/machine
        assert np.array_equal(result.recovery_counts, result.failure_counts)
        assert result.process_count == int(result.failure_counts.sum())
        # Every process closes after its fault with positive downtime.
        assert np.all(result.proc_success_times > result.proc_fault_times)
        downtime = result.downtime_per_machine()
        assert downtime.shape == (machines,)
        assert np.all(downtime >= 0.0)
        # Draw counters: every machine consumed at least its initial
        # arrival draw, on the arrivals channel.
        from repro.cluster.randomness import ARRIVALS

        assert result.draw_counts.shape == (machines, 5)
        assert np.all(result.draw_counts[:, ARRIVALS] >= 1)
