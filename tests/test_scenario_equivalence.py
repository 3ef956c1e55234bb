"""Stationary-scenario equivalence: frozen references and wrapper identity.

Two contracts pin the scenario-model refactor:

* **Frozen references** — sha256 digests of (rendered log entries +
  per-channel draw-count matrices) captured on the pre-refactor
  engines.  The fleet engine and the event-driven reference
  (``tests/reference_cluster.py``) must reproduce them exactly.  Any
  change to these digests is a break of the bit-compatibility
  contract, not a test to update.
* **Wrapper identity** — a stationary single-class
  :class:`~repro.scenario.model.ScenarioModel` must be bit-identical to
  passing the bare :class:`~repro.cluster.faults.FaultCatalog`, on both
  engines: same RNG draws, same log, same downtime, same telemetry.

Plus the epoch-boundary semantics the drift feature hinges on: a
catalog switch at time *t* affects onsets strictly at times ``>= t``,
with no off-by-one between the reference's scalar resolution and the
fleet engine's vectorized wave resolution; and cascading scenarios, now
run by the fleet engine, against the reference.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_cluster import ClusterSimulator
from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.cluster.fleet import FleetEngine, simulate_cluster
from repro.policies.static import AlwaysStrongestPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.scenario import (
    CascadeCoupling,
    Epoch,
    MachineClass,
    ScenarioModel,
)
from repro.util.rng import RngStreams

from tests.test_fleet_equivalence import (
    assert_equivalent,
    cluster_configs,
    fault_catalogs,
    run_both,
)

CATALOG = default_catalog()
DAY = 86_400.0


def reference_faults() -> FaultCatalog:
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
                secondary_symptoms=("warn:Side", "warn:Other"),
                secondary_probability=0.6,
                cure_probabilities={"REIMAGE": 0.95},
                weight=1.0,
                cost_scale=1.3,
            ),
            FaultType(
                name="flaky",
                primary_symptom="error:Flaky",
                secondary_symptoms=("warn:Flaky",),
                cure_probabilities={
                    "TRYNOP": 0.4, "REBOOT": 0.6, "REIMAGE": 0.8
                },
                weight=0.5,
                cost_scale=0.7,
            ),
        ]
    )


def digest_log(log, draw_counts=None) -> str:
    """sha256 over rendered entries (+ the draw-count matrix)."""
    h = hashlib.sha256()
    for e in log.entries:
        h.update(
            f"{e.time!r}|{e.machine}|{e.kind.value}|{e.description}\n".encode()
        )
    if draw_counts is not None:
        h.update(np.ascontiguousarray(draw_counts).tobytes())
    return h.hexdigest()


#: Captured on the pre-refactor backends (commit af02af8); see the
#: module docstring.  Each digest is shared by the event backend and the
#: fleet backend — that equality *is* the differential contract.
FROZEN_CASES = {
    "base": {
        "params": dict(
            machine_count=12,
            duration=40 * DAY,
            mean_time_between_failures=4 * DAY,
            noise_probability=0.3,
        ),
        "policy": UserDefinedPolicy,
        "seed": 11,
        "machine": (
            "0969a01abc1175819b5a5b0c76846bdfb7c06689d7c6d2697f9e1dfe702e4644"
        ),
    },
    "zero-delays": {
        "params": dict(
            machine_count=6,
            duration=25 * DAY,
            mean_time_between_failures=3 * DAY,
            detection_delay_mean=0.0,
            decision_delay_mean=0.0,
            noise_probability=0.2,
        ),
        "policy": UserDefinedPolicy,
        "seed": 29,
        "machine": (
            "ce088c689e875b08499408d0191ac8b5b2709a6ec2a8544164749ba1f0ee2886"
        ),
    },
    "strongest": {
        "params": dict(
            machine_count=9,
            duration=30 * DAY,
            mean_time_between_failures=5 * DAY,
            max_actions=3,
            symptom_reemission_probability=1.0,
        ),
        "policy": AlwaysStrongestPolicy,
        "seed": 47,
        "machine": (
            "84cf1277df3a96f7e97406e03831190c64496995d88a4d9e9e6e14dd92616468"
        ),
    },
}


def _faults_variants():
    """The bare catalog and its stationary scenario wrappers."""
    return {
        "catalog": reference_faults(),
        "stationary-model": ScenarioModel.stationary(reference_faults()),
        "explicit-neutral-class": ScenarioModel(
            (Epoch(0.0, reference_faults()),),
            (MachineClass("std"),),
        ),
    }


class TestFrozenReferences:
    @pytest.mark.parametrize("case", sorted(FROZEN_CASES))
    def test_event_machine_discipline(self, case):
        spec = FROZEN_CASES[case]
        for label, faults in _faults_variants().items():
            sim = ClusterSimulator(
                ClusterConfig(**spec["params"]),
                faults,
                spec["policy"](CATALOG),
                CATALOG,
                RngStreams(spec["seed"]),
            )
            log = sim.run()
            digest = digest_log(log, sim.random_source.draw_counts())
            assert digest == spec["machine"], label

    @pytest.mark.parametrize("case", sorted(FROZEN_CASES))
    def test_fleet_backend(self, case):
        spec = FROZEN_CASES[case]
        for label, faults in _faults_variants().items():
            engine = FleetEngine(
                ClusterConfig(backend="fleet", **spec["params"]),
                faults,
                spec["policy"](CATALOG),
                CATALOG,
                RngStreams(spec["seed"]),
            )
            result = engine.run()
            digest = digest_log(result.to_log(), result.draw_counts)
            assert digest == spec["machine"], label


# ---------------------------------------------------------------------------
# Stationary wrapper identity (hypothesis differential)
# ---------------------------------------------------------------------------
class TestStationaryWrapperIdentity:
    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_wrapped_catalog_is_bit_identical(self, data):
        """ScenarioModel.stationary(catalog) ≡ catalog on both backends:
        same log (exact floats), same draw counts, same telemetry."""
        params = data.draw(cluster_configs())
        catalog = data.draw(fault_catalogs())
        seed = data.draw(st.integers(0, 2**32 - 1))

        bare = run_both(
            params, catalog, lambda: UserDefinedPolicy(CATALOG), seed
        )
        wrapped = run_both(
            params,
            ScenarioModel.stationary(catalog),
            lambda: UserDefinedPolicy(CATALOG),
            seed,
        )
        # Each pairing is internally equivalent...
        assert_equivalent(*bare)
        assert_equivalent(*wrapped)
        # ...and the wrapper changes nothing across the pairings.
        assert bare[1] == wrapped[1]  # event logs
        assert wrapped[3].to_log() == bare[3].to_log()  # fleet logs
        assert np.array_equal(
            bare[3].draw_counts, wrapped[3].draw_counts
        )


# ---------------------------------------------------------------------------
# Epoch-boundary semantics
# ---------------------------------------------------------------------------
def _boundary_scenario(switch_time: float) -> ScenarioModel:
    """Two epochs over distinguishable fault mixes with shared identity.

    Epoch 0 draws fault ``alpha`` essentially always (weight ratio
    1 : 1e-12); epoch 1 flips the ratio.  A process's primary symptom
    therefore reads back which epoch governed its onset.
    """

    def catalog(alpha_weight: float, beta_weight: float) -> FaultCatalog:
        return FaultCatalog(
            [
                FaultType(
                    name="alpha",
                    primary_symptom="error:Alpha",
                    cure_probabilities={"REBOOT": 0.9},
                    weight=alpha_weight,
                ),
                FaultType(
                    name="beta",
                    primary_symptom="error:Beta",
                    cure_probabilities={"REBOOT": 0.9},
                    weight=beta_weight,
                ),
            ]
        )

    return ScenarioModel(
        (
            Epoch(0.0, catalog(1.0, 1e-12)),
            Epoch(switch_time, catalog(1e-12, 1.0)),
        )
    )


class TestEpochBoundary:
    def test_epoch_at_half_open_convention(self):
        scenario = _boundary_scenario(10 * DAY)
        assert scenario.epoch_at(0.0) == 0
        assert scenario.epoch_at(10 * DAY - 1e-6) == 0
        assert scenario.epoch_at(10 * DAY) == 1  # switch governs >= t
        assert scenario.epoch_at(10 * DAY + 1e-6) == 1
        assert scenario.epoch_at(-5.0) == 0  # clamps, never -1

    def test_scalar_and_vector_resolution_agree(self):
        """The event backend resolves epochs one onset at a time, the
        fleet backend a wave at a time; the formulas must agree at and
        around every boundary, including exact boundary floats."""
        t = 10 * DAY
        scenario = _boundary_scenario(t)
        times = np.array(
            [0.0, t / 2, np.nextafter(t, 0.0), t, np.nextafter(t, np.inf),
             2 * t]
        )
        vector = scenario.epochs_at(times)
        scalar = np.array([scenario.epoch_at(float(x)) for x in times])
        assert np.array_equal(vector, scalar)
        assert vector.tolist() == [0, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("backend", ["event", "fleet"])
    def test_onsets_switch_strictly_at_boundary(self, backend):
        """End to end: every onset before *t* draws from epoch 0's mix,
        every onset at or after *t* from epoch 1's."""
        switch = 15 * DAY
        scenario = _boundary_scenario(switch)
        params = dict(
            machine_count=30,
            duration=30 * DAY,
            mean_time_between_failures=2 * DAY,
            noise_probability=0.0,
        )
        config = ClusterConfig(**params)
        engine = FleetEngine(
            config,
            scenario,
            UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(101),
        )
        result = engine.run()
        log = (
            result.to_log()
            if backend == "fleet"
            else ClusterSimulator(
                config,
                scenario,
                UserDefinedPolicy(CATALOG),
                CATALOG,
                RngStreams(101),
            ).run()
        )
        processes = log.to_processes()
        assert len(processes) > 50
        before = [p for p in processes if p.entries[0].time < switch]
        after = [p for p in processes if p.entries[0].time >= switch]
        assert before and after
        assert all(
            p.symptoms[0] == "error:Alpha" for p in before
        ), "an onset before the switch drew from the new epoch"
        assert all(
            p.symptoms[0] == "error:Beta" for p in after
        ), "an onset at/after the switch drew from the old epoch"

    def test_event_and_fleet_agree_under_drift(self):
        """The boundary scenario is bit-identical across backends —
        no off-by-one between scalar and wave epoch resolution."""
        scenario = _boundary_scenario(12 * DAY)
        # No noise: the boundary catalog's extreme 1:1e-12 weights make
        # the noise redraw loop (reject the primary's own fault) a
        # ~1e12-iteration rejection sample.  Noise-under-drift coverage
        # lives in the fuzz sweep, whose weights are sane.
        params = dict(
            machine_count=14,
            duration=24 * DAY,
            mean_time_between_failures=2 * DAY,
            noise_probability=0.0,
        )
        outputs = run_both(
            params, scenario, lambda: UserDefinedPolicy(CATALOG), seed=7
        )
        assert_equivalent(*outputs)

    def test_onset_epoch_governs_whole_process(self):
        """A process straddling the boundary keeps its onset epoch's
        rules: cures drawn mid-process use the catalog active at fault
        onset, not at cure time (pinned by cross-backend identity on a
        scenario whose epochs differ only in cure probabilities)."""

        def catalog(cure: float) -> FaultCatalog:
            return FaultCatalog(
                [
                    FaultType(
                        name="only",
                        primary_symptom="error:Only",
                        cure_probabilities={"TRYNOP": cure, "REBOOT": cure},
                    )
                ]
            )

        scenario = ScenarioModel(
            (Epoch(0.0, catalog(0.05)), Epoch(8 * DAY, catalog(0.95)))
        )
        params = dict(
            machine_count=10,
            duration=16 * DAY,
            mean_time_between_failures=1.5 * DAY,
            noise_probability=0.0,
        )
        outputs = run_both(
            params, scenario, lambda: UserDefinedPolicy(CATALOG), seed=13
        )
        assert_equivalent(*outputs)


# ---------------------------------------------------------------------------
# Cascade routing
# ---------------------------------------------------------------------------
def _cascading_scenario(strength: float = 0.4) -> ScenarioModel:
    catalog = reference_faults()
    per_pair = strength / (2 * 1 * len(catalog))
    row = {f.name: per_pair for f in catalog}
    return ScenarioModel(
        (Epoch(0.0, catalog),),
        cascade=CascadeCoupling(
            triggers={f.name: dict(row) for f in catalog},
            radius=1,
            delay_low=60.0,
            delay_high=1800.0,
        ),
    )


class TestCascadeRouting:
    """Cascading scenarios run on the one engine, FleetEngine."""

    def test_fleet_engine_matches_reference(self):
        """FleetEngine equals the event-driven reference on a cascade:
        log, draw counts, lifetime counters and episode traces."""
        outputs = run_both(
            dict(
                machine_count=8,
                duration=10 * DAY,
                mean_time_between_failures=2 * DAY,
            ),
            _cascading_scenario(),
            lambda: UserDefinedPolicy(CATALOG),
            seed=19,
        )
        assert_equivalent(*outputs)

    def test_simulate_cluster_matches_reference(self):
        """simulate_cluster runs a cascading scenario and writes the
        log the event-driven reference writes."""
        params = dict(
            machine_count=8,
            duration=10 * DAY,
            mean_time_between_failures=2 * DAY,
            noise_probability=0.1,
        )
        scenario = _cascading_scenario()
        via_factory = simulate_cluster(
            ClusterConfig(backend="fleet", **params),
            scenario,
            UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(19),
        )
        reference = ClusterSimulator(
            ClusterConfig(**params),
            _cascading_scenario(),
            UserDefinedPolicy(CATALOG),
            CATALOG,
            RngStreams(19),
        ).run()
        assert via_factory == reference

    def test_cascades_induce_extra_onsets(self):
        """With coupling on, the same seed produces strictly more
        recovery processes than the independent baseline."""
        params = dict(
            machine_count=20,
            duration=30 * DAY,
            mean_time_between_failures=2 * DAY,
            noise_probability=0.0,
        )

        def run(faults):
            return simulate_cluster(
                ClusterConfig(**params),
                faults,
                UserDefinedPolicy(CATALOG),
                CATALOG,
                RngStreams(23),
            )

        baseline = len(run(reference_faults()).to_processes())
        cascaded = len(run(_cascading_scenario(0.8)).to_processes())
        assert cascaded > baseline

    def test_cascade_is_reproducible(self):
        params = dict(
            machine_count=10,
            duration=15 * DAY,
            mean_time_between_failures=2 * DAY,
        )

        def run():
            return simulate_cluster(
                ClusterConfig(**params),
                _cascading_scenario(),
                UserDefinedPolicy(CATALOG),
                CATALOG,
                RngStreams(31),
            )

        assert run() == run()
