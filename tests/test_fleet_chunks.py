"""Chunked emission: the fleet engine's streamed log equals its whole run.

``FleetEngine.iter_log`` simulates the fleet a chunk at a time.  The
waves of a chunk stop at its horizon, the stragglers that fire before
it resolve, the rows before it become entries, and the engine drops
them along with every candidate, closed process and step that no later
chunk can reach.  ``FleetEngine.run`` is the chunk at an infinite
horizon.  These tests pin the concatenated chunks to
``run().to_log()`` row for row, over the fleet fuzz's scenarios
(``test_fleet_equivalence``), at horizons that fall exactly on entries
and at steps shorter than the symptom window.  After every chunk they
check what the engine still holds.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.cluster.fleet import FleetEngine
from repro.errors import ConfigurationError
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog.entry import EntryKind
from repro.session.trace import EpisodeTelemetry
from repro.util.rng import RngStreams
from test_fleet_equivalence import (
    CATALOG,
    DAY,
    cascading_models_for,
    cluster_configs,
    fault_catalogs,
    policies,
    scenario_models_for,
    scenario_policies,
    simple_faults,
    small_params,
    trained_chain_policy,
)


@st.composite
def fleets(draw):
    """One scenario of the fleet fuzz: ``(config, faults, policy, seed)``."""
    family = draw(st.sampled_from(
        ["plain", "scenario", "cascade", "zero-delay", "trained"]
    ))
    if family == "zero-delay":
        params = draw(cluster_configs(
            detection_delay_mean=0.0, decision_delay_mean=0.0
        ))
    else:
        params = draw(cluster_configs())
    catalog = draw(fault_catalogs())
    max_actions = params["max_actions"]
    if family == "scenario":
        faults = draw(scenario_models_for(catalog, params["duration"]))
        policy = draw(scenario_policies(faults, max_actions))
    elif family == "cascade":
        faults = draw(cascading_models_for(catalog, params["duration"]))
        policy = draw(scenario_policies(faults, max_actions))
    elif family == "trained":
        faults = catalog
        policy = trained_chain_policy(draw, catalog, max_actions)
    else:
        faults = catalog
        policy = draw(policies(catalog, max_actions))
    seed = draw(st.integers(0, 2**32 - 1))
    return ClusterConfig(**params), faults, policy, seed


def make_engine(fleet, **kwargs) -> FleetEngine:
    config, faults, policy, seed = fleet
    # A fresh policy per engine: hybrid policies count their fallbacks.
    return FleetEngine(
        config, faults, copy.deepcopy(policy), CATALOG, RngStreams(seed),
        **kwargs,
    )


@st.composite
def horizon_lists(draw, times, window):
    """Rising horizons: some exactly on entry times, and a run of them
    from an entry time at a step shorter than the symptom window."""
    times = times or [0.0]
    horizons = set(draw(st.lists(st.sampled_from(times), max_size=5)))
    start = draw(st.sampled_from(times))
    step = draw(st.floats(0.05, 0.95)) * window
    horizons.update(start + k * step for k in range(draw(st.integers(0, 30))))
    return sorted(horizons)


def chunked_rows(engine, horizons):
    """The rows of every chunk, checking the engine after each one."""
    rows = []
    for horizon, chunk in zip(
        [*horizons, np.inf], engine._log_chunks(horizons)
    ):
        assert_holds_only_what_later_chunks_reach(engine, horizon)
        rows.extend(chunk)
    return rows


def assert_holds_only_what_later_chunks_reach(engine, horizon):
    """No row or candidate before ``horizon``; every closed process the
    engine holds is a pending candidate's own, or a later one of its
    machine that ends after ``horizon``; every step belongs to a held
    process, and an open process holds one step per attempt."""
    assert np.all(engine._log.column("t") >= horizon)
    cand_t = engine._candidates.column("t")
    cand_p = engine._candidates.column("p")
    assert np.all(cand_t >= horizon)
    proc_m = engine._procs.column("m")
    assert engine._next_proc == proc_m.size
    ends = np.full(proc_m.size, np.inf)
    ends[engine._closed.column("p")] = engine._closed.column("t")
    for q in np.flatnonzero(np.isfinite(ends)).tolist():
        own = q in cand_p
        later = ends[q] > horizon and any(
            proc_m[p] == proc_m[q] and p < q for p in cand_p.tolist()
        )
        assert own or later
    machines = np.flatnonzero(engine._cur_proc >= 0)
    open_procs = engine._cur_proc[machines]
    assert sorted(open_procs.tolist()) == np.flatnonzero(
        np.isinf(ends)
    ).tolist()
    assert np.array_equal(proc_m[open_procs], machines)
    steps_p = engine._steps.column("p")
    assert np.all((steps_p >= 0) & (steps_p < proc_m.size))
    held_steps = np.bincount(steps_p, minlength=proc_m.size)
    assert np.array_equal(
        held_steps[open_procs], engine._attempts[machines]
    )


class TestChunksEqualWholeRun:
    @given(fleet=fleets(), data=st.data())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fuzzed_fleets_and_horizons(self, fleet, data):
        whole = list(make_engine(fleet).run().to_log())
        horizons = data.draw(horizon_lists(
            [entry.time for entry in whole],
            fleet[0].secondary_symptom_window,
        ))
        assert chunked_rows(make_engine(fleet), horizons) == whole
        assert list(make_engine(fleet).iter_log()) == whole

    def test_straggler_lands_in_a_process_open_at_the_horizon(
        self, monkeypatch
    ):
        """An MTBF shorter than the symptom window and horizons every
        300 s: a secondary of a quickly cured fault fires after its own
        process closed, inside the machine's next process, which is
        still open at the chunk's horizon (its end reads +inf)."""
        faults = FaultCatalog(
            [
                FaultType(
                    name="flaky",
                    primary_symptom="error:Flaky",
                    secondary_symptoms=("warn:Flaky",),
                    secondary_probability=1.0,
                    cure_probabilities={"TRYNOP": 0.9},
                    weight=3.0,
                ),
                FaultType(
                    name="transient",
                    primary_symptom="error:Transient",
                    cure_probabilities={"TRYNOP": 0.7, "REBOOT": 0.95},
                ),
            ]
        )
        config = ClusterConfig(**small_params(
            machine_count=4,
            duration=2 * DAY,
            mean_time_between_failures=600.0,
            symptom_reemission_probability=1.0,
        ))
        fleet = (config, faults, UserDefinedPolicy(CATALOG), 3)
        into_open = []
        sweep = FleetEngine._sweep_candidates

        def spying(cand_t, cand_p, start_t, end_t, interval_m):
            emitted = sweep(cand_t, cand_p, start_t, end_t, interval_m)
            for i in np.flatnonzero(emitted & (cand_t >= end_t[cand_p])):
                inside = (
                    (interval_m == interval_m[cand_p[i]])
                    & (start_t < cand_t[i]) & (cand_t[i] < end_t)
                )
                assert inside.sum() == 1
                into_open.append(bool(np.isinf(end_t[inside][0])))
            return emitted

        monkeypatch.setattr(
            FleetEngine, "_sweep_candidates", staticmethod(spying)
        )
        whole = list(make_engine(fleet).run().to_log())
        assert into_open and not any(into_open)  # every end is known
        horizons = np.arange(300.0, config.duration, 300.0)
        assert chunked_rows(make_engine(fleet), horizons) == whole
        assert any(into_open)
        # Horizons on every success: a process that closes on its
        # chunk's horizon holds only its own pending candidates.
        successes = {e.time for e in whole if e.kind is EntryKind.SUCCESS}
        assert chunked_rows(make_engine(fleet), sorted(successes)) == whole


class TestTelemetry:
    def test_iter_log_refuses_episode_telemetry(self):
        """Traces fire in success-time order after a whole run: a
        streamed log refuses before simulating anything, and the same
        engine still runs whole and fires every trace."""

        class Recorder(EpisodeTelemetry):
            def __init__(self) -> None:
                self.traces = []

            def on_episode(self, trace) -> None:
                self.traces.append(trace)

        recorder = Recorder()
        fleet = (
            ClusterConfig(**small_params()),
            simple_faults(),
            UserDefinedPolicy(CATALOG),
            5,
        )
        engine = make_engine(fleet, episode_telemetry=recorder)
        with pytest.raises(ConfigurationError, match="telemetry"):
            engine.iter_log()
        assert recorder.traces == []
        result = engine.run()
        assert result.process_count > 0
        assert len(recorder.traces) == result.process_count
        assert list(result.to_log()) == list(
            make_engine(fleet).run().to_log()
        )
