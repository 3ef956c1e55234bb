"""The compiled replay kernel against the frozen string-keyed reference.

Replay, batched replay, selection-tree scoring and evaluator telemetry
run on :meth:`~repro.simplatform.platform.CompiledReplay.step`.  Before
that they stepped through ``SimulationPlatform.step`` over names and
states, one :class:`~reference_session.RecoverySession` per process
(``reference_replay``).  Hypothesis draws ensembles — self-healed
processes and value-equal duplicates included — catalogs, cost modes,
the required-action rule, the action cap and a policy of every family,
and demands the two agree exactly: costs with ``==`` (both NaN when
unhandled), actions, ``forced_manual`` and every trace field.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_replay as reference
from helpers import make_process
from reference_replay import ReferencePlatform
from repro.actions import REBOOT, TRYNOP, default_catalog
from repro.actions.action import ActionCatalog, RepairAction
from repro.actions.composite import compose_actions
from repro.actions.costs import DeterministicCost
from repro.evaluation.evaluator import PolicyEvaluator
from repro.learning.selection_tree import (
    SelectionTreeConfig,
    SelectionTreeExtractor,
)
from repro.mdp.state import RecoveryState
from repro.policies import (
    AlwaysStrongestPolicy,
    FixedSequencePolicy,
    HybridPolicy,
    RandomPolicy,
    TrainedPolicy,
    UserDefinedPolicy,
)
from repro.recoverylog.process import RecoveryProcess
from repro.session import EpisodeRecorder
from repro.simplatform.platform import CostMode, SimulationPlatform

CATALOGS = {
    "default": default_catalog(),
    # A composite action in place of REIMAGE, as in
    # test_actions_composite.py.
    "composite": ActionCatalog(
        [
            TRYNOP,
            REBOOT,
            compose_actions("REBOOT+FSCK", [TRYNOP, REBOOT], strength=2),
            RepairAction("RMA", 3, DeterministicCost(1000.0), manual=True),
        ]
    ),
}
ERROR_TYPES = ("error:A", "error:B")
DURATIONS = (30.0, 300.0, 2_700.0, 7_200.0)
POLICY_KINDS = ("user", "fixed", "strongest", "trained", "hybrid", "random")


@st.composite
def scenarios(draw):
    """An ensemble, a platform configuration and a policy recipe."""
    catalog_name = draw(st.sampled_from(sorted(CATALOGS)))
    names = CATALOGS[catalog_name].names()
    action = st.sampled_from(names)
    processes = []
    for index in range(draw(st.integers(1, 8))):
        actions = draw(st.lists(action, max_size=5))
        processes.append(
            make_process(
                actions,
                machine=f"m{index}",
                error_type=draw(st.sampled_from(ERROR_TYPES)),
                start=1_000_000.0 * index,
                durations=[draw(st.sampled_from(DURATIONS)) for _ in actions],
                detection_delay=draw(st.sampled_from((30.0, 60.0))),
            )
        )
    # Value-equal duplicates: equal processes, distinct objects.
    duplicated = st.lists(st.integers(0, len(processes) - 1), max_size=2)
    for index in draw(duplicated):
        original = processes[index]
        processes.append(
            RecoveryProcess(original.machine, tuple(original.entries))
        )
    config = dict(
        cost_mode=draw(st.sampled_from(list(CostMode))),
        last_action_only=draw(st.booleans()),
        max_actions=draw(st.integers(2, 20)),
    )
    kind = draw(st.sampled_from(POLICY_KINDS))
    histories = st.lists(action, max_size=3).map(tuple)
    rules = {
        RecoveryState(error_type, tried=tried): (
            draw(action),
            draw(st.sampled_from((0.0, 150.0, 9_000.0))),
        )
        for error_type in ERROR_TYPES
        for tried in draw(st.lists(histories, max_size=6))
    }
    recipe = dict(
        kind=kind,
        rules=rules,
        prefix=draw(st.lists(action, max_size=3)),
        seed=draw(st.integers(0, 2**16)),
    )
    return catalog_name, processes, config, recipe


def make_policy(catalog, recipe):
    """A fresh policy from ``recipe`` (fresh counters and RNG streams)."""
    kind = recipe["kind"]
    if kind == "user":
        return UserDefinedPolicy(catalog)
    if kind == "fixed":
        return FixedSequencePolicy(
            recipe["prefix"] + [catalog.strongest.name], catalog
        )
    if kind == "strongest":
        return AlwaysStrongestPolicy(catalog)
    if kind == "trained":
        return TrainedPolicy(recipe["rules"])
    if kind == "hybrid":
        return HybridPolicy(
            TrainedPolicy(recipe["rules"]), UserDefinedPolicy(catalog)
        )
    return RandomPolicy(catalog, seed=recipe["seed"])


def snapshot(result):
    """Every field of a replay result, NaN made comparable."""
    return (
        result.handled,
        "nan" if math.isnan(result.cost) else result.cost,
        result.actions,
        result.real_cost,
        result.forced_manual,
    )


def assert_traces_equal(got, want):
    assert len(got) == len(want)
    for got_trace, want_trace in zip(got, want):
        assert got_trace == want_trace
        # Dataclass equality already compares every field; spelling
        # out the steps names the field when one differs.
        for got_step, want_step in zip(got_trace.steps, want_trace.steps):
            assert got_step.__dict__ == want_step.__dict__


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestKernelMatchesReference:
    @SETTINGS
    @given(scenarios())
    def test_replay_per_process(self, scenario):
        catalog_name, processes, config, recipe = scenario
        catalog = CATALOGS[catalog_name]
        kernel = SimulationPlatform(processes, catalog, **config)
        frozen = ReferencePlatform(processes, catalog, **config)
        kernel_policy = make_policy(catalog, recipe)
        frozen_policy = make_policy(catalog, recipe)
        kernel_traces, frozen_traces = EpisodeRecorder(), EpisodeRecorder()
        for process in processes:
            got = kernel.replay(
                process, kernel_policy, telemetry=kernel_traces
            )
            want = reference.replay(
                frozen, process, frozen_policy, telemetry=frozen_traces
            )
            assert snapshot(got) == snapshot(want)
        assert_traces_equal(kernel_traces.traces, frozen_traces.traces)

    @SETTINGS
    @given(scenarios())
    def test_replay_many(self, scenario):
        catalog_name, processes, config, recipe = scenario
        catalog = CATALOGS[catalog_name]
        kernel = SimulationPlatform(processes, catalog, **config)
        frozen = ReferencePlatform(processes, catalog, **config)
        kernel_policy = make_policy(catalog, recipe)
        frozen_policy = make_policy(catalog, recipe)
        kernel_traces, frozen_traces = EpisodeRecorder(), EpisodeRecorder()
        got = kernel.replay_many(
            processes, kernel_policy, origin="unit", telemetry=kernel_traces
        )
        want = reference.replay_many(
            frozen,
            processes,
            frozen_policy,
            origin="unit",
            telemetry=frozen_traces,
        )
        assert [snapshot(r) for r in got] == [snapshot(r) for r in want]
        assert_traces_equal(kernel_traces.traces, frozen_traces.traces)
        if recipe["kind"] == "hybrid":
            assert kernel_policy.fallback_rate == frozen_policy.fallback_rate

    @SETTINGS
    @given(scenarios(), st.integers(1, 6))
    def test_selection_tree_evaluate(self, scenario, evaluation_sample):
        catalog_name, processes, config, recipe = scenario
        catalog = CATALOGS[catalog_name]
        rules = recipe["rules"]
        extractor = SelectionTreeExtractor(
            SimulationPlatform(processes, catalog, **config),
            SelectionTreeConfig(evaluation_sample=evaluation_sample),
        )
        # The extractor's evenly spaced thinning, replayed by the
        # reference under the rules as a trained table.
        stride = len(processes) / evaluation_sample
        sample = (
            processes
            if len(processes) <= evaluation_sample
            else [processes[int(i * stride)] for i in range(evaluation_sample)]
        )
        results = reference.replay_many(
            ReferencePlatform(processes, catalog, **config),
            sample,
            TrainedPolicy(rules, label="candidate"),
        )
        total = 0.0
        for result in results:
            total += result.cost if result.handled else result.real_cost
        assert extractor.evaluate(rules, processes) == total / len(sample)

    @SETTINGS
    @given(scenarios())
    def test_evaluator_telemetry(self, scenario):
        catalog_name, processes, config, recipe = scenario
        catalog = CATALOGS[catalog_name]
        max_actions = config["max_actions"]
        kernel_traces, frozen_traces = EpisodeRecorder(), EpisodeRecorder()
        PolicyEvaluator(processes, catalog, max_actions=max_actions).evaluate(
            make_policy(catalog, recipe), telemetry=kernel_traces
        )
        reference.replay_many(
            ReferencePlatform(processes, catalog, max_actions=max_actions),
            processes,
            make_policy(catalog, recipe),
            origin="evaluation",
            telemetry=frozen_traces,
        )
        assert_traces_equal(kernel_traces.traces, frozen_traces.traces)
