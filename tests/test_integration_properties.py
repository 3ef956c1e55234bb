"""Cross-module property tests: segmentation round trips, evaluator
reference points, and replay self-consistency on logs generated by
arbitrary (even pathological) policies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_log, make_process
from reference_cluster import ClusterSimulator
from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultCatalog, FaultType
from repro.evaluation.evaluator import PolicyEvaluator
from repro.policies import RandomPolicy, UserDefinedPolicy
from repro.simplatform.platform import SimulationPlatform
from repro.util.rng import RngStreams

CATALOG = default_catalog()
LADDER = ["TRYNOP", "REBOOT", "REBOOT", "REIMAGE", "RMA"]


@st.composite
def ensembles(draw):
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),   # ladder depth
                st.sampled_from(["error:A", "error:B", "error:C"]),
            ),
            min_size=2,
            max_size=10,
        )
    )
    return [
        make_process(
            LADDER[:depth],
            machine=f"m-{i:03d}",
            error_type=error_type,
            start=i * 50_000.0,
        )
        for i, (depth, error_type) in enumerate(specs)
    ]


class TestSegmentationRoundTrip:
    @given(processes=ensembles())
    @settings(max_examples=50, deadline=None)
    def test_flatten_then_segment_recovers_processes(self, processes):
        log = make_log(processes)
        recovered = log.to_processes()
        assert sorted(recovered, key=lambda p: p.machine) == sorted(
            processes, key=lambda p: p.machine
        )

    @given(processes=ensembles())
    @settings(max_examples=30, deadline=None)
    def test_segmentation_preserves_total_downtime(self, processes):
        log = make_log(processes)
        recovered = log.to_processes()
        assert sum(p.downtime for p in recovered) == pytest.approx(
            sum(p.downtime for p in processes)
        )


class TestEvaluatorReferencePoint:
    @given(processes=ensembles())
    @settings(max_examples=30, deadline=None)
    def test_generating_policy_scores_exactly_one(self, processes):
        """The log's own policy is always the 1.0 reference point."""
        evaluator = PolicyEvaluator(processes, CATALOG)
        result = evaluator.evaluate(UserDefinedPolicy(CATALOG))
        assert result.overall_relative_cost == pytest.approx(1.0)
        assert result.overall_coverage == 1.0
        for evaluation in result.per_type.values():
            assert evaluation.relative_cost == pytest.approx(1.0)


class TestArbitraryPolicyLogs:
    """Self-replay consistency holds for ANY generating policy.

    The required-action rule includes every occurrence at least as
    strong as the final action, so any proper prefix of a process's own
    actions is one short of the requirement — replay can never finish
    early, whatever weird order the generating policy used.
    """

    @pytest.fixture(scope="class")
    def random_log_processes(self):
        # RandomPolicy is batch_safe=False: waves cannot decide it, so
        # this log comes from the event-driven reference simulator.
        faults = FaultCatalog(
            [
                FaultType(
                    name="a",
                    primary_symptom="error:A",
                    cure_probabilities={"TRYNOP": 0.4, "REBOOT": 0.8},
                    weight=2.0,
                ),
                FaultType(
                    name="b",
                    primary_symptom="error:B",
                    cure_probabilities={"REIMAGE": 0.9},
                    weight=1.0,
                ),
            ]
        )
        simulator = ClusterSimulator(
            ClusterConfig(
                machine_count=15,
                duration=40 * 86_400.0,
                mean_time_between_failures=2 * 86_400.0,
                noise_probability=0.0,
                max_actions=8,
            ),
            faults,
            RandomPolicy(CATALOG, seed=1),
            CATALOG,
            RngStreams(4),
        )
        return simulator.run().to_processes()

    def test_random_policy_log_has_non_monotone_sequences(
        self, random_log_processes
    ):
        """Sanity: this fixture really exercises weird action orders."""
        non_monotone = 0
        for process in random_log_processes:
            strengths = [
                CATALOG[a].strength for a in process.actions
            ]
            if strengths != sorted(strengths):
                non_monotone += 1
        assert non_monotone > 0

    def test_self_replay_exact_even_for_random_logs(
        self, random_log_processes
    ):
        platform = SimulationPlatform(random_log_processes, CATALOG)
        from repro.policies import FixedSequencePolicy

        for process in random_log_processes:
            # Replay the process's own action sequence verbatim.
            sequence = list(process.actions)
            if sequence[-1] != "RMA":
                sequence = sequence + ["RMA"]
            policy = FixedSequencePolicy(sequence, CATALOG)
            result = platform.replay(process, policy)
            assert result.handled
            assert result.actions == process.actions
            assert result.cost == pytest.approx(result.real_cost)
