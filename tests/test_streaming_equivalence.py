"""Differential pinning: the streaming pipeline == the in-memory reference.

Every result the streaming path can produce — completed processes,
incomplete buffers, orphans, co-occurrence counts, dependence values,
clusters, noise fraction, coverage curve, m-patterns — must equal what
the eager pipeline computes on the same entries, and none of it may
depend on where chunk boundaries fall.
"""

from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions.action import default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.fleet import FleetEngine
from repro.mining.clustering import coverage_curve
from repro.mining.dependence import SymptomCooccurrence
from repro.mining.mpattern import mine_m_patterns
from repro.mining.noise import filter_noise
from repro.mining.streaming import StreamingMiner, mine_log_streaming
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog.io import write_log_jsonl, write_log_text
from repro.recoverylog.process import segment_log
from repro.recoverylog.stream import StreamingSegmenter
from repro.tracegen.catalog_gen import CatalogSpec, generate_fault_catalog
from repro.util.rng import RngStreams

MINP = 0.5
CURVE_MINPS = (0.1, 0.3, 0.5, 0.7, 1.0)

#: Dense, noisy little fleet: frequent faults on few machines, and a
#: high noise rate so multi-cluster transactions actually occur.
_CONFIG = ClusterConfig(
    machine_count=40,
    duration=30 * 86_400.0,
    mean_time_between_failures=3_600.0,
    noise_probability=0.25,
)


@pytest.fixture(scope="module")
def entries():
    """A prefix of the fleet's streamed log."""
    actions = default_catalog()
    engine = FleetEngine(
        _CONFIG,
        generate_fault_catalog(CatalogSpec(), 3),
        UserDefinedPolicy(actions),
        actions,
        RngStreams(3),
    )
    return list(islice(engine.iter_log(), 4_000))


@pytest.fixture(scope="module")
def eager(entries):
    return segment_log(entries)


@pytest.fixture(scope="module")
def streamed(entries):
    miner = StreamingMiner()
    processes = list(miner.segmenter.feed_many(entries))
    for process in processes:
        miner.observe(process)
    return miner, processes


def _by_start(processes):
    return sorted(processes, key=lambda p: (p.start_time, p.machine))


class TestSegmentationEquivalence:
    def test_same_completed_processes(self, eager, streamed):
        _, processes = streamed
        assert _by_start(processes) == list(eager.processes)

    def test_same_incomplete_buffers(self, eager, streamed):
        miner, _ = streamed
        assert miner.segmenter.pending() == eager.incomplete

    def test_orphans_match_on_truncated_log(self, entries):
        # A log window that opens mid-stream starts with actions and
        # successes whose symptoms fell outside the window.
        window = entries[len(entries) // 2:]
        eager = segment_log(window)
        segmenter = StreamingSegmenter()
        processes = list(segmenter.feed_many(window))
        assert eager.orphaned  # the scenario actually has orphans
        assert sorted(segmenter.orphans) == sorted(eager.orphaned)
        assert _by_start(processes) == list(eager.processes)
        assert segmenter.pending() == eager.incomplete


class TestMiningEquivalence:
    def test_cooccurrence_counts_identical(self, eager, streamed):
        miner, _ = streamed
        reference = SymptomCooccurrence.from_transactions(
            p.symptom_set for p in eager.processes
        )
        cooc = miner.cooccurrence
        assert cooc.items == reference.items
        assert cooc.transaction_count == reference.transaction_count
        for item in reference.items:
            assert cooc.count(item) == reference.count(item)
        for a, b in combinations(reference.items, 2):
            assert cooc.pair_count(a, b) == reference.pair_count(a, b)
            assert cooc.pair_dependence(a, b) == reference.pair_dependence(
                a, b
            )

    def test_clusters_identical(self, eager, streamed):
        miner, _ = streamed
        reference = filter_noise(eager.processes, MINP)
        assert (
            miner.clustering(MINP).clusters
            == reference.clustering.clusters
        )

    def test_noise_fraction_bit_identical(self, eager, streamed):
        miner, _ = streamed
        reference = filter_noise(eager.processes, MINP)
        assert reference.noisy  # the workload actually produces noise
        assert miner.noise_fraction(MINP) == reference.noise_fraction

    def test_coverage_curve_bit_identical(self, eager, streamed):
        miner, _ = streamed
        assert miner.coverage_curve(CURVE_MINPS) == coverage_curve(
            eager.processes, minps=CURVE_MINPS
        )

    def test_m_patterns_identical(self, eager, streamed):
        miner, _ = streamed
        reference = mine_m_patterns(
            [p.symptom_set for p in eager.processes], MINP
        )
        assert sorted(miner.m_patterns(MINP), key=sorted) == sorted(
            reference, key=sorted
        )

    def test_mean_downtime_matches(self, eager, streamed):
        miner, _ = streamed
        downtimes = [p.downtime for p in eager.processes]
        assert miner.process_count == len(downtimes)
        assert miner.mean_downtime == pytest.approx(
            sum(downtimes) / len(downtimes)
        )


class TestFileEquivalence:
    @pytest.mark.parametrize("writer,suffix", [
        (write_log_jsonl, "log.jsonl"),
        (write_log_text, "log.txt"),
    ])
    def test_mine_file_matches_eager(
        self, tmp_path, entries, eager, writer, suffix
    ):
        path = tmp_path / suffix
        writer(entries, path)
        miner, summary = mine_log_streaming(str(path), MINP)
        reference = filter_noise(eager.processes, MINP)
        assert summary.entry_count == len(entries)
        assert summary.process_count == len(eager.processes)
        assert summary.cluster_count == reference.clustering.cluster_count()
        assert summary.noise_fraction == reference.noise_fraction
        assert summary.incomplete_count == len(eager.incomplete)


class TestChunkInvariance:
    """Where chunk boundaries fall must never change any output."""

    @pytest.fixture(scope="class")
    def reference(self, entries):
        miner = StreamingMiner()
        miner.feed(entries)
        return miner.result(MINP), miner.clustering(MINP).clusters

    @given(chunk_size=st.integers(min_value=1, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_any_chunk_size_same_result(self, entries, reference, chunk_size):
        miner = StreamingMiner()
        miner.feed_chunks(
            entries[start:start + chunk_size]
            for start in range(0, len(entries), chunk_size)
        )
        assert miner.result(MINP) == reference[0]
        assert miner.clustering(MINP).clusters == reference[1]

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_uneven_boundaries(self, entries, reference, data):
        cuts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(entries)),
                max_size=8,
            ).map(sorted)
        )
        bounds = [0, *cuts, len(entries)]
        miner = StreamingMiner()
        miner.feed_chunks(
            entries[a:b] for a, b in zip(bounds, bounds[1:])
        )
        assert miner.result(MINP) == reference[0]
        assert miner.clustering(MINP).clusters == reference[1]

    @pytest.fixture(scope="class")
    def log_file(self, entries, tmp_path_factory):
        path = tmp_path_factory.mktemp("chunks") / "log.jsonl"
        write_log_jsonl(entries, path)
        return str(path)

    @given(chunk_size=st.integers(min_value=1, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_file_chunk_size_invariant(
        self, log_file, reference, chunk_size
    ):
        _miner, summary = mine_log_streaming(
            log_file, MINP, chunk_size=chunk_size
        )
        assert summary == reference[0]


class TestSimulatorLogEquivalence:
    """The cluster simulator's log mines identically via either path."""

    def test_small_trace_round_trip(self, small_trace):
        entries = sorted(small_trace.log)
        eager = segment_log(entries)
        miner = StreamingMiner()
        miner.feed(entries)
        reference = filter_noise(eager.processes, MINP)
        streamed = miner.result(MINP)
        assert streamed.process_count == len(eager.processes)
        assert streamed.cluster_count == reference.clustering.cluster_count()
        assert streamed.noise_fraction == reference.noise_fraction
