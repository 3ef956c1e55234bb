"""Tests for the serving latency recorder's percentiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.telemetry import LatencyRecorder


def recorder(samples):
    """A recorder whose timed calls took ``samples`` seconds."""
    recorder = LatencyRecorder()
    recorder._latencies = list(samples)
    return recorder


def nearest_rank(samples, fraction):
    """The smallest sample that at least ``fraction`` of the samples do
    not exceed."""
    n = len(samples)
    return min(
        s for s in samples if sum(t <= s for t in samples) / n >= fraction
    )


class TestPercentile:
    @pytest.mark.parametrize(
        "fraction, expected",
        [(0.0, 1.0), (0.2, 1.0), (0.5, 3.0), (0.9, 5.0), (0.99, 5.0),
         (1.0, 5.0)],
    )
    def test_five_samples(self, fraction, expected):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert recorder(samples).percentile(fraction) == expected

    def test_inexact_product_keeps_its_rank(self):
        # 0.07 * 100 is 7.000000000000001 in floating point.
        samples = [float(i) for i in range(1, 101)]
        assert recorder(samples).percentile(0.07) == 7.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 20).map(float), min_size=1, max_size=40),
        st.one_of(
            st.floats(0.0, 1.0),
            st.integers(0, 100).map(lambda k: k / 100),
        ),
    )
    def test_matches_the_definition(self, samples, fraction):
        assert recorder(samples).percentile(fraction) == nearest_rank(
            samples, fraction
        )

    def test_empty_and_out_of_range(self):
        assert LatencyRecorder().percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            recorder([1.0]).percentile(1.5)
