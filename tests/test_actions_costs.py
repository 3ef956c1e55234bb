"""Tests for repro.actions.costs."""

import numpy as np
import pytest

from repro.actions.costs import DeterministicCost, LognormalCost
from repro.errors import ConfigurationError


def draw(cost, rng, count=1):
    """``count`` durations from ``rng``'s uniforms, the way the cluster
    engines sample them."""
    return cost.from_uniforms(rng.random((cost.uniform_count, count)))


class TestDeterministicCost:
    def test_sample_is_constant(self):
        cost = DeterministicCost(42.0)
        rng = np.random.default_rng(0)
        assert draw(cost, rng)[0] == 42.0
        assert cost.mean == 42.0

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            DeterministicCost(0.0)


class TestLognormalCost:
    def test_mean_property(self):
        assert LognormalCost(1800.0, cv=0.3).mean == 1800.0

    def test_sample_mean_matches_target(self):
        cost = LognormalCost(1000.0, cv=0.3)
        rng = np.random.default_rng(1)
        samples = draw(cost, rng, 20_000)
        assert abs(np.mean(samples) - 1000.0) / 1000.0 < 0.02

    def test_sample_cv_matches_target(self):
        cost = LognormalCost(1000.0, cv=0.5)
        rng = np.random.default_rng(2)
        samples = draw(cost, rng, 20_000)
        cv = samples.std() / samples.mean()
        assert abs(cv - 0.5) < 0.05

    def test_samples_positive(self):
        cost = LognormalCost(10.0, cv=1.5)
        rng = np.random.default_rng(3)
        assert all(draw(cost, rng, 100) > 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            LognormalCost(-5.0)
        with pytest.raises(ConfigurationError):
            LognormalCost(5.0, cv=0.0)
