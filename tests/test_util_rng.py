"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.util.rng import RngStreams, make_rng


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(make_rng(1).random(5), make_rng(2).random(5))

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_is_configuration_error(self, seed):
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            make_rng(seed)
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            RngStreams(seed)

    def test_numpy_integer_seed_accepted(self):
        assert make_rng(np.int64(3)).random() == make_rng(3).random()
        assert RngStreams(np.uint32(3)).root_entropy == 3


class TestRngStreams:
    def test_same_name_same_generator_object(self):
        streams = RngStreams(7)
        assert streams.get("a") is streams.get("a")

    def test_named_streams_reproducible_across_instances(self):
        a = RngStreams(7).get("faults").random(4)
        b = RngStreams(7).get("faults").random(4)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        streams = RngStreams(7)
        a = streams.get("a").random(4)
        b = streams.get("b").random(4)
        assert not np.allclose(a, b)

    def test_stream_independent_of_creation_order(self):
        first = RngStreams(7)
        first.get("x")
        value_after_x = first.get("y").random()
        second = RngStreams(7)
        value_direct = second.get("y").random()
        assert value_after_x == value_direct

    def test_fresh_resets_stream_state(self):
        streams = RngStreams(7)
        initial = streams.get("s").random()
        streams.get("s").random()  # advance
        again = streams.fresh("s").random()
        assert again == initial

    def test_seed_property(self):
        assert RngStreams(99).seed == 99
        assert RngStreams().seed is None
