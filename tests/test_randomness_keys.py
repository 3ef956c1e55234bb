"""Per-draw key derivation against the frozen key-matrix source.

:class:`~repro.cluster.randomness.MachineRandomSource` derives each
``(machine, channel)`` pair's key when it draws, and mixes in place.
Every fleet and scenario digest rests on those draws staying bit for
bit what the key-matrix source (``reference_randomness.py``) drew, so
hypothesis drives both through random programs of waves and blocks:
machine sets in any order, every channel, block counts from 0, any
interleaving and any entropy.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_randomness import KeyMatrixRandomSource, reference_mix64
from repro.cluster.randomness import (
    CHANNEL_COUNT,
    MachineRandomSource,
    mix64,
    uniform_from_bits,
)
from repro.errors import ConfigurationError

ENTROPY = st.integers(min_value=-(2**70), max_value=2**70)
UINT64 = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def draw_programs(draw):
    """``(entropy, machine_count, steps)``; a step is ``(machines,
    channel, count)`` with ``count`` None for a wave."""
    machine_count = draw(st.integers(min_value=1, max_value=40))
    step = st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=machine_count - 1),
            unique=True,
            max_size=machine_count,
        ),
        st.integers(min_value=0, max_value=CHANNEL_COUNT - 1),
        st.none() | st.integers(min_value=0, max_value=4),
    )
    steps = draw(st.lists(step, max_size=30))
    return draw(ENTROPY), machine_count, steps


def _run(source, machines, channel, count):
    machines = np.array(machines, dtype=np.intp)
    if count is None:
        return source.uniform_wave(machines, channel)
    return source.uniform_block(machines, channel, count)


class TestDrawsMatchKeyMatrix:
    @settings(max_examples=200, deadline=None)
    @given(program=draw_programs())
    def test_every_draw_and_counter_matches(self, program):
        entropy, machine_count, steps = program
        source = MachineRandomSource(entropy, machine_count)
        reference = KeyMatrixRandomSource(entropy, machine_count)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for machines, channel, count in steps:
                got = _run(source, machines, channel, count)
                want = _run(reference, machines, channel, count)
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape
                assert np.array_equal(got, want)
        counts = source.draw_counts()
        assert counts.dtype == np.uint64
        assert counts.shape == (machine_count, CHANNEL_COUNT)
        assert counts.flags.c_contiguous
        assert np.array_equal(counts, reference.draw_counts())

    @settings(max_examples=50, deadline=None)
    @given(program=draw_programs())
    def test_draw_counts_is_a_copy(self, program):
        entropy, machine_count, steps = program
        source = MachineRandomSource(entropy, machine_count)
        reference = KeyMatrixRandomSource(entropy, machine_count)
        for machines, channel, count in steps:
            _run(source, machines, channel, count)
            _run(reference, machines, channel, count)
        counts = source.draw_counts()
        counts += np.uint64(7)
        assert np.array_equal(source.draw_counts(), reference.draw_counts())
        every = np.arange(machine_count)
        for channel in range(CHANNEL_COUNT):
            assert np.array_equal(
                source.uniform_wave(every, channel),
                reference.uniform_wave(every, channel),
            )

    def test_one_machine_counts_are_a_fresh_row(self):
        source = MachineRandomSource(3, 1)
        source.uniform_block(np.array([0]), 2, 3)
        counts = source.draw_counts()
        assert counts.tolist() == [[0, 0, 3, 0, 0]]
        assert counts.flags.c_contiguous and counts.flags.owndata
        counts[0, 2] = 0
        assert source.draw_counts()[0, 2] == 3

    def test_machine_count_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            MachineRandomSource(1, 0)


class TestMix64:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(UINT64, max_size=50))
    def test_array_values_match_and_input_is_kept(self, values):
        array = np.array(values, dtype=np.uint64)
        before = array.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = mix64(array)
        assert mixed.dtype == np.uint64
        assert np.array_equal(mixed, reference_mix64(array))
        assert np.array_equal(array, before)
        assert np.array_equal(
            uniform_from_bits(mixed), uniform_from_bits(reference_mix64(array))
        )

    @settings(max_examples=100, deadline=None)
    @given(value=UINT64)
    def test_scalar_values_match(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for given_value in (value, np.uint64(value)):
                mixed = mix64(given_value)
                want = reference_mix64(given_value)
                assert type(mixed) is type(want) is np.uint64
                assert mixed == want
