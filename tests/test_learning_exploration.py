"""Tests for exploration strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_exploration import (
    ReferenceBoltzmannExplorer,
    ReferenceEpsilonGreedyExplorer,
)
from repro.errors import ConfigurationError
from repro.learning.exploration import (
    BoltzmannExplorer,
    EpsilonGreedyExplorer,
    TemperatureSchedule,
)
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.util.rng import make_rng


class TestTemperatureSchedule:
    def test_geometric_decay(self):
        schedule = TemperatureSchedule(initial=100.0, decay=0.5, floor=1.0)
        assert schedule.temperature(0) == 100.0
        assert schedule.temperature(1) == 50.0
        assert schedule.temperature(2) == 25.0

    def test_floor_respected(self):
        schedule = TemperatureSchedule(initial=100.0, decay=0.5, floor=10.0)
        assert schedule.temperature(50) == 10.0

    def test_search_phase_detection(self):
        schedule = TemperatureSchedule(initial=100.0, decay=0.5, floor=10.0)
        assert not schedule.is_search_phase(0)
        assert schedule.is_search_phase(10)

    def test_negative_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            TemperatureSchedule().temperature(-1)

    def test_floor_above_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            TemperatureSchedule(initial=1.0, floor=2.0)

    def test_bad_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            TemperatureSchedule(decay=0.0)


class TestBoltzmannExplorer:
    def test_probabilities_sum_to_one(self):
        explorer = ReferenceBoltzmannExplorer(seed=0)
        probabilities = explorer.probabilities(
            {"a": 100.0, "b": 500.0}, sweep=0
        )
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_lower_cost_more_probable(self):
        explorer = ReferenceBoltzmannExplorer(
            TemperatureSchedule(initial=100.0), seed=0
        )
        probabilities = explorer.probabilities(
            {"cheap": 10.0, "dear": 500.0}, sweep=0
        )
        assert probabilities["cheap"] > probabilities["dear"]

    def test_high_temperature_near_uniform(self):
        explorer = ReferenceBoltzmannExplorer(
            TemperatureSchedule(initial=1e9), seed=0
        )
        probabilities = explorer.probabilities(
            {"a": 10.0, "b": 5000.0}, sweep=0
        )
        assert probabilities["a"] == pytest.approx(0.5, abs=0.01)

    def test_low_temperature_near_greedy(self):
        explorer = ReferenceBoltzmannExplorer(
            TemperatureSchedule(initial=1.0, floor=1.0), seed=0
        )
        probabilities = explorer.probabilities(
            {"a": 10.0, "b": 5000.0}, sweep=0
        )
        assert probabilities["a"] > 0.999

    def test_numerical_stability_with_huge_values(self):
        explorer = ReferenceBoltzmannExplorer(seed=0)
        probabilities = explorer.probabilities(
            {"a": 1e12, "b": 1e12 + 5.0}, sweep=0
        )
        assert np.isfinite(list(probabilities.values())).all()

    def test_select_draws_according_to_distribution(self):
        explorer = BoltzmannExplorer(
            TemperatureSchedule(initial=100.0, decay=1.0, floor=100.0),
            seed=0,
        )
        names = ["cheap", "dear"]
        draws = [
            names[explorer.select_index([10.0, 600.0], sweep=0)]
            for _ in range(500)
        ]
        assert draws.count("cheap") > 450

    def test_empty_q_values_rejected(self):
        with pytest.raises(ConfigurationError):
            BoltzmannExplorer(seed=0).select_index([], sweep=0)


class TestEpsilonGreedyExplorer:
    def test_epsilon_decays_to_floor(self):
        explorer = EpsilonGreedyExplorer(
            epsilon_initial=1.0, decay=0.5, floor=0.1, seed=0
        )
        assert explorer.epsilon(0) == 1.0
        assert explorer.epsilon(10) == pytest.approx(0.1)

    def test_greedy_when_epsilon_zero_floor(self):
        explorer = EpsilonGreedyExplorer(
            epsilon_initial=0.0, floor=0.0, seed=0
        )
        names = ["a", "b"]
        draws = {
            names[explorer.select_index([1.0, 2.0], sweep=5)]
            for _ in range(20)
        }
        assert draws == {"a"}

    def test_fully_random_when_epsilon_one(self):
        explorer = EpsilonGreedyExplorer(
            epsilon_initial=1.0, decay=1.0, floor=1.0, seed=0
        )
        names = ["a", "b"]
        draws = {
            names[explorer.select_index([1.0, 2.0], sweep=0)]
            for _ in range(100)
        }
        assert draws == {"a", "b"}

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EpsilonGreedyExplorer(epsilon_initial=2.0)
        with pytest.raises(ConfigurationError):
            EpsilonGreedyExplorer(decay=0.0)


# ----------------------------------------------------------------------
# The trainer's per-step draw against the mapping form
# (``reference_exploration``)
# ----------------------------------------------------------------------
_q_values = st.one_of(
    # A small pool, so rows hold ties.
    st.sampled_from([0.0, 60.0, 600.0, 7_200.0]),
    st.floats(
        min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
    ),
)


def _explorer(kind, rng, *, reference=False):
    """The library explorer, or with ``reference`` its mapping-form twin."""
    if kind == "boltzmann":
        cls = ReferenceBoltzmannExplorer if reference else BoltzmannExplorer
        return cls(TemperatureSchedule(), rng=rng)
    cls = ReferenceEpsilonGreedyExplorer if reference else EpsilonGreedyExplorer
    return cls(rng=rng)


class _FixedUniform:
    """A stand-in generator whose ``random()`` always returns ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


class TestSelectIndexDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["boltzmann", "epsilon"]),
        # Uniform row lengths: 8 and up take numpy's array branch.
        values=st.integers(1, 12).flatmap(
            lambda n: st.lists(_q_values, min_size=n, max_size=n)
        ),
        sweeps=st.lists(st.integers(0, 400), min_size=1, max_size=4),
        draws=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_select_index_matches_select(
        self, kind, values, sweeps, draws, seed
    ):
        """Twin generators: same action on every draw, same final state.

        The row is the one the trainer draws from, a Q table's
        ``q_row``; rows of 8 or more actions take the array branch.
        Boltzmann draws are also probed at every step of the CDF that
        ``Generator.choice`` searches (and one ulp either side), so a
        weight off by one ulp fails even where a random draw would not
        notice it.
        """
        names = [f"A{i}" for i in range(len(values))]
        table = QTable(names)
        state = RecoveryState.initial("error:X")
        for name, value in zip(names, values):
            table.restore(state, name, value, 1)
        row = table.q_row(table.index.intern(state))
        q_values = dict(zip(names, values))
        fast_rng, slow_rng = make_rng(seed), make_rng(seed)
        fast = _explorer(kind, fast_rng)
        slow = _explorer(kind, slow_rng, reference=True)
        for sweep in sweeps:
            for _ in range(draws):
                picked = names[fast.select_index(row, sweep)]
                assert picked == slow.select(q_values, sweep)
            if kind == "boltzmann":
                # ``choice(n, p=p)``'s inverse CDF, as ``select`` draws.
                p = np.array(list(slow.probabilities(q_values, sweep).values()))
                cdf = p.cumsum()
                cdf /= cdf[-1]
                edges = {
                    float(uniform)
                    for edge in cdf[:-1].tolist()
                    for uniform in (
                        np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)
                    )
                    if uniform < 1.0  # ``random()`` draws from [0, 1)
                }
                for uniform in sorted(edges):
                    probe = BoltzmannExplorer(
                        TemperatureSchedule(), rng=_FixedUniform(uniform)
                    )
                    assert probe.select_index(row, sweep) == int(
                        cdf.searchsorted(uniform, side="right")
                    )
        assert (
            fast_rng.bit_generator.state == slow_rng.bit_generator.state
        )
