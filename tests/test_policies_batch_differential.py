"""Batch decide paths against per-state ``decide``.

``TrainedPolicy`` and ``UserDefinedPolicy`` answer a batch by coding
each distinct ``tried`` history once
(:func:`~repro.policies.base.history_codes`), and ``HybridPolicy``
routes the trained table's misses to its fallback in one more batch.
Whatever the batch holds, every row must be what ``decide`` returns for
its state (a miss row the very error ``decide`` raises), and where
``decide`` raises a :class:`~repro.errors.ConfigurationError` — a
terminal state — the batch must raise the first such error.  Hypothesis
drives batches of 0, 1, a few and more than 256 states that mix
repeated and unique histories, unknown error types, histories longer
than the table's, action names outside its vocabulary and terminal
states anywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions import default_catalog
from repro.errors import ConfigurationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies import HybridPolicy, TrainedPolicy, UserDefinedPolicy

CATALOG = default_catalog()
ACTIONS = tuple(CATALOG.names())
TYPES = ("error:A", "error:B", "error:C")
#: Names no rule table below holds: outside the vocabulary.
FOREIGN = ("error:Z", "FLASH")

HISTORIES = st.lists(
    st.sampled_from(ACTIONS + FOREIGN[1:]), max_size=5
).map(tuple)
RULE_HISTORIES = st.lists(st.sampled_from(ACTIONS), max_size=3).map(tuple)
COSTS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def rule_tables(draw):
    """A trained table over a subset of the types and actions."""
    rules = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(TYPES), RULE_HISTORIES).map(
                lambda key: RecoveryState(key[0], tried=key[1])
            ),
            st.tuples(st.sampled_from(ACTIONS), COSTS),
            max_size=12,
        )
    )
    return TrainedPolicy(rules)


@st.composite
def batches(draw, table=None):
    """States for one batch: a pool drawn with repeats, sized 0, 1, a
    few or past 256, and up to two terminal states at any positions."""
    pool = draw(
        st.lists(
            st.tuples(st.sampled_from(TYPES + FOREIGN[:1]), HISTORIES).map(
                lambda key: RecoveryState(key[0], tried=key[1])
            ),
            min_size=1,
            max_size=10,
        )
    )
    if table is not None and len(table):
        # The table's own states, so that rows hit too.
        pool += list(table.rules)
    size = draw(
        st.sampled_from((0, 1))
        | st.integers(min_value=2, max_value=24)
        | st.integers(min_value=257, max_value=300)
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    picks = np.random.default_rng(seed).integers(0, len(pool), size)
    states = [pool[pick] for pick in picks.tolist()]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        position = draw(st.integers(min_value=0, max_value=len(states)))
        terminal = RecoveryState(
            draw(st.sampled_from(TYPES)),
            healthy=True,
            tried=draw(HISTORIES.filter(bool)),
        )
        states.insert(position, terminal)
    return states


def _outcome(policy, state):
    """What ``decide`` returns for ``state``, or the error it raises."""
    try:
        return policy.decide(state)
    except (UnhandledStateError, ConfigurationError) as exc:
        return exc


def _assert_batch_matches_decide(policy, states):
    expected = [_outcome(policy, state) for state in states]
    raised = [
        outcome
        for outcome in expected
        if isinstance(outcome, ConfigurationError)
    ]
    if raised:
        with pytest.raises(ConfigurationError) as info:
            policy.decide_batch(states)
        assert type(info.value) is type(raised[0])
        assert str(info.value) == str(raised[0])
        return
    batch = policy.decide_batch(states)
    assert len(batch) == len(states)
    rows = list(batch)
    indexed = [batch[row] for row in range(len(batch))]
    for got, by_index, want in zip(rows, indexed, expected):
        if isinstance(want, UnhandledStateError):
            for row in (got, by_index):
                assert type(row) is UnhandledStateError
                assert str(row) == str(want)
                assert row.state == want.state
        else:
            assert got == by_index == want


class TestTrainedBatch:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), table=rule_tables())
    def test_rows_equal_decide(self, data, table):
        _assert_batch_matches_decide(table, data.draw(batches(table)))


class TestUserDefinedBatch:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        budgets=st.fixed_dictionaries(
            {name: st.integers(min_value=0, max_value=3) for name in ACTIONS[:-1]}
        ),
    )
    def test_rows_equal_decide(self, data, budgets):
        policy = UserDefinedPolicy(CATALOG, retry_budgets=budgets)
        _assert_batch_matches_decide(policy, data.draw(batches()))


class TestHybridBatch:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), table=rule_tables())
    def test_rows_and_fallback_counts_equal_decide(self, data, table):
        states = data.draw(batches(table))
        _assert_batch_matches_decide(
            HybridPolicy(table, UserDefinedPolicy(CATALOG)), states
        )
        if any(state.is_terminal for state in states):
            return
        one_by_one = HybridPolicy(table, UserDefinedPolicy(CATALOG))
        for state in states:
            one_by_one.decide(state)
        batched = HybridPolicy(table, UserDefinedPolicy(CATALOG))
        batched.decide_batch(states)
        assert batched.fallback_rate == one_by_one.fallback_rate
