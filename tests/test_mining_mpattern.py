"""Tests for the m-pattern miner, including hypothesis property tests."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_mining import (
    mine_m_patterns_from_counts as scan_mine_m_patterns_from_counts,
)
from repro.errors import MiningError
from repro.mining.mpattern import (
    is_m_pattern,
    maximal_patterns,
    mine_m_patterns,
    mine_m_patterns_from_counts,
)


def T(*sets):
    return [frozenset(s) for s in sets]


class TestIsMPattern:
    def test_perfect_cooccurrence(self):
        transactions = T({"a", "b"}, {"a", "b"}, {"c"})
        assert is_m_pattern({"a", "b"}, transactions, 1.0)

    def test_partial_cooccurrence(self):
        transactions = T({"a", "b"}, {"a"}, {"b"})
        assert is_m_pattern({"a", "b"}, transactions, 0.5)
        assert not is_m_pattern({"a", "b"}, transactions, 0.6)

    def test_absent_item_fails(self):
        assert not is_m_pattern({"zzz"}, T({"a"}), 0.1)

    def test_empty_pattern_rejected(self):
        with pytest.raises(MiningError):
            is_m_pattern([], T({"a"}), 0.5)

    def test_singletons_trivially_m_patterns(self):
        assert is_m_pattern({"a"}, T({"a"}, {"a", "b"}), 1.0)


class TestMineMPatterns:
    def test_finds_cohesive_pair(self):
        transactions = T(*[{"a", "b"}] * 9, {"a"})
        patterns = mine_m_patterns(transactions, 0.5)
        assert frozenset({"a", "b"}) in patterns

    def test_respects_minp(self):
        transactions = T({"a", "b"}, {"a"}, {"a"}, {"b"})
        assert frozenset({"a", "b"}) not in mine_m_patterns(transactions, 0.5)

    def test_finds_triple(self):
        transactions = T(*[{"x", "y", "z"}] * 5, {"q"})
        patterns = mine_m_patterns(transactions, 0.9)
        assert frozenset({"x", "y", "z"}) in patterns

    def test_infrequent_but_correlated_found(self):
        # The m-pattern selling point: {a, b} occurs in only 2 of 100
        # transactions but is perfectly mutually dependent.
        transactions = T({"a", "b"}, {"a", "b"}) + [
            frozenset({f"noise{i}"}) for i in range(98)
        ]
        patterns = mine_m_patterns(transactions, 1.0)
        assert frozenset({"a", "b"}) in patterns

    def test_min_size_one_reports_singletons(self):
        patterns = mine_m_patterns(T({"a"}, {"b"}), 0.5, min_size=1)
        assert frozenset({"a"}) in patterns

    def test_max_size_limits_search(self):
        transactions = T(*[{"x", "y", "z"}] * 5)
        patterns = mine_m_patterns(transactions, 0.9, max_size=2)
        assert all(len(p) <= 2 for p in patterns)

    def test_min_support_count(self):
        transactions = T({"a", "b"}, {"c", "d"}, {"c", "d"})
        patterns = mine_m_patterns(
            transactions, 0.5, min_support_count=2
        )
        assert frozenset({"a", "b"}) not in patterns
        assert frozenset({"c", "d"}) in patterns

    def test_zero_minp_rejected(self):
        with pytest.raises(MiningError):
            mine_m_patterns(T({"a"}), 0.0)


symptom = st.sampled_from(["a", "b", "c", "d", "e"])
transaction = st.frozensets(symptom, min_size=1, max_size=4)
transactions_strategy = st.lists(transaction, min_size=1, max_size=25)
minp_strategy = st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0])


class TestMinerProperties:
    @given(transactions=transactions_strategy, minp=minp_strategy)
    @settings(max_examples=60, deadline=None)
    def test_miner_matches_reference_check(self, transactions, minp):
        """Every mined pattern satisfies the definitional check."""
        for pattern in mine_m_patterns(transactions, minp):
            assert is_m_pattern(pattern, transactions, minp)

    @given(transactions=transactions_strategy, minp=minp_strategy)
    @settings(max_examples=60, deadline=None)
    def test_miner_is_complete_for_pairs(self, transactions, minp):
        """Every dependent pair is found (completeness at level 2)."""
        mined = set(mine_m_patterns(transactions, minp, max_size=2))
        items = sorted({i for t in transactions for i in t})
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if is_m_pattern({a, b}, transactions, minp):
                    assert frozenset({a, b}) in mined

    @given(transactions=transactions_strategy, minp=minp_strategy)
    @settings(max_examples=60, deadline=None)
    def test_downward_closure(self, transactions, minp):
        """Subsets of mined patterns are themselves m-patterns."""
        for pattern in mine_m_patterns(transactions, minp):
            for item in pattern:
                subset = pattern - {item}
                if subset:
                    assert is_m_pattern(subset, transactions, minp)

    @given(transactions=transactions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_minp(self, transactions):
        """Raising minp never adds patterns."""
        loose = set(mine_m_patterns(transactions, 0.3))
        strict = set(mine_m_patterns(transactions, 0.8))
        assert strict <= loose


class TestMaximalPatterns:
    def test_drops_contained_patterns(self):
        patterns = [
            frozenset({"a"}),
            frozenset({"a", "b"}),
            frozenset({"c"}),
        ]
        maximal = maximal_patterns(patterns)
        assert frozenset({"a"}) not in maximal
        assert frozenset({"a", "b"}) in maximal
        assert frozenset({"c"}) in maximal

    def test_duplicates_collapsed(self):
        patterns = [frozenset({"a"}), frozenset({"a"})]
        assert maximal_patterns(patterns) == [frozenset({"a"})]

    def test_empty_input(self):
        assert maximal_patterns([]) == []


class TestCountedMiner:
    def test_counted_equals_expanded_sequence(self):
        transactions = [
            frozenset({"a", "b"}),
            frozenset({"a", "b"}),
            frozenset({"a", "b", "c"}),
            frozenset({"c"}),
            frozenset({"a"}),
        ]
        counts = Counter(transactions)
        for minp in (0.2, 0.5, 0.8, 1.0):
            expanded = mine_m_patterns(transactions, minp)
            counted = mine_m_patterns_from_counts(counts, minp)
            assert sorted(counted, key=sorted) == sorted(
                expanded, key=sorted
            )

    def test_multiplicity_matters(self):
        # Two copies of {a, b} against one lone {a}: pair dependence
        # of (a, b) is 2/3, which clears minp=0.6 only because the
        # duplicate is weighted.
        counts = Counter(
            {frozenset({"a", "b"}): 2, frozenset({"a"}): 1}
        )
        assert frozenset({"a", "b"}) in mine_m_patterns_from_counts(
            counts, 0.6
        )
        assert frozenset({"a", "b"}) not in mine_m_patterns_from_counts(
            Counter({frozenset({"a", "b"}): 1, frozenset({"a"}): 1}), 0.6
        )

    def test_min_support_count_uses_weighted_support(self):
        counts = Counter({frozenset({"a", "b"}): 3})
        assert mine_m_patterns_from_counts(
            counts, 0.5, min_support_count=3
        )
        assert not mine_m_patterns_from_counts(
            counts, 0.5, min_support_count=4
        )


# Weighted multisets of transactions: empty, singletons, repeated
# (multiplicity > 1) and wide transactions over a small alphabet, so
# patterns of every size actually occur.
_ITEMS = st.sampled_from([f"s{i}" for i in range(8)])
_WEIGHTED = st.dictionaries(
    st.one_of(
        st.frozensets(_ITEMS, max_size=3),
        st.frozensets(_ITEMS, min_size=5, max_size=8),
    ),
    st.integers(1, 6),
    max_size=10,
)


class TestTransactionIdCounting:
    """The id-set miner against the frozen scan-based reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        counts=_WEIGHTED,
        minp=st.one_of(
            st.sampled_from([1.0, 0.5]),
            st.floats(0.0, 1.0, exclude_min=True),
        ),
        min_size=st.integers(1, 3),
        max_size=st.integers(0, 3),
        min_support_count=st.integers(0, 5),
    )
    def test_equals_scan_reference(
        self, counts, minp, min_size, max_size, min_support_count
    ):
        options = dict(
            min_size=min_size,
            max_size=max_size,
            min_support_count=min_support_count,
        )
        assert mine_m_patterns_from_counts(
            counts, minp, **options
        ) == scan_mine_m_patterns_from_counts(counts, minp, **options)
