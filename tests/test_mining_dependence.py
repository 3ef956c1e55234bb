"""Tests for symptom co-occurrence counting."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.mining.dependence import SymptomCooccurrence
from repro.mining.streaming import StreamingMiner
from repro.recoverylog.entry import LogEntry


@pytest.fixture
def cooc():
    transactions = [
        frozenset({"a", "b"}),
        frozenset({"a", "b", "c"}),
        frozenset({"a"}),
        frozenset({"c"}),
    ]
    return SymptomCooccurrence.from_transactions(transactions)


class TestCounts:
    def test_transaction_count(self, cooc):
        assert cooc.transaction_count == 4

    def test_item_counts(self, cooc):
        assert cooc.count("a") == 3
        assert cooc.count("c") == 2
        assert cooc.count("missing") == 0

    def test_pair_counts_symmetric(self, cooc):
        assert cooc.pair_count("a", "b") == 2
        assert cooc.pair_count("b", "a") == 2

    def test_pair_count_self_is_item_count(self, cooc):
        assert cooc.pair_count("a", "a") == 3

    def test_support(self, cooc):
        assert cooc.support("a") == pytest.approx(0.75)

    def test_items_sorted(self, cooc):
        assert cooc.items == ("a", "b", "c")


class TestDependence:
    def test_dependence_given(self, cooc):
        assert cooc.dependence_given("b", "a") == pytest.approx(1.0)
        assert cooc.dependence_given("a", "b") == pytest.approx(2 / 3)

    def test_pair_dependence_is_minimum(self, cooc):
        assert cooc.pair_dependence("a", "b") == pytest.approx(2 / 3)

    def test_unknown_item_raises(self, cooc):
        with pytest.raises(MiningError):
            cooc.dependence_given("missing", "a")

    def test_dependent_pairs_thresholding(self, cooc):
        pairs_low = set(cooc.dependent_pairs(0.3))
        pairs_high = set(cooc.dependent_pairs(0.9))
        assert ("a", "b") in pairs_low
        assert ("a", "b") not in pairs_high

    def test_dependent_pairs_subset_property(self, cooc):
        # Raising minp can only shrink the pair set.
        low = set(cooc.dependent_pairs(0.2))
        high = set(cooc.dependent_pairs(0.6))
        assert high <= low

    def test_empty_transactions(self):
        cooc = SymptomCooccurrence.from_transactions([])
        assert cooc.transaction_count == 0
        assert cooc.support("x") == 0.0
        assert cooc.dependent_pairs(0.5) == []


class TestIncrementalUpdates:
    TRANSACTIONS = [
        frozenset({"a", "b"}),
        frozenset({"a", "b", "c"}),
        frozenset({"a"}),
        frozenset({"c", "d"}),
        frozenset({"b", "d"}),
        frozenset({"e"}),
    ]

    def test_incremental_equals_batch(self):
        batch = SymptomCooccurrence.from_transactions(self.TRANSACTIONS)
        incremental = SymptomCooccurrence()
        incremental.update(self.TRANSACTIONS[:2])
        for transaction in self.TRANSACTIONS[2:]:
            incremental.add(transaction)
        assert incremental.items == batch.items
        assert incremental.transaction_count == batch.transaction_count
        for item in batch.items:
            assert incremental.count(item) == batch.count(item)
        items = batch.items
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                assert incremental.pair_count(a, b) == batch.pair_count(a, b)

    def test_dependent_pairs_independent_of_insertion_order(self):
        forward = SymptomCooccurrence.from_transactions(self.TRANSACTIONS)
        backward = SymptomCooccurrence.from_transactions(
            list(reversed(self.TRANSACTIONS))
        )
        assert forward.dependent_pairs(0.3) == backward.dependent_pairs(0.3)

    def test_update_returns_self_for_chaining(self):
        cooc = SymptomCooccurrence().update(self.TRANSACTIONS)
        assert cooc.transaction_count == len(self.TRANSACTIONS)

    def test_capacity_growth_preserves_counts(self):
        # Force several geometric growths past the initial capacity.
        singles = [frozenset({f"sym-{i:03d}"}) for i in range(200)]
        cooc = SymptomCooccurrence().update(singles)
        assert cooc.symptom_count == 200
        assert all(cooc.count(f"sym-{i:03d}") == 1 for i in range(200))

    def test_duplicate_items_in_transaction_counted_once(self):
        cooc = SymptomCooccurrence()
        cooc.add(["a", "a", "b"])
        assert cooc.count("a") == 1
        assert cooc.pair_count("a", "b") == 1


class TestWeightedCounts:
    def test_count_is_a_multiplicity(self):
        weighted = SymptomCooccurrence()
        weighted.add(frozenset({"a", "b"}), 3)
        repeated = SymptomCooccurrence().update([frozenset({"a", "b"})] * 3)
        for cooc in (weighted, repeated):
            assert cooc.transaction_count == 3
            assert cooc.count("a") == 3
            assert cooc.pair_count("a", "b") == 3

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_refused(self, count):
        cooc = SymptomCooccurrence()
        with pytest.raises(MiningError, match="count must be >= 1"):
            cooc.add(frozenset({"a"}), count)
        assert cooc.transaction_count == 0 and cooc.items == ()

    def test_symptoms_intern_in_first_occurrence_order(self):
        cooc = SymptomCooccurrence().update(
            [frozenset({"c", "a"}), frozenset({"b"}), frozenset({"a", "c"})]
        )
        assert cooc._names == ["a", "c", "b"]


_SYMPTOMS = [f"error:S{index:02d}" for index in range(12)]
_MINPS = (0.05, 0.3, 0.5, 0.75, 1.0)

_symptom_sets = st.one_of(
    st.sampled_from(_SYMPTOMS).map(lambda name: frozenset({name})),
    st.frozensets(st.sampled_from(_SYMPTOMS), min_size=2, max_size=4),
    st.frozensets(st.sampled_from(_SYMPTOMS), min_size=8),
)


@st.composite
def _transactions(draw):
    """Symptom sets drawn from a small pool, so most of them repeat."""
    pool = draw(st.lists(_symptom_sets, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


def _brute_force(transactions):
    """Per-transaction dict counts of items and of sorted pairs."""
    items, pairs = {}, {}
    for transaction in transactions:
        for item in transaction:
            items[item] = items.get(item, 0) + 1
        for pair in combinations(sorted(transaction), 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    return items, pairs


def _assert_counts(cooc, transactions):
    items, pairs = _brute_force(transactions)
    assert cooc.items == tuple(sorted(items))
    assert cooc.transaction_count == len(transactions)
    for item in _SYMPTOMS:
        assert cooc.count(item) == items.get(item, 0)
    for a, b in combinations(_SYMPTOMS, 2):
        assert cooc.pair_count(a, b) == pairs.get((a, b), 0)
        assert cooc.pair_count(b, a) == pairs.get((a, b), 0)
    for minp in _MINPS:
        assert cooc.dependent_pairs(minp) == sorted(
            (a, b)
            for (a, b), both in pairs.items()
            if min(both / items[a], both / items[b]) >= minp
        )


def _stream(transactions):
    """One machine's log: a process per transaction, one after another."""
    entries = []
    for index, transaction in enumerate(transactions):
        start = 100.0 * index
        for offset, symptom in enumerate(sorted(transaction)):
            entries.append(LogEntry.symptom(start + offset, "m", symptom))
        entries.append(LogEntry.success(start + 50.0, "m"))
    return entries


class TestCountsAgainstBruteForce:
    @given(transactions=_transactions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_eager_folded_and_brute_force_agree(self, transactions, data):
        _assert_counts(
            SymptomCooccurrence.from_transactions(transactions), transactions
        )
        entries = _stream(transactions)
        cuts = data.draw(
            st.lists(st.integers(0, len(entries)), max_size=5).map(sorted)
        )
        bounds = [0, *cuts, len(entries)]
        miner = StreamingMiner()
        for start, stop in zip(bounds, bounds[1:]):
            miner.feed(entries[start:stop])
            # Read between chunks: a later observation must refold.
            _assert_counts(
                miner.cooccurrence, transactions[: miner.process_count]
            )
        assert miner.process_count == len(transactions)
