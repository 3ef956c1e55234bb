"""The m-pattern mining algorithm (Ma & Hellerstein, 2002).

A symptom set ``P`` is an **m-pattern** at strength ``minp`` when, for
every member ``i``, the fraction of transactions containing ``i`` that
contain *all* of ``P`` is at least ``minp``.  Unlike frequent itemsets,
m-patterns capture *infrequent but highly correlated* items — exactly the
structure of fault symptoms, which are rare individually but co-occur
tightly.

Mutual dependence is downward closed (every subset of an m-pattern is an
m-pattern, because removing items can only increase the co-occurrence
count), so a level-wise Apriori-style search is sound and complete.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set

from repro.errors import MiningError
from repro.util.validation import check_probability

__all__ = [
    "mine_m_patterns",
    "mine_m_patterns_from_counts",
    "is_m_pattern",
    "maximal_patterns",
]

Transaction = FrozenSet[str]
Pattern = FrozenSet[str]


def _pattern_count(pattern: Pattern, transactions: Sequence[Transaction]) -> int:
    return sum(1 for t in transactions if pattern <= t)


def is_m_pattern(
    pattern: Iterable[str],
    transactions: Sequence[Transaction],
    minp: float,
) -> bool:
    """Check the m-pattern property directly from transactions.

    Quadratic reference implementation used by tests to validate the
    miner; prefer :func:`mine_m_patterns` for discovery.
    """
    check_probability("minp", minp)
    pattern_set = frozenset(pattern)
    if not pattern_set:
        raise MiningError("the empty pattern is not meaningful")
    together = _pattern_count(pattern_set, transactions)
    for item in pattern_set:
        alone = sum(1 for t in transactions if item in t)
        if alone == 0:
            return False
        if together / alone < minp:
            return False
    return True


def mine_m_patterns(
    transactions: Sequence[Transaction],
    minp: float,
    *,
    min_size: int = 2,
    max_size: int = 0,
    min_support_count: int = 1,
) -> List[Pattern]:
    """Mine all m-patterns at strength ``minp``.

    Parameters
    ----------
    transactions:
        One distinct-symptom set per recovery process.
    minp:
        Mutual-dependence threshold in (0, 1].
    min_size:
        Smallest pattern size to report (singletons are trivially
        m-patterns, so the default reports pairs and up).
    max_size:
        Largest pattern size to search (0 = unbounded).
    min_support_count:
        Patterns must co-occur in at least this many transactions.

    Returns patterns sorted by (size, lexicographic members).
    """
    return mine_m_patterns_from_counts(
        Counter(frozenset(t) for t in transactions),
        minp,
        min_size=min_size,
        max_size=max_size,
        min_support_count=min_support_count,
    )


def mine_m_patterns_from_counts(
    transaction_counts: Mapping[Transaction, int],
    minp: float,
    *,
    min_size: int = 2,
    max_size: int = 0,
    min_support_count: int = 1,
) -> List[Pattern]:
    """Mine all m-patterns from a distinct-transaction multiset.

    ``transaction_counts`` maps each *distinct* transaction to its
    multiplicity — the representation a streaming consumer maintains
    incrementally (the number of distinct symptom sets is bounded by
    symptom diversity, not log length).  Results are identical to
    :func:`mine_m_patterns` over the expanded transaction sequence.

    Each pattern keeps the ids of the distinct transactions containing
    it; a candidate's transactions are one subset's ids intersected with
    the missing item's, so no candidate rescans the transactions.
    """
    check_probability("minp", minp)
    if minp == 0:
        raise MiningError("minp must be > 0")
    if min_size < 1:
        raise MiningError(f"min_size must be >= 1, got {min_size}")

    weights: List[int] = []
    item_ids: Dict[str, Set[int]] = {}
    item_counts: Counter = Counter()
    for tid, (transaction, count) in enumerate(transaction_counts.items()):
        weights.append(count)
        for item in transaction:
            item_ids.setdefault(item, set()).add(tid)
            item_counts[item] += count

    # Level 1: every occurring item is an m-pattern by itself.
    current: Dict[Pattern, Set[int]] = {
        frozenset([item]): ids
        for item, ids in item_ids.items()
        if item_counts[item] >= min_support_count
    }
    all_patterns: List[Pattern] = []
    if min_size <= 1:
        all_patterns.extend(sorted(current, key=lambda p: sorted(p)))

    size = 1
    while current and (max_size <= 0 or size < max_size):
        size += 1
        candidates = _join_candidates(set(current))
        next_level: Dict[Pattern, Set[int]] = {}
        for candidate in candidates:
            # Apriori prune: all (size-1)-subsets must be m-patterns.
            if any(
                candidate - {item} not in current for item in candidate
            ):
                continue
            item = next(iter(candidate))
            ids = current[candidate - {item}] & item_ids[item]
            together = sum(weights[tid] for tid in ids)
            if together < min_support_count:
                continue
            if all(
                together / item_counts[item] >= minp for item in candidate
            ):
                next_level[candidate] = ids
        if min_size <= size:
            all_patterns.extend(sorted(next_level, key=lambda p: sorted(p)))
        current = next_level
    return all_patterns


def _join_candidates(level: Set[Pattern]) -> Set[Pattern]:
    """Apriori join: unions of same-level patterns differing in one item."""
    candidates: Set[Pattern] = set()
    patterns = sorted(level, key=lambda p: sorted(p))
    for i, a in enumerate(patterns):
        for b in patterns[i + 1:]:
            union = a | b
            if len(union) == len(a) + 1:
                candidates.add(union)
    return candidates


def maximal_patterns(patterns: Iterable[Pattern]) -> List[Pattern]:
    """Drop patterns contained in a larger pattern from the collection."""
    pattern_list = sorted(set(patterns), key=len, reverse=True)
    maximal: List[Pattern] = []
    for pattern in pattern_list:
        if not any(pattern < kept for kept in maximal):
            maximal.append(pattern)
    return sorted(maximal, key=lambda p: (len(p), sorted(p)))
