"""The scan-based counted m-pattern miner, kept as a test-only reference.

This is :func:`repro.mining.mpattern.mine_m_patterns_from_counts` as it
was before candidates were counted on transaction-id sets: every
candidate is counted by scanning every distinct transaction for a
superset.  It is kept verbatim, together with the two helpers it calls.
The hypothesis property in ``test_mining_mpattern.py`` compares the
library miner's returned lists with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Mapping, Set

from repro.errors import MiningError
from repro.util.validation import check_probability

__all__ = ["mine_m_patterns_from_counts"]

Transaction = FrozenSet[str]
Pattern = FrozenSet[str]


def _counted_pattern_count(
    pattern: Pattern, transaction_counts: Mapping[Transaction, int]
) -> int:
    return sum(
        count
        for transaction, count in transaction_counts.items()
        if pattern <= transaction
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
    """
    check_probability("minp", minp)
    if minp == 0:
        raise MiningError("minp must be > 0")
    if min_size < 1:
        raise MiningError(f"min_size must be >= 1, got {min_size}")

    item_counts: Counter = Counter()
    for transaction, count in transaction_counts.items():
        for item in transaction:
            item_counts[item] += count

    # Level 1: every occurring item is an m-pattern by itself.
    current: Dict[Pattern, int] = {
        frozenset([item]): count
        for item, count in item_counts.items()
        if count >= min_support_count
    }
    all_patterns: List[Pattern] = []
    if min_size <= 1:
        all_patterns.extend(sorted(current, key=lambda p: sorted(p)))

    size = 1
    while current and (max_size <= 0 or size < max_size):
        size += 1
        candidates = _join_candidates(set(current))
        next_level: Dict[Pattern, int] = {}
        for candidate in candidates:
            # Apriori prune: all (size-1)-subsets must be m-patterns.
            if any(
                candidate - {item} not in current for item in candidate
            ):
                continue
            together = _counted_pattern_count(candidate, transaction_counts)
            if together < min_support_count:
                continue
            if all(
                together / item_counts[item] >= minp for item in candidate
            ):
                next_level[candidate] = together
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
