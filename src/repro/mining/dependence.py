"""Symptom co-occurrence counting and pairwise mutual dependence.

The dependence of a symptom set ``P`` with respect to a member symptom
``i`` is ``count(all of P co-occur) / count(i occurs)`` — the ratio the
paper uses to call symptoms "highly related".  A set is *mutually
dependent* at strength ``minp`` when the ratio is at least ``minp`` for
every member.

The counts live in flat arrays: symptoms are interned to dense integer
ids on first sight, occurrence counts are one ``int64`` vector, and pair
counts are the upper triangle of one square ``int64`` matrix, both grown
geometrically as new symptoms appear.  Counting goes by distinct set:
:meth:`SymptomCooccurrence.add` takes a multiplicity, and
:meth:`~SymptomCooccurrence.update` counts equal sets first, so each
distinct set is folded once.  Symptom sets repeat heavily (the ``ingest``
benchmark's 7,802 processes show 384 distinct sets), which is why the
streaming miner keeps only the distinct-set multiset per process and
folds it into a fresh instance when its counts are read.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.errors import MiningError

__all__ = ["SymptomCooccurrence"]

Transaction = FrozenSet[str]

_INITIAL_CAPACITY = 16


class SymptomCooccurrence:
    """Occurrence and pairwise co-occurrence counts over transactions.

    A *transaction* is one recovery process's distinct symptom set.
    Instances start empty and accumulate through :meth:`add` /
    :meth:`update`; the batch classmethod is a one-shot convenience::

        cooc = SymptomCooccurrence.from_transactions(sets)
        cooc.pair_dependence("error:A", "warn:B")

        folded = SymptomCooccurrence()
        for transaction, count in Counter(sets).items():
            folded.add(transaction, count)   # the same counts
    """

    def __init__(self) -> None:
        self._transaction_count = 0
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        self._item_counts = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        # Upper triangle (row < col) of the pair-count matrix; the lower
        # triangle and diagonal stay zero.
        self._pair_counts = np.zeros(
            (_INITIAL_CAPACITY, _INITIAL_CAPACITY), dtype=np.int64
        )

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Transaction]
    ) -> "SymptomCooccurrence":
        """Count items and pairs across ``transactions``."""
        return cls().update(transactions)

    # ------------------------------------------------------------------
    # Incremental counting
    # ------------------------------------------------------------------
    def _intern(self, symptom: str) -> int:
        index = self._index.get(symptom)
        if index is None:
            index = len(self._names)
            if index >= self._item_counts.shape[0]:
                self._grow(index + 1)
            self._index[symptom] = index
            self._names.append(symptom)
        return index

    def _grow(self, needed: int) -> None:
        capacity = self._item_counts.shape[0]
        while capacity < needed:
            capacity *= 2
        items = np.zeros(capacity, dtype=np.int64)
        items[: self._item_counts.shape[0]] = self._item_counts
        pairs = np.zeros((capacity, capacity), dtype=np.int64)
        n = self._pair_counts.shape[0]
        pairs[:n, :n] = self._pair_counts
        self._item_counts = items
        self._pair_counts = pairs

    def add(self, transaction: Iterable[str], count: int = 1) -> None:
        """Count one transaction (a distinct-symptom set) ``count`` times."""
        if count < 1:
            raise MiningError(f"a transaction's count must be >= 1, got {count}")
        # Interning in sorted order keeps id assignment deterministic
        # for a given stream regardless of the input set's hash order.
        ids = [self._intern(symptom) for symptom in sorted(set(transaction))]
        self._transaction_count += count
        if not ids:
            return
        self._item_counts[ids] += count
        pairs = self._pair_counts
        for position, row in enumerate(ids):
            for col in ids[position + 1 :]:
                if row < col:
                    pairs[row, col] += count
                else:
                    pairs[col, row] += count

    def update(
        self, transactions: Iterable[Transaction]
    ) -> "SymptomCooccurrence":
        """Count many transactions; returns ``self`` for chaining.

        Equal sets are counted first and each distinct set is folded
        once, by its multiplicity, in order of first occurrence.
        """
        for transaction, count in Counter(map(frozenset, transactions)).items():
            self.add(transaction, count)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def transaction_count(self) -> int:
        """Number of transactions counted."""
        return self._transaction_count

    @property
    def symptom_count(self) -> int:
        """Number of distinct symptoms observed."""
        return len(self._names)

    @property
    def items(self) -> Tuple[str, ...]:
        """All observed symptoms, sorted."""
        return tuple(sorted(self._index))

    def count(self, item: str) -> int:
        """How many transactions contain ``item``."""
        index = self._index.get(item)
        if index is None:
            return 0
        return int(self._item_counts[index])

    def pair_count(self, a: str, b: str) -> int:
        """How many transactions contain both ``a`` and ``b``."""
        if a == b:
            return self.count(a)
        index_a = self._index.get(a)
        index_b = self._index.get(b)
        if index_a is None or index_b is None:
            return 0
        if index_a > index_b:
            index_a, index_b = index_b, index_a
        return int(self._pair_counts[index_a, index_b])

    def support(self, item: str) -> float:
        """Fraction of transactions containing ``item``."""
        if self._transaction_count == 0:
            return 0.0
        return self.count(item) / self._transaction_count

    def dependence_given(self, item: str, other: str) -> float:
        """``P(item and other co-occur | item occurs)``."""
        denominator = self.count(item)
        if denominator == 0:
            raise MiningError(f"symptom {item!r} never occurs")
        return self.pair_count(item, other) / denominator

    def pair_dependence(self, a: str, b: str) -> float:
        """Mutual dependence of the pair: the minimum of both ratios."""
        return min(self.dependence_given(a, b), self.dependence_given(b, a))

    def dependent_pairs(self, minp: float) -> List[Tuple[str, str]]:
        """All pairs whose mutual dependence is at least ``minp``.

        Pairs are ``(a, b)`` with ``a < b`` lexicographically, and the
        list is sorted — the order does not depend on interning history.
        """
        n = len(self._names)
        if n == 0:
            return []
        counts = self._pair_counts[:n, :n]
        rows, cols = np.nonzero(counts)
        if rows.size == 0:
            return []
        both = counts[rows, cols].astype(np.float64)
        ratio = np.minimum(
            both / self._item_counts[rows], both / self._item_counts[cols]
        )
        keep = ratio >= minp
        pairs = []
        names = self._names
        for row, col in zip(rows[keep], cols[keep]):
            a, b = names[row], names[col]
            if a > b:
                a, b = b, a
            pairs.append((a, b))
        pairs.sort()
        return pairs
