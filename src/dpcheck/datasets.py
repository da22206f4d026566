"""Histogram datasets, their adjacent pairs, and counting queries.

A dataset is a histogram: entry ``i`` counts the records of type ``i``.
Two datasets are adjacent when their L1 distance is at most 1, i.e. one
record was added, removed, or changed in type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapacityError, ValidationError

DEFAULT_ENUMERATION_BUDGET = 200_000


def is_json_int(value) -> bool:
    """True for a JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def nth_total(xs: Sequence, i: int, default=0):
    """Total list indexing: out-of-range positions yield ``default``."""
    if 0 <= i < len(xs):
        return xs[i]
    return default


@dataclass(frozen=True)
class Dataset:
    """Fixed-length histogram of nonnegative record counts."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        if not all(is_json_int(c) and c >= 0 for c in counts):
            raise ValidationError("histogram entries must be non-negative integers")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return len(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __iter__(self):
        return iter(self.counts)

    def to_json(self) -> dict:
        return {"histogram": list(self.counts)}

    @staticmethod
    def from_json(obj: dict) -> "Dataset":
        if not isinstance(obj, dict) or "histogram" not in obj:
            raise ValidationError("dataset JSON must be {'histogram': [int, ...]}")
        return Dataset(tuple(obj["histogram"]))


def _as_counts(xs) -> tuple[int, ...]:
    return xs.counts if isinstance(xs, Dataset) else tuple(xs)


@dataclass(frozen=True)
class CountingQuerySet:
    """A tuple of counting queries over histograms of length ``n``.

    Query ``i`` sums the histogram entries whose type belongs to
    ``predicates[i]``.
    """

    n: int
    predicates: tuple[frozenset[int], ...]

    def __post_init__(self):
        preds = tuple(frozenset(int(j) for j in p) for p in self.predicates)
        for i, p in enumerate(preds):
            if any(j < 0 or j >= self.n for j in p):
                raise ValidationError(f"query {i} references a type outside 0..{self.n - 1}")
        object.__setattr__(self, "predicates", preds)

    @property
    def m(self) -> int:
        return len(self.predicates)

    def to_json(self) -> dict:
        return {"n": self.n, "queries": [sorted(p) for p in self.predicates]}

    @staticmethod
    def from_json(obj: dict) -> "CountingQuerySet":
        if not isinstance(obj, dict) or "n" not in obj or "queries" not in obj:
            raise ValidationError("query set JSON must be {'n': int, 'queries': [[indices], ...]}")
        n, queries = obj["n"], [list(q) for q in obj["queries"]]
        if not all(map(is_json_int, [n, *itertools.chain(*queries)])):
            raise ValidationError("query set n and indices must be integers")
        return CountingQuerySet(n, tuple(frozenset(q) for q in queries))


def counting(q: CountingQuerySet, i: int, xs) -> int:
    """Value of the i-th counting query on ``xs``."""
    if not 0 <= i < q.m:
        raise IndexError(f"query index {i} out of range (m={q.m})")
    counts = _as_counts(xs)
    return sum(nth_total(counts, j, 0) for j in q.predicates[i])


def counting_query(q: CountingQuerySet, xs) -> tuple[int, ...]:
    """The full query tuple (q_0(D), ..., q_{m-1}(D))."""
    return tuple(counting(q, i, xs) for i in range(q.m))


def enumerate_datasets(n: int, max_entry: int) -> Iterator[Dataset]:
    """All histograms of length n with entries in 0..max_entry."""
    for counts in itertools.product(range(max_entry + 1), repeat=n):
        yield Dataset(counts)


def pairs_within_distance(
    n: int, max_entry: int, k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[tuple[Dataset, Dataset]]:
    """All unordered pairs (D, D') with entries <= max_entry and ||D - D'||_1 <= k.

    Includes the diagonal pairs (D, D).  Each D, in lexicographic order, is
    paired with D + o over the lexicographically nonnegative offsets o of L1
    norm <= k, in lexicographic order: the order of a scan over D <= D'.
    Guarded by an enumeration budget.
    """
    total = (max_entry + 1) ** n
    if total * total > budget:
        raise CapacityError(
            f"{total}^2 candidate pairs exceed enumeration budget {budget}"
        )
    datasets = {d.counts: d for d in enumerate_datasets(n, max_entry)}
    r = min(k, max_entry)  # no coordinate can move further
    offsets = [
        o
        for o in itertools.product(range(-r, r + 1), repeat=n)
        if o >= (0,) * n and sum(map(abs, o)) <= k
    ]
    return [
        (a, b)
        for counts, a in datasets.items()
        for o in offsets
        if (b := datasets.get(tuple(x + dx for x, dx in zip(counts, o)))) is not None
    ]


def counting_sensitivity_analytic(q: CountingQuerySet) -> int:
    """Tight L1 sensitivity of a counting-query tuple.

    A 1-adjacent change moves one record of some type t, shifting exactly
    the queries whose predicate contains t by one.  The sensitivity is the
    largest number of predicates sharing a type.
    """
    if q.n == 0:
        return 0
    return max(sum(1 for p in q.predicates if t in p) for t in range(q.n))
