"""Histogram datasets, the L1 metric, adjacency relations, and counting queries.

A dataset is a histogram: entry ``i`` counts the records of type ``i``.
Two datasets are adjacent when their L1 distance is at most 1, i.e. one
record was added, removed, or changed in type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapacityError, DimensionError, InfeasibleError, ValidationError

DEFAULT_ENUMERATION_BUDGET = 200_000


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
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValidationError(f"histogram entries must be >= 0, got {counts}")
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


def dist_l1(xs, ys) -> int:
    """L1 distance between two histograms of equal length."""
    a, b = _as_counts(xs), _as_counts(ys)
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(abs(x - y) for x, y in zip(a, b))


def is_adjacent(xs, ys, k: int = 1) -> bool:
    """True iff the histograms are within L1 distance ``k``."""
    if k < 0:
        raise ValidationError("radius k must be >= 0")
    return dist_l1(xs, ys) <= k


@dataclass(frozen=True)
class AdjacencyRelation:
    """The symmetric relation {(D, D') : ||D - D'||_1 <= k} on length-n histograms."""

    n: int
    k: int = 1

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValidationError("n and k must be >= 0")

    def contains(self, xs, ys) -> bool:
        a, b = _as_counts(xs), _as_counts(ys)
        if len(a) != self.n or len(b) != self.n:
            raise DimensionError(f"expected histograms of length {self.n}")
        return dist_l1(a, b) <= self.k

    def pairs(self, max_entry: int, budget: int = DEFAULT_ENUMERATION_BUDGET):
        """All unordered pairs of the relation with entries <= max_entry."""
        return pairs_within_distance(self.n, max_entry, self.k, budget=budget)


def adjacency_chain(xs, ys, k: int) -> list[Dataset]:
    """Stepwise path from ``xs`` to ``ys`` moving one unit of one coordinate at a time.

    Witnesses that a pair at distance <= k lies in the k-th power of
    1-adjacency.  Coordinates are adjusted left to right; the chain has at
    most k+1 entries and consecutive entries are 1-adjacent.
    """
    a, b = _as_counts(xs), _as_counts(ys)
    d = dist_l1(a, b)
    if d > k:
        raise InfeasibleError(f"distance {d} exceeds radius {k}; no chain exists")
    chain = [Dataset(a)]
    cur = list(a)
    for i in range(len(cur)):
        while cur[i] != b[i]:
            cur[i] += 1 if b[i] > cur[i] else -1
            chain.append(Dataset(tuple(cur)))
    return chain


def chain_is_valid(chain: Sequence[Dataset], xs, ys, k: int) -> bool:
    """Does the chain witness that (xs, ys) lies in the k-th adjacency power?"""
    if not chain or len(chain) > k + 1:
        return False
    if chain[0].counts != _as_counts(xs) or chain[-1].counts != _as_counts(ys):
        return False
    return all(dist_l1(a, b) <= 1 for a, b in zip(chain, chain[1:]))


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
        return CountingQuerySet(int(obj["n"]), tuple(frozenset(q) for q in obj["queries"]))


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


def _neighbors_within(counts: tuple[int, ...], max_entry: int) -> Iterator[tuple[int, ...]]:
    # single-coordinate +-1 moves staying inside the entry bound
    for i, c in enumerate(counts):
        if c + 1 <= max_entry:
            yield counts[:i] + (c + 1,) + counts[i + 1 :]
        if c - 1 >= 0:
            yield counts[:i] + (c - 1,) + counts[i + 1 :]


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


def counting_sensitivity_exhaustive(
    q: CountingQuerySet, max_entry: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> int:
    """Exhaustive L1 sensitivity of the query tuple over 1-adjacent pairs.

    Enumerates every 1-adjacent pair with entries <= max_entry and returns
    the largest L1 distance between the two query tuples.
    """
    total = (max_entry + 1) ** q.n
    if total * (2 * q.n + 1) > budget:
        raise CapacityError(
            f"enumeration of {total} datasets with {2 * q.n} moves exceeds budget {budget}"
        )
    best = 0
    for d in enumerate_datasets(q.n, max_entry):
        qd = counting_query(q, d)
        for other in _neighbors_within(d.counts, max_entry):
            qo = counting_query(q, Dataset(other))
            best = max(best, sum(abs(a - b) for a, b in zip(qd, qo)))
    return best


def counting_sensitivity_analytic(q: CountingQuerySet) -> int:
    """Tight L1 sensitivity of a counting-query tuple.

    A 1-adjacent change moves one record of some type t, shifting exactly
    the queries whose predicate contains t by one.  The sensitivity is the
    largest number of predicates sharing a type.
    """
    if q.n == 0:
        return 0
    return max(sum(1 for p in q.predicates if t in p) for t in range(q.n))
