import itertools

import pytest
from hypothesis import given, strategies as st

from dpcheck.datasets import (
    CountingQuerySet,
    Dataset,
    counting,
    counting_query,
    counting_sensitivity_analytic,
    enumerate_datasets,
    nth_total,
    pairs_within_distance,
)
from dpcheck.errors import CapacityError, DimensionError, ValidationError
from oracles import (
    AdjacencyRelation,
    InfeasibleError,
    adjacency_chain,
    chain_is_valid,
    counting_sensitivity_exhaustive,
    dist_l1,
    is_adjacent,
)

histograms = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5)


def paired_histograms(max_len=5):
    return st.integers(min_value=1, max_value=max_len).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 6), min_size=n, max_size=n),
            st.lists(st.integers(0, 6), min_size=n, max_size=n),
        )
    )


class TestDataset:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            Dataset((1, -1))

    def test_json_round_trip(self):
        d = Dataset((0, 3, 2))
        assert Dataset.from_json(d.to_json()) == d
        assert d.to_json() == {"histogram": [0, 3, 2]}

    def test_nth_total_defaults(self):
        assert nth_total([4, 7], 1) == 7
        assert nth_total([4, 7], 2) == 0
        assert nth_total([4, 7], -1) == 0
        assert nth_total([], 0, default=9) == 9


class TestDistL1:
    def test_examples(self):
        assert dist_l1([1, 2], [2, 2]) == 1
        assert dist_l1([3, 3], [3, 3]) == 0
        assert dist_l1([0, 2, 1], [1, 0, 1]) == 3

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dist_l1([1], [1, 2])

    @given(paired_histograms())
    def test_symmetric_and_zero_iff_equal(self, pair):
        xs, ys = pair
        assert dist_l1(xs, ys) == dist_l1(ys, xs)
        assert (dist_l1(xs, ys) == 0) == (xs == ys)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(0, 6), min_size=n, max_size=n)] * 3)
        )
    )
    def test_triangle_inequality(self, triple):
        xs, ys, zs = triple
        assert dist_l1(xs, zs) <= dist_l1(xs, ys) + dist_l1(ys, zs)


class TestAdjacency:
    def test_examples(self):
        assert is_adjacent([1, 0], [0, 0], k=1)
        assert not is_adjacent([2, 0], [0, 0], k=1)
        assert is_adjacent([0, 2], [1, 0], k=3)

    def test_relation_object(self):
        rel = AdjacencyRelation(2, 1)
        assert rel.contains([1, 0], [0, 0])
        assert rel.contains([0, 0], [1, 0])  # symmetric
        with pytest.raises(DimensionError):
            rel.contains([1], [0])
        pairs = rel.pairs(max_entry=1)
        for a, b in pairs:
            assert dist_l1(a, b) <= 1

    def test_pairs_budget(self):
        with pytest.raises(CapacityError):
            pairs_within_distance(8, 9, 1, budget=100)

    def test_pairs_match_full_scan_in_content_and_order(self):
        for n in range(5):
            for max_entry in range(4):
                datasets = list(enumerate_datasets(n, max_entry))
                for k in range(4):
                    # oracle: every D <= D' in lexicographic order, diagonal included
                    scan = [
                        (a, b)
                        for a, b in itertools.combinations_with_replacement(datasets, 2)
                        if dist_l1(a, b) <= k
                    ]
                    assert pairs_within_distance(n, max_entry, k) == scan, (n, max_entry, k)

    def test_pairs_budget_boundary(self):
        # the guard compares (max_entry + 1)^(2n) with the budget, so these
        # are the largest max_entry values the default budget admits
        for n, largest in ((1, 446), (2, 20), (3, 6), (4, 3)):
            assert len(pairs_within_distance(n, largest, 1)) > 0
            with pytest.raises(CapacityError):
                pairs_within_distance(n, largest + 1, 1)
        assert len(pairs_within_distance(1, 9, 1, budget=100)) == 19
        with pytest.raises(CapacityError):
            pairs_within_distance(1, 10, 1, budget=100)


class TestAdjacencyChain:
    def test_greedy_example(self):
        chain = adjacency_chain([0, 2], [1, 0], 3)
        assert [list(d) for d in chain] == [[0, 2], [1, 2], [1, 1], [1, 0]]

    def test_trivial_chains(self):
        assert [list(d) for d in adjacency_chain([5], [5], 0)] == [[5]]
        assert [list(d) for d in adjacency_chain([0], [1], 1)] == [[0], [1]]

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            adjacency_chain([0, 0], [2, 2], 3)

    @given(paired_histograms(max_len=4), st.integers(0, 5))
    def test_chain_is_always_valid(self, pair, extra):
        xs, ys = pair
        k = dist_l1(xs, ys) + extra
        chain = adjacency_chain(xs, ys, k)
        assert chain_is_valid(chain, xs, ys, k)
        assert len(chain) <= k + 1
        assert all(dist_l1(a, b) <= 1 for a, b in zip(chain, chain[1:]))

    def test_chain_is_valid_rejects_bad_chains(self):
        good = adjacency_chain([0, 0], [1, 1], 2)
        assert chain_is_valid(good, [0, 0], [1, 1], 2)
        assert not chain_is_valid(good, [0, 0], [1, 1], 1)  # too long for k=1
        assert not chain_is_valid(good[:-1], [0, 0], [1, 1], 2)  # wrong endpoint
        assert not chain_is_valid([Dataset((0, 0)), Dataset((2, 0))], [0, 0], [2, 0], 2)


class TestCountingQueries:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CountingQuerySet(2, (frozenset({2}),))

    def test_json_round_trip(self):
        q = CountingQuerySet(3, (frozenset({0, 2}), frozenset()))
        assert CountingQuerySet.from_json(q.to_json()) == q

    def test_counting_examples(self):
        q = CountingQuerySet(3, (frozenset({0, 2}), frozenset({1})))
        assert counting(q, 0, [2, 0, 1]) == 3
        assert counting(q, 1, [4, 7, 1]) == 7
        empty = CountingQuerySet(2, (frozenset(),))
        assert counting(empty, 0, [9, 9]) == 0

    def test_counting_index_error(self):
        q = CountingQuerySet(2, (frozenset({0}),))
        with pytest.raises(IndexError):
            counting(q, 1, [1, 2])

    def test_counting_short_histogram_uses_default(self):
        # total indexing: positions past the end count as zero
        q = CountingQuerySet(3, (frozenset({0, 2}),))
        assert counting(q, 0, [2]) == 2

    def test_counting_query_examples(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({0, 1})))
        assert counting_query(q, [3, 1]) == (3, 4)
        assert counting_query(CountingQuerySet(1, ()), [1]) == ()
        same = CountingQuerySet(2, (frozenset({0}),) * 3)
        assert counting_query(same, [2, 5]) == (2, 2, 2)


class TestSensitivity:
    def test_single_nonempty_query_has_sensitivity_one(self):
        q = CountingQuerySet(2, (frozenset({0}),))
        assert counting_sensitivity_exhaustive(q, max_entry=2) == 1

    def test_identical_queries_add_up(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({0})))
        assert counting_sensitivity_exhaustive(q, max_entry=2) == 2

    def test_empty_query(self):
        q = CountingQuerySet(1, (frozenset(),))
        assert counting_sensitivity_exhaustive(q, max_entry=1) == 0

    def test_budget_guard(self):
        q = CountingQuerySet(10, (frozenset({0}),))
        with pytest.raises(CapacityError):
            counting_sensitivity_exhaustive(q, max_entry=9, budget=1000)

    def test_exhaustive_matches_analytic_on_random_sets(self):
        # two independent routes to the same number
        import random

        rnd = random.Random(7)
        for _ in range(40):
            n = rnd.randint(1, 3)
            m = rnd.randint(1, 3)
            preds = tuple(
                frozenset(j for j in range(n) if rnd.random() < 0.5) for _ in range(m)
            )
            q = CountingQuerySet(n, preds)
            assert counting_sensitivity_exhaustive(q, max_entry=2) == (
                counting_sensitivity_analytic(q)
            )


def _query_value_dichotomy(qa, qb):
    a_up = all(x >= y and x <= y + 1 for x, y in zip(qa, qb))
    b_up = all(y >= x and y <= x + 1 for x, y in zip(qa, qb))
    return a_up or b_up


class TestCountingDichotomy:
    def test_exhaustive_over_single_queries(self):
        # every 1-adjacent pair moves all query values the same way, by <= 1
        for n in (1, 2, 3):
            predicates = [frozenset(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)]
            datasets = list(enumerate_datasets(n, 3))
            for a in datasets:
                for b in datasets:
                    if dist_l1(a, b) > 1:
                        continue
                    for pred in predicates:
                        q = CountingQuerySet(n, (pred,))
                        assert _query_value_dichotomy(counting_query(q, a), counting_query(q, b))

    def test_exhaustive_over_sampled_multi_query_sets(self):
        import random

        rnd = random.Random(13)
        n = 4
        query_sets = []
        for _ in range(20):
            m = rnd.randint(2, 3)
            query_sets.append(
                CountingQuerySet(
                    n,
                    tuple(
                        frozenset(j for j in range(n) if rnd.random() < 0.5)
                        for _ in range(m)
                    ),
                )
            )
        for a, b in pairs_within_distance(n, 3, 1):
            for q in query_sets:
                assert _query_value_dichotomy(counting_query(q, a), counting_query(q, b))

    def test_monotone_and_lipschitz_per_coordinate(self):
        n = 2
        predicates = [frozenset(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)]
        for pred in predicates:
            q = CountingQuerySet(n, (pred,))
            for d in enumerate_datasets(n, 3):
                base = counting(q, 0, d)
                for i in range(n):
                    bumped = list(d.counts)
                    bumped[i] += 1
                    after = counting(q, 0, bumped)
                    assert after in (base, base + 1)
