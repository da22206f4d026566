import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpcheck.datasets import CountingQuerySet, Dataset
from dpcheck.errors import CapacityError, DimensionError, DomainError, ParameterError
from dpcheck.laplace import LaplaceDistribution, RandomSource, laplace_cdf, laplace_sample_block
from dpcheck.rnm import rnm_mechanism, rnm_pmf, rnm_prob_exact, verify_rnm_dp_finer
from oracles import (
    NEG_INF,
    NoiseAssignment,
    PreconditionError,
    argmax_insert,
    argmax_list,
    list_insert,
    max_argmax,
    rnm_p_i,
    verify_max_adjacency,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestMaxArgmax:
    def test_empty_list_convention(self):
        assert max_argmax([]) == (NEG_INF, 0)
        assert argmax_list([]) == 0

    def test_hand_evaluated_fixtures(self):
        assert max_argmax([5, 3, 4]) == (5, 0)
        assert max_argmax([5, 5, 3]) == (5, 1)
        assert argmax_list([1, 9, 2]) == 1
        assert argmax_list([7, 7]) == 1

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    def test_matches_last_maximum_reference(self, xs):
        value, index = max_argmax(xs)
        assert value == max(xs)
        assert index == max(i for i, v in enumerate(xs) if v == max(xs))


class TestListInsert:
    def test_examples(self):
        assert list_insert(9, [1, 2], 1) == [1, 9, 2]
        assert list_insert(9, [], 0) == [9]
        assert list_insert(9, [1, 2], 2) == [1, 2, 9]

    def test_index_error(self):
        with pytest.raises(IndexError):
            list_insert(9, [1, 2], 3)

    @given(finite_floats, st.lists(finite_floats, max_size=6), st.integers(0, 6))
    def test_length_and_position(self, k, ks, i):
        if i > len(ks):
            return
        out = list_insert(k, ks, i)
        assert len(out) == len(ks) + 1
        assert out[i] == k


class TestArgmaxInsert:
    def test_examples(self):
        assert argmax_insert(3, [1, 2], 1) == 1
        assert argmax_insert(2, [2, 1], 0) == 1
        assert argmax_insert(0, [5], 0) == 1

    def test_biconditional_small_exhaustive(self):
        for length in range(4):
            for entries in _all_lists(length, (0, 1, 2, 3)):
                suffix_max = [max_argmax(entries[i:])[0] for i in range(length + 1)]
                full_max = max_argmax(entries)[0]
                for i in range(length + 1):
                    for k in (-1, 0, 1, 2, 3, 4):
                        hit = argmax_insert(k, entries, i) == i
                        characterization = k >= full_max and k != suffix_max[i]
                        assert hit == characterization


def _all_lists(length, values):
    if length == 0:
        yield []
        return
    for head in values:
        for tail in _all_lists(length - 1, values):
            yield [head] + tail


class TestNoiseAssignment:
    def test_hole_bounds(self):
        NoiseAssignment((1.0, 2.0), hole=2)
        with pytest.raises(IndexError):
            NoiseAssignment((1.0, 2.0), hole=3)

    def test_filled(self):
        na = NoiseAssignment((1.0, 3.0), hole=1)
        assert na.filled(9.0) == [1.0, 9.0, 3.0]
        assert na.full_length == 3
        with pytest.raises(DomainError):
            NoiseAssignment((1.0,)).filled(0.0)


class TestRnmSample:
    def test_degenerate_sizes_return_zero(self):
        empty = CountingQuerySet(2, ())
        single = CountingQuerySet(2, (frozenset({0}),))
        for q in (empty, single):
            mech = rnm_mechanism(q, 1.0)
            assert mech.sample(Dataset((5, 3)), RandomSource(0)) == 0
            assert (mech.sample_block(Dataset((5, 3)), RandomSource(0), 50) == 0).all()

    def test_parameter_error(self):
        q = CountingQuerySet(1, (frozenset({0}), frozenset({0})))
        with pytest.raises(ParameterError):
            rnm_mechanism(q, 0.0)

    def test_dominant_score_wins_almost_always(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({1})))
        data = Dataset((1_000_000, 0))
        wins = rnm_mechanism(q, 1.0).sample_block(data, RandomSource(5), 10_000)
        assert (wins == 0).mean() >= 0.999

    def test_symmetric_scores_are_balanced(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({1})))
        data = Dataset((0, 0))
        wins = rnm_mechanism(q, 1.0).sample_block(data, RandomSource(6), 20_000)
        freq = (wins == 0).mean()
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / 20_000)

    def test_each_sampling_path_is_deterministic(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({1})))
        data = Dataset((2, 1))
        mech = rnm_mechanism(q, 1.0)
        block = mech.sample_block(data, RandomSource(9), 32)
        assert (block == mech.sample_block(data, RandomSource(9), 32)).all()
        rng_a, rng_b = RandomSource(9), RandomSource(9)
        singles_a = [mech.sample(data, rng_a) for _ in range(32)]
        singles_b = [mech.sample(data, rng_b) for _ in range(32)]
        assert singles_a == singles_b

    def test_block_noises_every_query_from_one_stream(self):
        # one Laplace column per query, drawn in query order off the same rng
        q = CountingQuerySet(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
        data = Dataset((2, 1))
        rng = RandomSource(4)
        cols = [laplace_sample_block(LaplaceDistribution(1.0, c), rng, 16) for c in (2, 1, 3)]
        expected = [argmax_list(row) for row in np.column_stack(cols).tolist()]
        assert rnm_mechanism(q, 1.0).sample_block(data, RandomSource(4), 16).tolist() == expected


class TestRnmPi:
    def test_median_case(self):
        # inserted score equal to the fixed maximum: win probability 1/2
        assert rnm_p_i(1.0, [1.0], [0.0], 1.0) == pytest.approx(0.5)

    def test_dominant_insert(self):
        assert rnm_p_i(1e9, [0.0], [0.0], 1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        # m = 2, scores (1, 0), other noise 0.3: M - c_i = -0.7
        expected = 1 - 0.5 * math.exp(-0.7)
        assert rnm_p_i(1.0, [0.0], [0.3], 1.0) == pytest.approx(expected, abs=1e-15)

    def test_empty_competition(self):
        assert rnm_p_i(0.0, [], [], 1.0) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rnm_p_i(0.0, [1.0], [], 1.0)

    def test_chain_bound_random_trials(self):
        # with adjacent scores (componentwise within one), win probabilities
        # stay within exp(eps) of each other for any fixed other-noise
        rng = np.random.default_rng(123)
        eps = 1.0
        for _ in range(10_000):
            m = int(rng.integers(1, 5))
            cs_low = rng.uniform(-3, 3, size=m)
            cs_high = cs_low + rng.uniform(0, 1, size=m)
            noises = rng.standard_normal(m - 1) * 2
            p_high = rnm_p_i(cs_high[0], cs_high[1:], noises, eps)
            p_low = rnm_p_i(cs_low[0], cs_low[1:], noises, eps)
            assert p_high <= math.exp(eps) * p_low + 1e-12
            assert p_low <= math.exp(eps) * p_high + 1e-12

    def test_shift_translation_identity(self):
        # survival of centered noise at t equals survival of noise centered
        # at -1 evaluated at t - 1, exactly
        eps = 1.0
        centered = LaplaceDistribution(1.0 / eps, 0.0)
        shifted = LaplaceDistribution(1.0 / eps, -1.0)
        for t in np.linspace(-10, 10, 201):
            assert 1 - laplace_cdf(centered, t) == 1 - laplace_cdf(shifted, t - 1)


class TestRnmProbExact:
    def test_symmetric_cases(self):
        assert rnm_prob_exact([0, 0], 1.0, 0) == pytest.approx(0.5, abs=1e-9)
        for i in range(3):
            assert rnm_prob_exact([0, 0, 0], 1.0, i) == pytest.approx(1 / 3, abs=1e-9)

    def test_single_candidate(self):
        assert rnm_prob_exact([4.0], 1.0, 0) == 1.0

    def test_errors(self):
        with pytest.raises(DomainError):
            rnm_prob_exact([], 1.0, 0)
        with pytest.raises(DomainError):
            rnm_prob_exact([0.0], 1.0, 1)
        with pytest.raises(ParameterError):
            rnm_prob_exact([0.0, 1.0], 0.0, 0)
        with pytest.raises(ParameterError):
            rnm_prob_exact([0.0, 1.0], 1.0, 0, tol=0.0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            c = rng.uniform(-4, 4, size=m).tolist()
            probs = rnm_pmf(c, 1.0, tol=1e-9)
            assert sum(probs) == pytest.approx(1.0, abs=m * 1e-9)

    def test_monte_carlo_cross_check(self):
        c = [1.0, 0.0, -0.5]
        eps = 1.0
        n = 200_000
        rng = RandomSource(55)
        cols = [laplace_sample_block(LaplaceDistribution(1.0, ci), rng, n) for ci in c]
        noisy = np.column_stack(cols)
        wins = len(c) - 1 - np.argmax(noisy[:, ::-1], axis=1)
        for i in range(len(c)):
            p_hat = (wins == i).mean()
            p = rnm_prob_exact(c, eps, i)
            se = math.sqrt(p_hat * (1 - p_hat) / n)
            assert abs(p - p_hat) <= 4 * se + 1e-9

    def test_matches_nested_expectation_over_other_noise(self):
        # the single integral agrees with averaging the closed-form win
        # probability over draws of the other coordinates' noise
        eps = 1.0
        rng = RandomSource(77)
        for c in ([0.5, -0.25], [1.0, 0.0, 0.25]):
            for i in range(len(c)):
                others = [v for j, v in enumerate(c) if j != i]
                n = 40_000
                cols = np.column_stack(
                    [laplace_sample_block(LaplaceDistribution(1.0, 0.0), rng, n) for _ in others]
                ) if others else np.zeros((n, 0))
                values = np.array(
                    [rnm_p_i(c[i], others, row, eps) for row in cols]
                )
                estimate = values.mean()
                se = values.std(ddof=1) / math.sqrt(n)
                assert abs(rnm_prob_exact(c, eps, i) - estimate) <= 4 * se + 1e-9


class TestVerifyMaxAdjacency:
    def test_equal_vectors(self):
        assert verify_max_adjacency([1.0, 2.0], [1.0, 2.0], [0.3, -0.4])

    def test_unit_shift(self):
        assert verify_max_adjacency([2.0, 3.0], [1.0, 2.0], [0.0, 5.0])

    def test_precondition_violation_skips(self):
        with pytest.raises(PreconditionError):
            verify_max_adjacency([3.0], [1.0], [0.0])
        with pytest.raises(DimensionError):
            verify_max_adjacency([1.0], [1.0, 2.0], [0.0])

    def test_random_suite(self):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            m = int(rng.integers(0, 6))
            ys = rng.uniform(-5, 5, size=m)
            xs = ys + rng.uniform(0, 1, size=m)
            rs = rng.standard_normal(m) * 3
            assert verify_max_adjacency(xs, ys, rs)


class TestRnmMechanism:
    def test_mask_validation(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({1})))
        with pytest.raises(DimensionError):
            rnm_mechanism(q, 1.0, noise_mask=(True,))

    def test_outputs_in_range(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
        mech = rnm_mechanism(q, 1.0)
        block = mech.sample_block(Dataset((1, 2)), RandomSource(0), 500)
        assert set(np.unique(block)) <= {0, 1, 2}

    def test_masked_coordinates_follow_deterministic_scores(self):
        q = CountingQuerySet(3, (frozenset({0}), frozenset({1}), frozenset({2})))
        mech = rnm_mechanism(q, 1.0, noise_mask=(True, False, False))
        # scores (0, 1, 1): index 1 can never win a tie against index 2
        block = mech.sample_block(Dataset((0, 1, 1)), RandomSource(3), 2000)
        assert not (block == 1).any()


class TestVerifyRnmDpFiner:
    def test_single_query_is_trivially_private(self):
        q = CountingQuerySet(2, (frozenset({0}),))
        report = verify_rnm_dp_finer(q, 1.0, max_entry=1)
        assert report.all_pass
        assert report.max_ratio == 1.0

    def test_small_run_passes_with_dichotomy(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({1})))
        report = verify_rnm_dp_finer(q, 1.0, max_entry=2)
        assert report.all_pass and report.dichotomy_ok
        assert report.max_ratio <= report.finer_bound + 1e-6
        assert report.naive_bound == pytest.approx(math.exp(2.0))
        assert report.finer_bound == pytest.approx(math.e)

    def test_identical_queries_are_shift_invariant(self):
        q = CountingQuerySet(2, (frozenset({0}),) * 4)
        report = verify_rnm_dp_finer(q, 1.0, max_entry=2)
        assert report.all_pass
        assert report.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_capacity_guards(self):
        q = CountingQuerySet(2, (frozenset({0}),) * 9)
        with pytest.raises(CapacityError):
            verify_rnm_dp_finer(q, 1.0, max_entry=1)
        small = CountingQuerySet(8, (frozenset({0}),))
        with pytest.raises(CapacityError):
            verify_rnm_dp_finer(small, 1.0, max_entry=9, enumeration_budget=10)

    def test_report_rows_shape(self):
        q = CountingQuerySet(1, (frozenset({0}), frozenset()))
        report = verify_rnm_dp_finer(q, 0.5, max_entry=1)
        row = report.rows[0].to_json()
        assert set(row) == {"D", "D_adj", "i", "p", "p_adj", "ratio", "bound", "pass", "unstable"}
