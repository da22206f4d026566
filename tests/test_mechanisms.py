import math

import numpy as np
import pytest
from scipy import stats

from dpcheck.datasets import CountingQuerySet, Dataset, counting_query, pairs_within_distance
from dpcheck.divergence import DiscreteDistribution, DiscreteKernel, divergence_discrete
from dpcheck.errors import (
    DimensionError,
    DomainError,
    ParameterError,
    UnsupportedError,
    ValidationError,
)
from dpcheck.laplace import LaplaceDistribution, RandomSource, laplace_cdf
from dpcheck.mechanisms import (
    AdaptiveKernel,
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    adaptive_compose,
    add_budgets,
    check_dp_exact,
    check_dp_laplace,
    check_dp_statistical,
    default_events,
    group_budget,
    laplace_mechanism,
    pair_compose,
    post_process,
    randomized_response,
    label_array,
    weaken_budget,
)
from dpcheck.rnm import rnm_mechanism
from oracles import PreconditionError, check_group_privacy, randomized_response_epsilon


def geometric_mechanism(eps: float, top: int) -> Mechanism:
    """Two-sided geometric noise clamped to {0..top}; exactly eps-DP and
    tight at the boundaries, so distance-k pairs realize the full
    exp(k * eps) ratio."""
    alpha = math.exp(-eps)

    def pmf(d) -> DiscreteDistribution:
        x = d[0]
        masses = {}
        for j in range(top + 1):
            if j == 0:
                masses[j] = alpha**x / (1 + alpha)
            elif j == top:
                masses[j] = alpha ** (top - x) / (1 + alpha)
            else:
                masses[j] = (1 - alpha) / (1 + alpha) * alpha ** abs(j - x)
        return DiscreteDistribution.from_mapping(masses)

    return Mechanism(
        input_desc=1,
        output_desc=("finite", tuple(range(top + 1))),
        sample_block=lambda d, rng, n: pmf(d).sample_index_block(rng, n),
        pmf=pmf,
    )


class TestBudgets:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(-1.0, 0.0)
        with pytest.raises(ValidationError):
            PrivacyBudget(1.0, -0.1)

    def test_add(self):
        assert add_budgets(PrivacyBudget(1.0, 0.0), PrivacyBudget(2.0, 0.1)) == (
            PrivacyBudget(3.0, 0.1)
        )

    def test_group(self):
        assert group_budget(PrivacyBudget(0.5, 0.0), 3) == PrivacyBudget(1.5, 0.0)
        with pytest.raises(UnsupportedError):
            group_budget(PrivacyBudget(0.5, 0.1), 2)
        with pytest.raises(ParameterError):
            group_budget(PrivacyBudget(0.5, 0.0), -1)

    def test_weaken(self):
        assert weaken_budget(PrivacyBudget(1.0, 0.0), PrivacyBudget(1.0, 0.0)) == (
            PrivacyBudget(1.0, 0.0)
        )
        assert weaken_budget(PrivacyBudget(1.0, 0.0), PrivacyBudget(2.0, 0.1)) == (
            PrivacyBudget(2.0, 0.1)
        )
        with pytest.raises(ParameterError):
            weaken_budget(PrivacyBudget(1.0, 0.0), PrivacyBudget(0.5, 0.0))

    def test_sensitivity_spec(self):
        with pytest.raises(ValidationError):
            SensitivitySpec(-1.0, "declared")
        with pytest.raises(ValidationError):
            SensitivitySpec(1.0, "guessed")


class TestLaplaceMechanism:
    def test_parameter_errors(self):
        f = lambda d: [0.0]
        with pytest.raises(ParameterError):
            laplace_mechanism(f, 1, SensitivitySpec(1.0, "declared"), 0.0)
        with pytest.raises(ParameterError):
            laplace_mechanism(f, 1, SensitivitySpec(0.0, "declared"), 1.0)
        with pytest.raises(ParameterError):
            laplace_mechanism(f, 1, SensitivitySpec(math.inf, "declared"), 1.0)

    def test_zero_queries_returns_empty(self):
        mech = laplace_mechanism(lambda d: [], 0, SensitivitySpec(1.0, "declared"), 1.0)
        assert mech.sample(Dataset((1,)), RandomSource(0)) == []
        assert mech.sample_block(Dataset((1,)), RandomSource(0), 3).shape == (3, 0)

    def test_noise_scale_is_sensitivity_over_eps(self):
        mech = laplace_mechanism(
            lambda d: [float(d[0]), float(d[1])],
            2,
            SensitivitySpec(2.0, "exhaustive"),
            2.0,
        )
        dens = mech.densities(Dataset((3, 1)))
        assert [lap.b for lap in dens] == [1.0, 1.0]
        assert [lap.z for lap in dens] == [3.0, 1.0]

    def test_single_counting_query_samples_shifted_laplace(self):
        q = CountingQuerySet(3, (frozenset({0, 2}),))
        mech = laplace_mechanism(
            lambda d: [float(v) for v in counting_query(q, d)],
            1,
            SensitivitySpec(1.0, "analytic"),
            1.0,
        )
        data = Dataset((2, 0, 1))  # query value 3
        block = mech.sample_block(data, RandomSource(31), 100_000)[:, 0]
        target = LaplaceDistribution(1.0, 3.0)
        res = stats.kstest(block, lambda t: np.vectorize(lambda x: laplace_cdf(target, x))(t))
        assert res.pvalue > 0.001


class TestRandomizedResponse:
    def test_pmf(self):
        mech = randomized_response(0.25)
        assert mech.pmf(0).prob(0) == 0.75
        assert mech.pmf(1).prob(0) == 0.25

    def test_epsilon(self):
        assert randomized_response_epsilon(0.25) == pytest.approx(math.log(3))

    def test_sampler_matches_pmf(self):
        mech = randomized_response(0.25)
        block = mech.sample_block(0, RandomSource(17), 100_000)
        counts = np.bincount(block.astype(int), minlength=2)
        res = stats.chisquare(counts, [75_000, 25_000])
        assert res.pvalue > 0.001


class TestCheckDpExact:
    def test_rr_passes_at_its_own_epsilon(self):
        mech = randomized_response(0.25)
        report = check_dp_exact(mech, [(0, 1)], PrivacyBudget(math.log(3), 0.0))
        assert report.verdict == "pass" and report.witness is None

    def test_rr_fails_below_its_epsilon_with_witness(self):
        mech = randomized_response(0.25)
        report = check_dp_exact(mech, [(0, 1)], PrivacyBudget(1.0, 0.0))
        assert report.verdict == "violation"
        # the maximizing event reports the input bit itself
        assert report.witness.event == (0,)
        assert report.witness.gap == pytest.approx(0.75 - math.exp(1.0) * 0.25, abs=1e-12)

    def test_gap_of_one_millionth_is_a_violation(self):
        # at eps = ln((1-p)/p) - eta the event {0} has mass (1-p) under input 0
        # and e^eps p = (1-p) e^-eta under input 1: a gap of (1-p)(1 - e^-eta)
        p, eta = 0.25, 4e-6 / 3
        eps = randomized_response_epsilon(p) - eta
        report = check_dp_exact(randomized_response(p), [(0, 1)], PrivacyBudget(eps, 0.0))
        assert report.verdict == "violation"
        assert report.witness.gap == pytest.approx((1 - p) * -math.expm1(-eta), rel=1e-6)
        assert 0.9e-6 < report.witness.gap < 1.1e-6

    def test_reverse_only_violation(self):
        # mu = (0.9, 0.1) and nu = (0.5, 0.5) at eps = ln 2: D(mu||nu) = 0, while
        # D(nu||mu) = 0.5 - 2 * 0.1 = 0.3 on the event {1}; delta = 0.1 sits between
        laws = {0: {0: 0.9, 1: 0.1}, 1: {0: 0.5, 1: 0.5}}
        mech = Mechanism(
            input_desc=(0, 1),
            output_desc=("finite", (0, 1)),
            sample_block=lambda x, rng, n: np.asarray((0, 1))[
                DiscreteDistribution.from_mapping(laws[x]).sample_index_block(rng, n)
            ],
            pmf=lambda x: DiscreteDistribution.from_mapping(laws[x]),
        )
        budget = PrivacyBudget(math.log(2.0), 0.1)
        assert divergence_discrete(mech.pmf(0), mech.pmf(1), budget.eps).value <= budget.delta
        report = check_dp_exact(mech, [(0, 1)], budget)
        assert report.verdict == "violation"
        assert report.witness.direction == "reverse"
        assert report.witness.event == (1,)
        assert report.witness.gap == pytest.approx(0.2, abs=1e-12)

    def test_vacuous_on_empty_pairs(self):
        report = check_dp_exact(randomized_response(0.1), [], PrivacyBudget(0.0, 0.0))
        assert report.verdict == "pass" and report.witness is None

    def test_requires_pmf(self):
        mech = Mechanism(None, ("real-vector", 1), lambda x, rng, n: np.zeros((n, 1)))
        with pytest.raises(UnsupportedError):
            check_dp_exact(mech, [(0, 1)], PrivacyBudget(1.0, 0.0))


class TestCheckDpLaplace:
    def _counting_mech(self, q, eps, sens):
        return laplace_mechanism(
            lambda d: [float(v) for v in counting_query(q, d)],
            q.m,
            SensitivitySpec(float(sens), "analytic"),
            eps,
            input_desc=q.n,
        )

    def test_passes_at_declared_budget(self):
        q = CountingQuerySet(2, (frozenset({0}), frozenset({0, 1})))
        mech = self._counting_mech(q, 1.0, 2)
        pairs = pairs_within_distance(2, 1, 1)
        report = check_dp_laplace(mech, pairs, PrivacyBudget(1.0, 0.0))
        assert report.verdict == "pass", report.witness

    def test_fails_at_quarter_budget_with_coordinate_witness(self):
        q = CountingQuerySet(2, (frozenset({0}),))
        mech = self._counting_mech(q, 1.0, 1)
        pairs = [(Dataset((0, 0)), Dataset((1, 0)))]
        report = check_dp_laplace(mech, pairs, PrivacyBudget(0.25, 0.0))
        assert report.verdict == "violation"
        assert report.witness.event == ("coordinate", 0)
        assert report.witness.gap > 0.01

    def test_requires_densities(self):
        with pytest.raises(UnsupportedError):
            check_dp_laplace(randomized_response(0.25), [(0, 1)], PrivacyBudget(1.0, 0.0))

    def test_gap_of_one_millionth_is_a_violation(self):
        # b = 1 and the pair moves the coordinate by d = 1; at eps = d - 2e-6
        # the profile 1 - e^((eps - d)/2) is about 1e-6 above delta = 0
        q = CountingQuerySet(1, (frozenset({0}),))
        mech = self._counting_mech(q, 1.0, 1)
        eps = 1.0 - 2e-6
        report = check_dp_laplace(
            mech, [(Dataset((0,)), Dataset((1,)))], PrivacyBudget(eps, 0.0)
        )
        assert report.verdict == "violation"
        assert report.witness.event == ("coordinate", 0)
        assert report.witness.gap == pytest.approx(-math.expm1((eps - 1.0) / 2.0), rel=1e-9)


class TestCheckDpStatistical:
    def test_laplace_mechanism_not_flagged_at_own_budget(self):
        q = CountingQuerySet(2, (frozenset({0}),))
        mech = laplace_mechanism(
            lambda d: [float(v) for v in counting_query(q, d)],
            1,
            SensitivitySpec(1.0, "analytic"),
            1.0,
            input_desc=2,
        )
        pairs = [(Dataset((0, 0)), Dataset((1, 0)))]
        report = check_dp_statistical(
            mech, pairs, PrivacyBudget(1.0, 0.0), samples=20_000, alpha=0.05, rng=RandomSource(8)
        )
        assert report.verdict == "no-violation-found"

    def test_laplace_mechanism_flagged_at_quarter_budget(self):
        q = CountingQuerySet(2, (frozenset({0}),))
        mech = laplace_mechanism(
            lambda d: [float(v) for v in counting_query(q, d)],
            1,
            SensitivitySpec(1.0, "analytic"),
            1.0,
            input_desc=2,
        )
        pairs = [(Dataset((0, 0)), Dataset((1, 0)))]
        report = check_dp_statistical(
            mech, pairs, PrivacyBudget(0.25, 0.0), samples=20_000, alpha=0.05, rng=RandomSource(9)
        )
        assert report.verdict == "violation"
        assert report.witness is not None

    def test_constant_mechanism_passes_at_zero(self):
        mech = Mechanism(
            input_desc=(0, 1),
            output_desc=("finite", ("c",)),
            sample_block=lambda x, rng, n: np.full(n, "c"),
            pmf=lambda x: DiscreteDistribution(("c",), (1.0,)),
        )
        report = check_dp_statistical(
            mech, [(0, 1)], PrivacyBudget(0.0, 0.0), samples=2000, alpha=0.05, rng=RandomSource(1)
        )
        assert report.verdict == "no-violation-found"

    def test_broken_rnm_variant_is_caught(self):
        q = CountingQuerySet(3, (frozenset({0}), frozenset({1}), frozenset({2})))
        mech = rnm_mechanism(q, 1.0, noise_mask=(True, False, False))
        pairs = [(Dataset((0, 1, 1)), Dataset((0, 2, 1)))]
        report = check_dp_statistical(
            mech, pairs, PrivacyBudget(1.0, 0.0), samples=20_000, alpha=0.05, rng=RandomSource(4)
        )
        assert report.verdict == "violation"

    def test_parameter_validation(self):
        mech = randomized_response(0.25)
        with pytest.raises(ParameterError):
            check_dp_statistical(mech, [(0, 1)], PrivacyBudget(1, 0), 10, 0.05, RandomSource(0))
        with pytest.raises(ParameterError):
            check_dp_statistical(mech, [(0, 1)], PrivacyBudget(1, 0), 2000, 1.5, RandomSource(0))

    def test_underpowered_exceedance_is_inconclusive(self):
        # fixed-frequency sampler: the point estimate sits above half the
        # resolution but below the significance width, deterministically
        def fixed(k):
            return lambda x, rng, n: np.array([0] * k + [1] * (n - k))

        counts = {"a": 1100, "b": 1000}
        mech = Mechanism(
            input_desc=("a", "b"),
            output_desc=("finite", (0, 1)),
            sample_block=lambda x, rng, n: fixed(counts[x])(x, rng, n),
        )
        report = check_dp_statistical(
            mech, [("a", "b")], PrivacyBudget(0.0, 0.0), samples=2000, alpha=0.05,
            rng=RandomSource(0),
        )
        assert report.verdict == "inconclusive"
        assert report.max_point == pytest.approx(0.05)
        assert report.max_lower <= 0.0


class TestPostProcess:
    def test_identity_map_keeps_pmf(self):
        mech = randomized_response(0.25)
        post = post_process(mech, lambda y: y)
        assert post.pmf(0).prob(0) == mech.pmf(0).prob(0)
        assert post.pmf(0).prob(1) == mech.pmf(0).prob(1)

    def test_constant_map_gives_point_mass(self):
        mech = randomized_response(0.25)
        post = post_process(mech, lambda y: "c")
        assert post.pmf(0).prob("c") == 1.0
        assert divergence_discrete(post.pmf(0), post.pmf(1), 0.0).value == 0.0

    def test_argmax_pushforward_sums_preimages(self):
        # vector-valued finite mechanism; post with the argmax of the tuple
        outputs = ((0, 1), (1, 0), (1, 1))
        pmf = lambda x: DiscreteDistribution(outputs, (0.2, 0.3, 0.5))
        mech = Mechanism((0,), ("finite", outputs), lambda x, rng, n: None, pmf=pmf)
        post = post_process(mech, lambda y: max(range(2), key=lambda i: (y[i], i)))
        assert post.pmf(0).prob(1) == pytest.approx(0.2 + 0.5)
        assert post.pmf(0).prob(0) == pytest.approx(0.3)

    def test_kernel_post_processing(self):
        mech = randomized_response(0.25)
        kernel = DiscreteKernel.from_mapping(
            {
                0: DiscreteDistribution(("a", "b"), (0.5, 0.5)),
                1: DiscreteDistribution(("a", "b"), (0.0, 1.0)),
            }
        )
        post = post_process(mech, kernel)
        assert post.pmf(0).prob("a") == pytest.approx(0.75 * 0.5)

    def test_non_finite_base_rejected(self):
        laplace = laplace_mechanism(lambda d: [0.0], 1, SensitivitySpec(1.0, "declared"), 1.0)
        with pytest.raises(UnsupportedError):
            post_process(laplace, round)

    def test_kernel_block_matches_pmf(self):
        kernel = DiscreteKernel.from_mapping(
            {
                0: DiscreteDistribution(("a", "b"), (0.5, 0.5)),
                1: DiscreteDistribution(("a", "b"), (0.1, 0.9)),
            }
        )
        post = post_process(randomized_response(0.25), kernel)
        n = 20_000
        block = post.sample_block(0, RandomSource(3), n)
        counts = [int(np.count_nonzero(block == z)) for z in ("a", "b")]
        expected = [post.pmf(0).prob(z) * n for z in ("a", "b")]
        assert stats.chisquare(counts, expected).pvalue > 0.001

    def test_partial_map_rejected(self):
        mech = randomized_response(0.25)
        with pytest.raises(DomainError):
            post_process(mech, {0: "a"}.__getitem__)

    def test_never_increases_divergence_random_suite(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            w0 = rng.random(k) + 1e-3
            w1 = rng.random(k) + 1e-3
            labels = tuple(range(k))
            table = {
                0: DiscreteDistribution(labels, tuple(w0 / w0.sum())),
                1: DiscreteDistribution(labels, tuple(w1 / w1.sum())),
            }
            mech = Mechanism(
                (0, 1), ("finite", labels), lambda x, rng, n: None, pmf=table.__getitem__
            )
            out_k = int(rng.integers(1, 4))
            kernel = DiscreteKernel.from_mapping(
                {
                    y: DiscreteDistribution(
                        tuple(range(out_k)),
                        tuple((w := rng.random(out_k) + 1e-3) / w.sum()),
                    )
                    for y in labels
                }
            )
            post = post_process(mech, kernel)
            eps = float(rng.uniform(0, 1.5))
            before = divergence_discrete(mech.pmf(0), mech.pmf(1), eps).value
            after = divergence_discrete(post.pmf(0), post.pmf(1), eps).value
            assert after <= before + 1e-12


class TestPairCompose:
    def test_point_masses(self):
        pm = lambda label: Mechanism(
            (0,),
            ("finite", (label,)),
            lambda x, rng, n: label_array((label,) * n),
            pmf=lambda x, label=label: DiscreteDistribution((label,), (1.0,)),
        )
        pair = pair_compose(pm("a"), pm("b"))
        assert pair.pmf(0).prob(("a", "b")) == 1.0
        assert pair.sample(0, RandomSource(0)) == ("a", "b")

    def test_two_randomized_responses(self):
        eps = math.log(3)
        pair = pair_compose(randomized_response(0.25), randomized_response(0.25))
        dist = pair.pmf(0)
        assert dist.prob((0, 0)) == pytest.approx(0.5625)
        assert dist.prob((1, 1)) == pytest.approx(0.0625)
        assert check_dp_exact(pair, [(0, 1)], PrivacyBudget(2 * eps, 0.0)).verdict == "pass"
        report = check_dp_exact(pair, [(0, 1)], PrivacyBudget(1.5 * eps, 0.0))
        assert report.verdict == "violation" and report.witness is not None

    def test_budget_sum_with_trivial_component(self):
        b = add_budgets(PrivacyBudget(1.0, 0.05), PrivacyBudget(0.0, 0.0))
        assert b == PrivacyBudget(1.0, 0.05)

    def test_input_space_mismatch(self):
        m1 = randomized_response(0.25)
        m2 = Mechanism((0, 1, 2), ("finite", (0,)), lambda x, rng, n: np.zeros(n, dtype=int))
        with pytest.raises(DimensionError):
            pair_compose(m1, m2)


class TestAdaptiveCompose:
    def test_kernel_ignoring_intermediate_equals_pair_marginal(self):
        m1 = randomized_response(0.25)
        m2 = randomized_response(0.1)
        kernel = AdaptiveKernel(
            sample_block=lambda x, z, rng, n: m2.sample_block(x, rng, n),
            pmf=lambda x, z: m2.pmf(x),
            output_labels=(0, 1),
        )
        comp = adaptive_compose(m1, kernel)
        for x in (0, 1):
            for y in (0, 1):
                assert comp.pmf(x).prob(y) == pytest.approx(m2.pmf(x).prob(y))

    def test_branch_dependent_mixture_matches_sampler(self):
        m1 = randomized_response(0.25)
        second = {0: randomized_response(0.1), 1: randomized_response(0.4)}
        kernel = AdaptiveKernel(
            sample_block=lambda x, z, rng, n: second[z].sample_block(x, rng, n),
            pmf=lambda x, z: second[z].pmf(x),
            output_labels=(0, 1),
        )
        comp = adaptive_compose(m1, kernel)
        exact = comp.pmf(0)
        rng = RandomSource(12)
        n = 100_000
        draws = comp.sample_block(0, rng, n)
        counts = np.bincount(draws.astype(int), minlength=2)
        expected = np.array([exact.prob(0), exact.prob(1)]) * n
        assert stats.chisquare(counts, expected).pvalue > 0.001

    def test_deterministic_kernel_matches_post_process(self):
        m1 = randomized_response(0.25)
        flip = lambda y: 1 - y
        kernel = AdaptiveKernel(
            sample_block=lambda x, z, rng, n: np.full(n, flip(z)),
            pmf=lambda x, z: DiscreteDistribution((flip(z),), (1.0,)),
            output_labels=(0, 1),
        )
        comp = adaptive_compose(m1, kernel)
        post = post_process(m1, flip)
        for x in (0, 1):
            for y in (0, 1):
                assert comp.pmf(x).prob(y) == pytest.approx(post.pmf(x).prob(y))

    def test_dp_of_adaptive_composition(self):
        m1 = randomized_response(0.25)
        second = {0: randomized_response(0.2), 1: randomized_response(0.3)}
        eps2 = max(randomized_response_epsilon(p) for p in (0.2, 0.3))
        kernel = AdaptiveKernel(
            sample_block=lambda x, z, rng, n: second[z].sample_block(x, rng, n),
            pmf=lambda x, z: second[z].pmf(x),
            output_labels=(0, 1),
        )
        comp = adaptive_compose(m1, kernel)
        total = math.log(3) + eps2
        assert check_dp_exact(comp, [(0, 1)], PrivacyBudget(total, 0.0)).verdict == "pass"


    def test_non_finite_first_stage_rejected(self):
        laplace = laplace_mechanism(lambda d: [0.0], 1, SensitivitySpec(1.0, "declared"), 1.0)
        kernel = AdaptiveKernel(lambda x, z, rng, n: np.zeros(n, dtype=int), output_labels=(0,))
        with pytest.raises(UnsupportedError):
            adaptive_compose(laplace, kernel)


class TestGroupPrivacy:
    def test_radius_one_matches_exact_check(self):
        mech = geometric_mechanism(0.8, top=3)
        ok, witness = check_group_privacy(mech, 0.8, 1, max_entry=3)
        assert ok, witness

    def test_tight_mechanism_passes_at_k_eps(self):
        mech = geometric_mechanism(0.7, top=3)
        for k in (2, 3):
            ok, witness = check_group_privacy(mech, 0.7, k, max_entry=3)
            assert ok, witness

    def test_fails_below_k_eps_when_ratio_is_tight(self):
        eps = 0.7
        mech = geometric_mechanism(eps, top=3)
        budget = PrivacyBudget(1.5 * eps, 0.0)
        pairs = [(Dataset((0,)), Dataset((2,)))]
        report = check_dp_exact(mech, pairs, budget)
        assert report.verdict == "violation" and report.witness is not None

    def test_precondition_failure(self):
        mech = geometric_mechanism(1.0, top=2)
        with pytest.raises(PreconditionError):
            check_group_privacy(mech, 0.5, 2, max_entry=2)


class TestSamplerPmfConsistency:
    def test_chi_square_on_composed_mechanism(self):
        pair = pair_compose(randomized_response(0.25), randomized_response(0.4))
        dist = pair.pmf(1)
        rng = RandomSource(100)
        n = 100_000
        outcomes = pair.sample_block(1, rng, n)
        labels = dist.support
        index = {y: i for i, y in enumerate(labels)}
        counts = np.zeros(len(labels))
        for y in outcomes:
            counts[index[y]] += 1
        expected = np.array(dist.probs) * n
        assert stats.chisquare(counts, expected).pvalue > 0.001


class TestOneSamplingPath:
    """Each built-in mechanism has one sampler, its block sampler; a single
    draw is row 0 of a one-row block."""

    MECHANISMS = {
        "laplace": (
            laplace_mechanism(
                lambda d: [float(v) for v in d.counts], 2, SensitivitySpec(1.0, "declared"), 1.0
            ),
            Dataset((3, 1)),
        ),
        "randomized-response": (randomized_response(0.25), 1),
        "rnm": (
            rnm_mechanism(CountingQuerySet.from_json({"n": 2, "queries": [[0], [1], [0, 1]]}), 1.0),
            Dataset((2, 1)),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(MECHANISMS))
    def test_sample_is_row_zero_of_a_one_row_block(self, kind):
        mech, x = self.MECHANISMS[kind]
        for seed in range(5):
            single = mech.sample(x, RandomSource(seed))
            assert single == mech.sample_block(x, RandomSource(seed), 1)[0].tolist()
            # plain Python values, so reports encode them without numpy types
            assert not isinstance(single, np.generic)

    COMBINATORS = {
        "pair-finite": (pair_compose(randomized_response(0.25), randomized_response(0.1)), 1),
        "pair-product": (
            pair_compose(MECHANISMS["laplace"][0], MECHANISMS["rnm"][0]),
            Dataset((2, 1)),
        ),
        "post": (post_process(MECHANISMS["rnm"][0], ("a", "b", "c").__getitem__), Dataset((2, 1))),
        "adaptive": (
            adaptive_compose(
                randomized_response(0.25),
                AdaptiveKernel(
                    sample_block=lambda x, z, rng, n: randomized_response(0.1 + 0.3 * z)
                    .sample_block(x, rng, n),
                    output_labels=(0, 1),
                ),
            ),
            1,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(COMBINATORS))
    def test_combinator_sample_is_row_zero_of_a_one_row_block(self, kind):
        mech, x = self.COMBINATORS[kind]
        for seed in range(5):
            single = mech.sample(x, RandomSource(seed))
            row = mech.sample_block(x, RandomSource(seed), 1)[0]
            assert single == (row.tolist() if isinstance(row, np.ndarray) else row)
            assert not isinstance(single, (np.generic, np.ndarray))

    def test_product_block_holds_each_part_block_in_turn(self):
        laplace, rnm = self.MECHANISMS["laplace"][0], self.MECHANISMS["rnm"][0]
        pair = pair_compose(laplace, rnm)
        assert pair.output_desc == ("product", (laplace.output_desc, rnm.output_desc))
        rng = RandomSource(8)
        first = laplace.sample_block(Dataset((2, 1)), rng, 50)
        second = rnm.sample_block(Dataset((2, 1)), rng, 50)
        block = pair.sample_block(Dataset((2, 1)), RandomSource(8), 50)
        assert block.shape == (50, 3)
        assert block[:, :2].astype(float).tolist() == first.tolist()
        assert block[:, 2].tolist() == second.tolist()


class TestDefaultEvents:
    def test_product_events_apply_each_part_family_to_its_columns(self):
        laplace = laplace_mechanism(lambda d: [0.0], 1, SensitivitySpec(1.0, "declared"), 1.0)
        pair = pair_compose(laplace, randomized_response(0.25))
        xs = pair.sample_block(0, RandomSource(1), 400)
        ys = pair.sample_block(1, RandomSource(2), 400)
        events = default_events(pair.output_desc, xs, ys)
        real = default_events(laplace.output_desc, xs[:, :1], ys[:, :1])
        labels = default_events(("finite", (0, 1)), xs[:, 1], ys[:, 1])
        assert list(events.labels) == [f"part 0: {label}" for label in real.labels] + [
            f"part 1: {label}" for label in labels.labels
        ]
        # each event holds a row exactly when its part's event holds on that
        # row's columns: a one-row block counts 1 or 0
        for r in range(len(xs)):
            row = xs[r : r + 1]
            part_counts = [*real.counts(row[:, :1]), *labels.counts(row[:, 1])]
            assert events.counts(row).tolist() == part_counts

    def test_unknown_kind_has_no_family(self):
        with pytest.raises(UnsupportedError):
            default_events(("opaque",), [], [])


class TestPostProcessingPreservesDp:
    def test_random_suite(self):
        rng = np.random.default_rng(314)
        for _ in range(100):
            flip = float(rng.uniform(0.05, 0.45))
            mech = randomized_response(flip)
            eps = randomized_response_epsilon(flip)
            out_k = int(rng.integers(1, 4))
            kernel = DiscreteKernel.from_mapping(
                {
                    y: DiscreteDistribution(
                        tuple(range(out_k)),
                        tuple((w := rng.random(out_k) + 1e-3) / w.sum()),
                    )
                    for y in (0, 1)
                }
            )
            post = post_process(mech, kernel)
            report = check_dp_exact(post, [(0, 1)], PrivacyBudget(eps, 0.0))
            assert report.verdict == "pass", report.witness
