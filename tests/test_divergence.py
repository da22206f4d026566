import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcheck.divergence import (
    DiscreteDistribution,
    DiscreteKernel,
    clopper_pearson,
    divergence_discrete,
    divergence_laplace_pair,
    divergence_monte_carlo,
    hockey_stick_witness,
    interval_events,
    label_subset_events,
)
from dpcheck.errors import (
    CapacityError,
    DimensionError,
    DomainError,
    ParameterError,
    ValidationError,
)
from dpcheck.laplace import LaplaceDistribution, RandomSource, laplace_sample_block
from oracles import (
    PreconditionError,
    bind,
    check_composability_brute_force,
    check_transitivity,
    divergence_brute_force,
    event_prob,
)


def random_dist(rng, size, labels=None):
    labels = tuple(range(size)) if labels is None else tuple(labels[:size])
    w = rng.random(size) + 1e-3
    p = w / w.sum()
    return DiscreteDistribution(labels, tuple(p))


def random_kernel(rng, in_labels, out_size):
    return DiscreteKernel.from_mapping(
        {x: random_dist(rng, out_size) for x in in_labels}
    )


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(("a",), (0.5,))
        with pytest.raises(ValidationError):
            DiscreteDistribution(("a", "a"), (0.5, 0.5))
        with pytest.raises(ValidationError):
            DiscreteDistribution(("a", "b"), (1.5, -0.5))
        with pytest.raises(ValidationError):
            DiscreteDistribution(("a",), (1.0, 0.5))

    def test_lookup(self):
        d = DiscreteDistribution(("a", "b"), (0.25, 0.75))
        assert d.prob("a") == 0.25
        assert d.prob("missing") == 0.0
        assert event_prob(d, ("a", "b")) == 1.0
        assert event_prob(d, ("a", "a")) == 0.25

    def test_sampling_is_deterministic(self):
        d = DiscreteDistribution(("a", "b", "c"), (0.2, 0.3, 0.5))
        idx1 = d.sample_index_block(RandomSource(3), 100)
        idx2 = d.sample_index_block(RandomSource(3), 100)
        assert (idx1 == idx2).all()
        assert set(idx1) <= {0, 1, 2}


class TestDivergenceDiscrete:
    def test_reflexivity_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu = random_dist(rng, int(rng.integers(1, 8)))
            assert divergence_discrete(mu, mu, 0.0).value == 0.0

    def test_disjoint_point_masses(self):
        mu = DiscreteDistribution(("a",), (1.0,))
        nu = DiscreteDistribution(("b",), (1.0,))
        assert divergence_discrete(mu, nu, 0.0).value == 1.0

    def test_hand_example(self):
        mu = DiscreteDistribution(("a", "b"), (0.6, 0.4))
        nu = DiscreteDistribution(("a", "b"), (0.4, 0.6))
        assert divergence_discrete(mu, nu, 0.0).value == pytest.approx(0.2, abs=1e-15)

    def test_result_metadata(self):
        mu = DiscreteDistribution(("a",), (1.0,))
        res = divergence_discrete(mu, mu, 1.0)
        assert res.method == "exact-discrete"
        assert res.error_bound == 0.0

    def test_witness_is_positive_part_set(self):
        mu = DiscreteDistribution(("a", "b"), (0.6, 0.4))
        nu = DiscreteDistribution(("a", "b"), (0.4, 0.6))
        value, event = hockey_stick_witness(mu, nu, 0.0)
        assert value == pytest.approx(0.2, abs=1e-15)
        assert event == ("a",)


class TestBruteForceOracle:
    def test_matches_hockey_stick_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            size = int(rng.integers(1, 13))
            mu = random_dist(rng, size)
            nu = random_dist(rng, size)
            eps = float(rng.uniform(-0.5, 2.0))
            assert divergence_brute_force(mu, nu, eps).value == pytest.approx(
                divergence_discrete(mu, nu, eps).value, abs=1e-12
            )

    def test_negative_eps_on_equal_point_masses(self):
        mu = DiscreteDistribution(("a",), (1.0,))
        assert divergence_brute_force(mu, mu, -1.0).value == pytest.approx(
            1 - math.exp(-1), abs=1e-15
        )

    def test_uniform_pair_is_zero(self):
        mu = DiscreteDistribution((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))
        assert divergence_brute_force(mu, mu, 0.0).value == 0.0

    def test_capacity_guard(self):
        labels = tuple(range(21))
        mu = DiscreteDistribution(labels, (1 / 21,) * 21)
        with pytest.raises(CapacityError):
            divergence_brute_force(mu, mu, 0.0)

    def test_equivalence_lemma_biconditional(self):
        # div <= delta iff every event satisfies mu(S) <= exp(eps) nu(S) + delta
        rng = np.random.default_rng(5)
        for _ in range(50):
            size = int(rng.integers(1, 10))
            mu = random_dist(rng, size)
            nu = random_dist(rng, size)
            eps = float(rng.uniform(0.0, 1.5))
            scale = math.exp(eps)
            value = divergence_discrete(mu, nu, eps).value
            subsets = [
                [i for i in range(size) if mask >> i & 1] for mask in range(2**size)
            ]
            for delta in (0.0, value - 1e-6, value, value + 1e-6, 1.0):
                all_events_hold = all(
                    event_prob(mu, [mu.support[i] for i in s])
                    <= scale * event_prob(nu, [nu.support[i] for i in s]) + delta + 1e-15
                    for s in subsets
                )
                assert (value <= delta + 1e-15) == all_events_hold


class TestMonotonicity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_discrete_monotone_in_eps(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 10))
        mu = random_dist(rng, size)
        nu = random_dist(rng, size)
        e1, e2 = sorted(rng.uniform(-0.5, 2.0, size=2))
        assert (
            divergence_discrete(mu, nu, e2).value
            <= divergence_discrete(mu, nu, e1).value + 1e-12
        )

    def test_laplace_pair_monotone_in_eps(self):
        values = [
            divergence_laplace_pair(1.0, 0.0, 1.0, eps).value
            for eps in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestLaplacePair:
    def test_zero_at_matching_eps(self):
        assert divergence_laplace_pair(1.0, 0.0, 1.0, 1.0).value <= 1e-9

    def test_reflexive_zero(self):
        assert divergence_laplace_pair(1.0, 0.0, 0.0, 0.0).value <= 1e-12

    def test_positive_below_matching_eps_and_matches_riemann(self):
        res = divergence_laplace_pair(1.0, 0.0, 1.0, 0.5, tol=1e-10)
        assert res.value > 0.01
        # independent midpoint-Riemann oracle at two step sizes
        for step in (2e-4, 1e-4):
            t = np.arange(-40.0, 41.0, step) + step / 2
            fx = np.exp(-np.abs(t)) / 2
            fy = np.exp(-np.abs(t - 1.0)) / 2
            riemann = np.maximum(fx - math.exp(0.5) * fy, 0.0).sum() * step
            assert res.value == pytest.approx(riemann, abs=1e-7)

    def test_symmetric_centers(self):
        a = divergence_laplace_pair(2.0, -1.0, 3.0, 0.7).value
        b = divergence_laplace_pair(2.0, 3.0, -1.0, 0.7).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            divergence_laplace_pair(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            divergence_laplace_pair(1.0, 0.0, 1.0, 1.0, tol=0.0)


def mpmath_laplace_pair(b, x, y, eps):
    """30-digit quadrature of max(0, f_x - e^eps f_y) over the real line.

    The line is split at the density kinks x, y and at the crossing point of
    f_x = e^eps f_y, so that each piece is smooth.
    """
    with mpmath.workdps(30):
        b, x, y, eps = (mpmath.mpf(v) for v in (b, x, y, eps))
        scale = mpmath.exp(eps)

        def integrand(t):
            fx = mpmath.exp(-abs(t - x) / b) / (2 * b)
            fy = mpmath.exp(-abs(t - y) / b) / (2 * b)
            return max(mpmath.mpf(0), fx - scale * fy)

        cuts = {x, y}
        if abs(eps * b) <= abs(x - y):
            cuts.add((x + y - eps * b) / 2 if x < y else (x + y + eps * b) / 2)
        points = [-mpmath.inf, *sorted(cuts), mpmath.inf]
        return mpmath.quad(integrand, points)


class TestLaplacePairClosedForm:
    @pytest.mark.parametrize(
        "b, x, y, eps",
        [
            (1.0, 0.0, 1.0, 1.5),  # eps > d
            (1.0, 0.0, 1.0, 1.0),  # eps = d exactly
            (2.0, 0.0, 3.0, 1.5),  # eps = d exactly, d = 1.5
            (1.0, 0.0, 1.0, 0.5),  # -d < eps < d
            (2.0, -1.0, 3.0, 0.7),
            (1.0, 1.0, 0.0, -0.3),
            (1.0, 0.0, 1.0, -1.0),  # eps = -d
            (1.0, 0.0, 1.0, -2.0),  # eps < -d
            (1.0, 0.3, 0.3, 0.0),  # x = y
            (1.0, 0.3, 0.3, -0.5),
            (1.0, 0.0, 39.0, 0.5),  # d = 39 scales
            (0.5, 0.0, 19.5, 38.0),
            (1.0, 0.0, 39.0, -39.0),
        ],
    )
    def test_matches_mpmath_quadrature(self, b, x, y, eps):
        truth = mpmath_laplace_pair(b, x, y, eps)
        res = divergence_laplace_pair(b, x, y, eps)
        assert abs(res.value - truth) <= 1e-15
        assert abs(res.value - truth) <= res.error_bound

    def test_small_gap_has_relative_accuracy(self):
        # eps = d - 2e-7 leaves a divergence near 1e-7, where 1 - exp(u)
        # would lose about half of its significant digits
        eps = 1.0 - 2e-7
        truth = mpmath_laplace_pair(1.0, 0.0, 1.0, eps)
        value = divergence_laplace_pair(1.0, 0.0, 1.0, eps).value
        assert 0.9e-7 < value < 1.1e-7
        assert abs(value - truth) <= 1e-12 * truth

    def test_error_bound_is_rounding_not_tolerance(self):
        # the tolerance does not loosen the value: d = 1 at eps = 0.8 is
        # 1 - e^-0.1 whatever tol is asked for
        res = divergence_laplace_pair(1.0, 0.0, 1.0, 0.8, tol=0.1)
        assert res.method == "quadrature"
        assert res.value == pytest.approx(-math.expm1(-0.1), abs=1e-15)
        assert res.error_bound < 1e-14
        assert abs(res.value - mpmath_laplace_pair(1.0, 0.0, 1.0, 0.8)) <= res.error_bound


class TestMonteCarlo:
    def test_identical_samplers_consistent_with_zero(self):
        def sampler(seed):
            rng = RandomSource(seed)
            return lambda n: laplace_sample_block(LaplaceDistribution(1.0, 0.0), rng, n)

        probe = laplace_sample_block(LaplaceDistribution(1.0, 0.0), RandomSource(0), 4000)
        events = interval_events(probe, grid=8)
        res = divergence_monte_carlo(sampler(1), sampler(2), events, 0.0, samples=20_000, alpha=0.05)
        assert res.method == "monte-carlo"
        assert res.value <= res.error_bound

    def test_brackets_quadrature_truth(self):
        truth = divergence_laplace_pair(1.0, 0.0, 1.0, 0.2).value

        def sampler(seed, z):
            rng = RandomSource(seed)
            return lambda n: laplace_sample_block(LaplaceDistribution(1.0, z), rng, n)

        probe = np.concatenate(
            [
                laplace_sample_block(LaplaceDistribution(1.0, 0.0), RandomSource(5), 2000),
                laplace_sample_block(LaplaceDistribution(1.0, 1.0), RandomSource(6), 2000),
            ]
        )
        events = interval_events(probe, grid=12)
        res = divergence_monte_carlo(
            sampler(7, 0.0), sampler(8, 1.0), events, 0.2, samples=100_000, alpha=0.01
        )
        # a genuine violation of (0.2, 0)-closeness is flagged by value > 0
        assert res.value > 0.0
        assert res.value <= truth <= res.value + res.error_bound

    def test_close_to_zero_at_matching_eps(self):
        def sampler(seed, z):
            rng = RandomSource(seed)
            return lambda n: laplace_sample_block(LaplaceDistribution(1.0, z), rng, n)

        probe = laplace_sample_block(LaplaceDistribution(1.0, 0.5), RandomSource(2), 4000)
        events = interval_events(probe, grid=12)
        res = divergence_monte_carlo(
            sampler(3, 0.0), sampler(4, 1.0), events, 1.0, samples=100_000, alpha=0.01
        )
        assert res.value <= 0.01
        assert res.value + res.error_bound >= 0.0

    def test_input_validation(self):
        sampler = lambda n: np.zeros(n)
        events = label_subset_events((0,))
        with pytest.raises(ParameterError):
            divergence_monte_carlo(sampler, sampler, events, 0.0, samples=10)
        with pytest.raises(ParameterError):
            divergence_monte_carlo(sampler, sampler, events, 0.0, samples=2000, alpha=1.5)
        with pytest.raises(DomainError):
            divergence_monte_carlo(sampler, sampler, [], 0.0, samples=2000)

    def test_clopper_pearson_edges(self):
        lo, hi = clopper_pearson(0, 100, 0.05)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = clopper_pearson(100, 100, 0.05)
        assert 0.9 < lo < 1.0 and hi == 1.0
        lo, hi = clopper_pearson(50, 100, 0.05)
        assert lo < 0.5 < hi
        with pytest.raises(DomainError):
            clopper_pearson(5, 4, 0.05)

    def test_clopper_pearson_closed_forms_at_the_ends(self):
        # k = 0: hi solves (1 - hi)^n = alpha/2; k = n: lo solves lo^n = alpha/2
        for n, alpha in ((1, 0.05), (20, 0.05), (1000, 1e-6)):
            assert clopper_pearson(0, n, alpha)[1] == pytest.approx(
                -math.expm1(math.log(alpha / 2.0) / n), rel=1e-12
            )
            lo = clopper_pearson(n, n, alpha)[0]
            assert lo == pytest.approx((alpha / 2.0) ** (1.0 / n), rel=1e-12)

    @pytest.mark.parametrize(
        "k,n,alpha",
        [(3, 20, 0.05), (17, 20, 0.05), (100, 200, 1e-6), (1, 1000, 1e-6), (999, 1000, 1e-3)],
    )
    def test_clopper_pearson_against_mpmath(self, k, n, alpha):
        # lo and hi solve I_lo(k, n-k+1) = alpha/2 and I_hi(k+1, n-k) = 1 - alpha/2,
        # by bisection on the regularized incomplete beta at 30 digits
        def quantile(a, b, level):
            with mpmath.workdps(30):
                def cdf_gap(x):
                    return mpmath.betainc(a, b, 0, x, regularized=True) - level

                return float(mpmath.findroot(cdf_gap, (0, 1), solver="bisect", verify=False))

        lo, hi = clopper_pearson(k, n, alpha)
        assert lo == pytest.approx(quantile(k, n - k + 1, mpmath.mpf(alpha) / 2), rel=1e-12)
        assert hi == pytest.approx(quantile(k + 1, n - k, 1 - mpmath.mpf(alpha) / 2), rel=1e-12)

    def test_label_subset_events_enumerates_all(self):
        events = label_subset_events((0, 1, 2))
        assert len(events) == 7


class TestBind:
    def test_pushforward_by_hand(self):
        mu = DiscreteDistribution(("x", "y"), (0.5, 0.5))
        kernel = DiscreteKernel.from_mapping(
            {
                "x": DiscreteDistribution(("a", "b"), (1.0, 0.0)),
                "y": DiscreteDistribution(("a", "b"), (0.5, 0.5)),
            }
        )
        out = bind(mu, kernel)
        assert out.prob("a") == 0.75
        assert out.prob("b") == 0.25

    def test_missing_row(self):
        mu = DiscreteDistribution(("x", "z"), (0.5, 0.5))
        kernel = DiscreteKernel.from_mapping(
            {"x": DiscreteDistribution(("a",), (1.0,))}
        )
        with pytest.raises(DomainError):
            bind(mu, kernel)


class TestComposability:
    def test_reflexive_composition_is_zero(self):
        rng = np.random.default_rng(21)
        mu = random_dist(rng, 3)
        f = random_kernel(rng, mu.support, 4)
        report = check_composability_brute_force(mu, mu, f, f, 0.0, 0.0, 0.0, 0.0)
        assert report.preconditions_hold
        assert report.holds
        assert report.composed_divergence == 0.0

    def test_randomized_response_with_constant_kernels(self):
        eps1 = math.log(3)
        mu = DiscreteDistribution((0, 1), (0.75, 0.25))
        nu = DiscreteDistribution((0, 1), (0.25, 0.75))
        const = DiscreteDistribution(("c",), (1.0,))
        f = DiscreteKernel.from_mapping({0: const, 1: const})
        report = check_composability_brute_force(mu, nu, f, f, eps1, 0.0, 0.0, 0.0)
        assert report.preconditions_hold and report.holds
        assert report.composed_divergence <= 1e-15

    def test_random_instances_always_hold(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            nx = int(rng.integers(1, 6))
            ny = int(rng.integers(1, 6))
            mu = random_dist(rng, nx)
            nu = random_dist(rng, nx)
            f = random_kernel(rng, mu.support, ny)
            g = random_kernel(rng, mu.support, ny)
            eps1, eps2 = rng.uniform(0.0, 2.0, size=2)
            delta1 = divergence_discrete(mu, nu, eps1).value
            delta2 = max(
                divergence_discrete(f(x), g(x), eps2).value for x in mu.support
            )
            report = check_composability_brute_force(
                mu, nu, f, g, float(eps1), float(eps2), delta1, delta2
            )
            assert report.preconditions_hold
            assert report.holds, report.detail

    def test_precondition_report(self):
        mu = DiscreteDistribution((0, 1), (0.9, 0.1))
        nu = DiscreteDistribution((0, 1), (0.1, 0.9))
        f = DiscreteKernel.from_mapping(
            {0: DiscreteDistribution(("a",), (1.0,)), 1: DiscreteDistribution(("a",), (1.0,))}
        )
        report = check_composability_brute_force(mu, nu, f, f, 0.0, 0.0, 0.0, 0.0)
        assert not report.preconditions_hold
        assert not report.holds

    def test_dimension_error(self):
        mu = DiscreteDistribution((0, 1), (0.5, 0.5))
        f = DiscreteKernel.from_mapping({0: DiscreteDistribution(("a",), (1.0,))})
        with pytest.raises(DimensionError):
            check_composability_brute_force(mu, mu, f, f, 0.0, 0.0, 0.0, 0.0)


class TestTransitivity:
    def test_identical_chain(self):
        mu = DiscreteDistribution((0, 1), (0.5, 0.5))
        assert check_transitivity(mu, mu, mu, 0.0, 0.0)

    def test_bernoulli_chain_with_minimal_eps(self):
        chain = [
            DiscreteDistribution((0, 1), (0.5, 0.5)),
            DiscreteDistribution((0, 1), (0.4, 0.6)),
            DiscreteDistribution((0, 1), (0.3, 0.7)),
        ]
        pad = 1e-12

        def minimal_eps(a, b):
            return max(
                math.log(a.prob(y) / b.prob(y)) for y in a.support if a.prob(y) > 0
            ) + pad

        e1 = minimal_eps(chain[0], chain[1])
        e2 = minimal_eps(chain[1], chain[2])
        assert check_transitivity(chain[0], chain[1], chain[2], e1, e2)

    def test_random_filtered_triples(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(200):
            size = int(rng.integers(2, 6))
            m1 = random_dist(rng, size)
            m2 = random_dist(rng, size)
            m3 = random_dist(rng, size)
            e1 = max(
                math.log(m1.probs[i] / m2.probs[i]) for i in range(size)
            ) + 1e-12
            e2 = max(
                math.log(m2.probs[i] / m3.probs[i]) for i in range(size)
            ) + 1e-12
            assert check_transitivity(m1, m2, m3, e1, e2)
            checked += 1
        assert checked == 200

    def test_precondition_violation_is_a_skip(self):
        mu = DiscreteDistribution((0, 1), (0.9, 0.1))
        nu = DiscreteDistribution((0, 1), (0.1, 0.9))
        with pytest.raises(PreconditionError):
            check_transitivity(mu, nu, mu, 0.0, 0.0)
