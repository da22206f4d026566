"""Event families as data: their counts, labels and order against one
indicator mask per event, and the array Clopper-Pearson bounds against
``scipy.stats.beta.ppf``."""

import math

import numpy as np
import pytest
from scipy import stats

from dpcheck.divergence import (
    clopper_pearson,
    estimate_events,
    interval_events,
    label_subset_events,
)
from dpcheck.laplace import RandomSource
from dpcheck.mechanisms import (
    SensitivitySpec,
    default_events,
    label_array,
    laplace_mechanism,
    pair_compose,
    post_process,
    randomized_response,
)
from oracles import default_event_masks, interval_masks, label_subset_masks, mask_counts


def assert_same_events(family, masks, *blocks):
    assert len(family) == len(masks)
    for block in blocks:
        labels, counts = mask_counts(masks, block)
        assert list(family.labels) == labels
        assert family.counts(block).tolist() == counts


class TestIntervalCounts:
    def test_tied_samples_and_duplicate_quantile_edges(self):
        rng = np.random.default_rng(3)
        probe = rng.choice([0.0, 1.0, 1.0, 1.0, 2.5, 7.0], size=500)
        # most of the 16 quantiles coincide, so the edges collapse
        assert len(np.unique(np.quantile(probe, np.linspace(0.0, 1.0, 16)))) == 4
        family = interval_events(probe, grid=16)
        # samples on every edge, between edges and outside them
        block = np.concatenate([probe[:200], [0.0, 1.0, 2.5, 7.0, 0.5, -1.0, 9.0]])
        assert_same_events(family, interval_masks(probe, grid=16), probe, block)

    def test_continuous_samples_and_integer_blocks(self):
        rng = np.random.default_rng(4)
        probe = rng.laplace(0.0, 1.0, 3000)
        family = interval_events(probe, grid=12)
        ints = rng.integers(-3, 4, 400)
        assert_same_events(family, interval_masks(probe, grid=12), probe, ints, probe[:0])

    def test_a_constant_probe_has_two_bounds_around_one_edge(self):
        family = interval_events(np.full(50, 2.0), grid=8)
        assert list(family.labels) == ["(-inf, 2]", "(-inf, inf]", "(2, inf]"]
        assert family.counts([1.0, 2.0, 2.0, 3.0]).tolist() == [3, 4, 1]


class TestLabelCounts:
    def test_tuple_labels_and_labels_outside_the_support(self):
        support = [(y, z) for y in (0, 1) for z in ("a", "b")]
        rng = np.random.default_rng(5)
        picks = rng.integers(0, len(support) + 1, 300)
        block = label_array([support[i] if i < len(support) else (2, "z") for i in picks])
        family = label_subset_events(support)
        assert len(family) == 15
        assert_same_events(family, label_subset_masks(support), block, list(block))

    def test_above_the_cap_only_singletons(self):
        support = list(range(15))
        block = np.random.default_rng(6).integers(-1, 17, 500)
        family = label_subset_events(support + [3, 4])
        assert len(family) == 15
        assert_same_events(family, label_subset_masks(support), block)

    def test_at_the_cap_every_subset(self):
        support = [f"s{i}" for i in range(12)]
        block = label_array([support[i] for i in np.random.default_rng(7).integers(0, 12, 200)])
        family = label_subset_events(support)
        assert len(family) == 2**12 - 1
        assert_same_events(family, label_subset_masks(support), block)


class TestProductCounts:
    LAPLACE = laplace_mechanism(lambda d: [0.0, 1.0], 2, SensitivitySpec(1.0, "declared"), 1.0)
    RR = randomized_response(0.25)
    POST = post_process(RR, {0: "no", 1: "yes"}.__getitem__)

    @pytest.mark.parametrize(
        "mech",
        [
            pair_compose(LAPLACE, POST),
            pair_compose(POST, LAPLACE),
            pair_compose(RR, POST),
            pair_compose(pair_compose(LAPLACE, RR), LAPLACE),
        ],
        ids=["laplace-post", "post-laplace", "finite-pair", "nested"],
    )
    def test_pair_and_post_outputs(self, mech):
        xs = mech.sample_block(0, RandomSource(1), 600)
        ys = mech.sample_block(1, RandomSource(2), 600)
        family = default_events(mech.output_desc, xs, ys)
        assert_same_events(family, default_event_masks(mech.output_desc, xs, ys), xs, ys)


def scalar_estimates(xs, ys, masks, eps, alpha_each):
    """(point, lower, upper) per event and direction, one mask count and
    two scalar beta quantiles per event and side."""

    def bounds(k, n):
        lo = 0.0 if k == 0 else float(stats.beta.ppf(alpha_each / 2.0, k, n - k + 1))
        hi = 1.0 if k == n else float(stats.beta.ppf(1.0 - alpha_each / 2.0, k + 1, n - k))
        return lo, hi

    scale = math.exp(eps)
    out = []
    for lhs, rhs in ((xs, ys), (ys, xs)):
        rows = []
        for _, ind in masks:
            k_mu, k_nu = int(np.count_nonzero(ind(lhs))), int(np.count_nonzero(ind(rhs)))
            (lo_mu, hi_mu), (lo_nu, hi_nu) = bounds(k_mu, len(lhs)), bounds(k_nu, len(rhs))
            point = k_mu / len(lhs) - scale * k_nu / len(rhs)
            rows.append((point, lo_mu - scale * hi_nu, hi_mu - scale * lo_nu))
        out.append([list(col) for col in zip(*rows)])
    return out


def test_estimates_match_scalar_bounds_in_both_directions():
    mech = pair_compose(TestProductCounts.LAPLACE, TestProductCounts.RR)
    xs = mech.sample_block(0, RandomSource(3), 2000)
    ys = mech.sample_block(1, RandomSource(4), 1500)
    family = default_events(mech.output_desc, xs, ys)
    masks = default_event_masks(mech.output_desc, xs, ys)
    forward, reverse = estimate_events(xs, ys, family, 0.3, 1e-4)
    for est, expected in zip((forward, reverse), scalar_estimates(xs, ys, masks, 0.3, 1e-4)):
        assert [est.point.tolist(), est.lower.tolist(), est.upper.tolist()] == expected


class TestClopperPearsonArray:
    @staticmethod
    def assert_matches_beta_ppf(k, n, alpha):
        lo, hi = clopper_pearson(k, n, alpha)
        inner = (k > 0) & (k < n)
        lo_ref = stats.beta.ppf(alpha / 2.0, k[k > 0], n - k[k > 0] + 1)
        hi_ref = stats.beta.ppf(1.0 - alpha / 2.0, k[k < n] + 1, n - k[k < n])
        assert lo[k > 0].tolist() == lo_ref.tolist()
        assert hi[k < n].tolist() == hi_ref.tolist()
        assert (lo[k == 0] == 0.0).all() and (hi[k == n] == 1.0).all()
        assert (lo[inner] < hi[inner]).all()

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 0.05])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_every_count_bit_for_bit(self, n, alpha):
        self.assert_matches_beta_ppf(np.arange(n + 1), n, alpha)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 0.05])
    @pytest.mark.parametrize("n", [5000, 20000])
    def test_sampled_counts_bit_for_bit(self, n, alpha):
        rng = np.random.default_rng(n)
        k = np.concatenate([[0, 1, 2, n - 2, n - 1, n], rng.integers(0, n + 1, 400)])
        self.assert_matches_beta_ppf(k, n, alpha)

    def test_shape_follows_the_counts(self):
        lo, hi = clopper_pearson(np.array([[0, 3], [9, 10]]), 10, 0.05)
        assert lo.shape == hi.shape == (2, 2)
        assert lo[0, 0] == 0.0 and hi[1, 1] == 1.0
