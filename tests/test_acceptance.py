"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every expected value here is either computed by an independent
oracle, inside the test or in ``oracles.py`` (brute force, Riemann sums,
Monte Carlo), or is a closed-form constant.
"""

import itertools
import json
import math

import numpy as np
import pytest

from dpcheck.cli import main
from dpcheck.datasets import (
    CountingQuerySet,
    counting_query,
    counting_sensitivity_analytic,
    pairs_within_distance,
)
from dpcheck.divergence import (
    DiscreteDistribution,
    DiscreteKernel,
    divergence_discrete,
    divergence_laplace_pair,
)
from dpcheck.laplace import (
    LaplaceDistribution,
    RandomSource,
    laplace_cdf,
    laplace_pdf,
    laplace_sample_block,
)
from dpcheck.mechanisms import (
    AdaptiveKernel,
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    adaptive_compose,
    check_dp_exact,
    check_dp_laplace,
    laplace_mechanism,
    pair_compose,
    post_process,
    randomized_response,
)
from dpcheck.quadrature import integrate_piecewise
from dpcheck.rnm import rnm_pmf, verify_rnm_dp_finer
from oracles import (
    adjacency_chain,
    argmax_insert,
    chain_is_valid,
    check_composability_brute_force,
    check_group_privacy,
    check_transitivity,
    divergence_brute_force,
    laplace_interval_prob,
    laplace_quantile,
    max_argmax,
    randomized_response_epsilon,
    shift_law_check,
)

NEG_INF = float("-inf")


def _report(number: int, name: str):
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def random_dist(rng, size) -> DiscreteDistribution:
    w = rng.random(size) + 1e-3
    return DiscreteDistribution(tuple(range(size)), tuple(w / w.sum()))


def test_criterion_01_laplace_calculus():
    rng = np.random.default_rng(20240801)
    params = [(float(b), float(z)) for b, z in zip(rng.uniform(0.5, 3.0, 20), rng.uniform(-5, 5, 20))]

    for b, z in params:
        d = LaplaceDistribution(b, z)
        # unit mass by quadrature over 40 scale units per side
        total = integrate_piecewise(lambda t: laplace_pdf(d, t), [z - 40 * b, z, z + 40 * b], 1e-12)
        assert abs(total - 1.0) <= 1e-10

        # central finite differences of the CDF reproduce the density
        h = 1e-7
        for t in np.linspace(z - 5 * b, z + 5 * b, 41):
            deriv = (laplace_cdf(d, t + h) - laplace_cdf(d, t - h)) / (2 * h)
            assert abs(deriv - laplace_pdf(d, t)) <= 1e-6

        # quantile(cdf(x)) = x at 1e-9.  The lower branch keeps full relative
        # precision out to 30 scale units; the upper branch stores p as
        # 1 - tail, whose float64 granularity caps 1e-9 accuracy near 13
        # scale units (ulp(1)/2 * exp(13) / b ~ 5e-11), so the identity is
        # checked on the information-preserving range.
        for u in np.linspace(-30.0, 13.0, 87):
            x = z + u * b
            assert abs(laplace_quantile(d, laplace_cdf(d, x)) - x) <= 1e-9

        # the shift law is an exact algebraic identity of the CDF formula
        assert shift_law_check(b, z, 0.0, grid_points=1000)

    _report(1, "laplace calculus")


def test_criterion_02_ratio_bound_intervals():
    rng = np.random.default_rng(7021)
    violations = 0
    for _ in range(10_000):
        b = float(rng.uniform(0.2, 4.0))
        x, y = rng.uniform(-8.0, 8.0, size=2)
        r = abs(x - y)
        lo, hi = sorted(rng.normal(0.0, 6.0, size=2))
        if rng.random() < 0.1:
            lo = -1e9
        if rng.random() < 0.1:
            hi = 1e9
        px = laplace_interval_prob(LaplaceDistribution(b, float(x)), lo, hi)
        py = laplace_interval_prob(LaplaceDistribution(b, float(y)), lo, hi)
        if px > math.exp(r / b) * py + 1e-12:
            violations += 1
    assert violations == 0
    _report(2, "laplace interval ratio bound")


def _subset_gaps(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    # independent subset enumeration: gap vector over all events by doubling
    gaps = np.zeros(1)
    for d in p - math.exp(eps) * q:
        gaps = np.concatenate([gaps, gaps + d])
    return gaps


def test_criterion_03_divergence_oracle_equivalence():
    rng = np.random.default_rng(515)
    for _ in range(1000):
        size = int(rng.integers(1, 16))
        mu = random_dist(rng, size)
        nu = random_dist(rng, size)
        eps = float(rng.uniform(-0.5, 2.0))
        exact = divergence_discrete(mu, nu, eps).value
        brute = divergence_brute_force(mu, nu, eps).value
        assert abs(exact - brute) <= 1e-12

        # equivalence: div <= delta iff every event obeys the DP inequality
        gaps = _subset_gaps(np.array(mu.probs), np.array(nu.probs), eps)
        sup = gaps.max()
        for delta in (0.0, exact - 1e-6, exact, exact + 1e-6, 1.0):
            assert (exact <= delta + 1e-15) == (sup <= delta + 1e-15)
    _report(3, "hockey-stick sum equals subset brute force + equivalence")


def test_criterion_04_structural_properties():
    rng = np.random.default_rng(99)

    # nonnegativity and reflexivity
    for _ in range(10_000):
        size = int(rng.integers(1, 6))
        mu = random_dist(rng, size)
        nu = random_dist(rng, size)
        eps = float(rng.uniform(-1.0, 2.0))
        assert divergence_discrete(mu, nu, eps).value >= 0.0
        assert divergence_discrete(mu, mu, 0.0).value == 0.0

    # monotonicity in eps
    for _ in range(10_000):
        size = int(rng.integers(1, 6))
        mu = random_dist(rng, size)
        nu = random_dist(rng, size)
        e1, e2 = sorted(rng.uniform(-1.0, 2.0, size=2))
        assert (
            divergence_discrete(mu, nu, float(e2)).value
            <= divergence_discrete(mu, nu, float(e1)).value + 1e-12
        )

    # transitivity of zero-divergence steps
    for _ in range(10_000):
        size = int(rng.integers(2, 6))
        m1, m2, m3 = (random_dist(rng, size) for _ in range(3))
        e1 = max(math.log(m1.probs[i] / m2.probs[i]) for i in range(size)) + 1e-12
        e2 = max(math.log(m2.probs[i] / m3.probs[i]) for i in range(size)) + 1e-12
        assert check_transitivity(m1, m2, m3, e1, e2)

    # composability through kernels
    for _ in range(10_000):
        nx = int(rng.integers(1, 6))
        ny = int(rng.integers(1, 6))
        mu = random_dist(rng, nx)
        nu = random_dist(rng, nx)
        f = DiscreteKernel.from_mapping({x: random_dist(rng, ny) for x in mu.support})
        g = DiscreteKernel.from_mapping({x: random_dist(rng, ny) for x in mu.support})
        eps1, eps2 = (float(v) for v in rng.uniform(0.0, 2.0, size=2))
        delta1 = divergence_discrete(mu, nu, eps1).value
        delta2 = max(divergence_discrete(f(x), g(x), eps2).value for x in mu.support)
        report = check_composability_brute_force(mu, nu, f, g, eps1, eps2, delta1, delta2)
        assert report.preconditions_hold and report.holds, report.detail

    _report(4, "divergence structural properties (5 x 10^4 trials)")


def test_criterion_05_laplace_pair_divergence():
    at_matching = divergence_laplace_pair(1.0, 0.0, 1.0, 1.0, tol=1e-10)
    assert abs(at_matching.value) <= 1e-9

    below = divergence_laplace_pair(1.0, 0.0, 1.0, 0.5, tol=1e-10)
    assert below.value > 0.01

    # independent oracle: midpoint Riemann sums at a step and half the step
    for step in (2e-4, 1e-4):
        t = np.arange(-40.0, 41.0, step) + step / 2
        fx = np.exp(-np.abs(t)) / 2
        fy = np.exp(-np.abs(t - 1.0)) / 2
        riemann = float(np.maximum(fx - math.exp(0.5) * fy, 0.0).sum() * step)
        assert abs(below.value - riemann) <= 1e-7
    _report(5, "laplace pair divergence vs Riemann oracle")


def _counting_laplace(q: CountingQuerySet, eps: float) -> Mechanism:
    sens = SensitivitySpec(float(counting_sensitivity_analytic(q)), "analytic")
    return laplace_mechanism(
        lambda d: [float(v) for v in counting_query(q, d)], q.m, sens, eps, input_desc=q.n
    )


def test_criterion_06_laplace_mechanism_desk_scale():
    query_sets = [
        CountingQuerySet(3, (frozenset({0}),)),
        CountingQuerySet(3, (frozenset({0}), frozenset({0, 1}))),
        CountingQuerySet(3, (frozenset({0}), frozenset({1, 2}), frozenset({0, 1, 2}))),
        CountingQuerySet(3, (frozenset({0}),) * 3),
    ]
    pairs = pairs_within_distance(3, 2, 1)
    for q in query_sets:
        for eps in (0.5, 1.0, 2.0):
            mech = _counting_laplace(q, eps)
            report = check_dp_laplace(mech, pairs, PrivacyBudget(eps, 0.0))
            assert report.verdict == "pass", f"{q.to_json()} at eps={eps}: {report.witness}"
            report = check_dp_laplace(mech, pairs, PrivacyBudget(eps / 4, 0.0))
            assert report.verdict == "violation" and report.witness is not None
            assert report.witness.gap > 0.0
            assert report.witness.event[0] == "coordinate"
    _report(6, "laplace mechanism passes at declared eps, fails at eps/4")


def test_criterion_07_composition_theorems():
    rng = np.random.default_rng(2718)

    # paired composition of randomized responses at summed budgets
    for _ in range(1000):
        p1, p2 = (float(v) for v in rng.uniform(0.05, 0.45, size=2))
        pair = pair_compose(randomized_response(p1), randomized_response(p2))
        eps = randomized_response_epsilon(p1) + randomized_response_epsilon(p2)
        report = check_dp_exact(pair, [(0, 1)], PrivacyBudget(eps, 0.0))
        assert report.verdict == "pass", report.witness

    # adaptive composition with branch-dependent second stages
    for _ in range(1000):
        p1, pa, pb = (float(v) for v in rng.uniform(0.05, 0.45, size=3))
        second = {0: randomized_response(pa), 1: randomized_response(pb)}
        kernel = AdaptiveKernel(
            sample_block=lambda x, z, rng_, n, second=second: second[z].sample_block(x, rng_, n),
            pmf=lambda x, z, second=second: second[z].pmf(x),
            output_labels=(0, 1),
        )
        comp = adaptive_compose(randomized_response(p1), kernel)
        eps = randomized_response_epsilon(p1) + max(
            randomized_response_epsilon(pa), randomized_response_epsilon(pb)
        )
        report = check_dp_exact(comp, [(0, 1)], PrivacyBudget(eps, 0.0))
        assert report.verdict == "pass", report.witness

    # post-processing never increases the exact divergence
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        labels = tuple(range(k))
        w0 = rng.random(k) + 1e-3
        w1 = rng.random(k) + 1e-3
        table = {
            0: DiscreteDistribution(labels, tuple(w0 / w0.sum())),
            1: DiscreteDistribution(labels, tuple(w1 / w1.sum())),
        }
        mech = Mechanism((0, 1), ("finite", labels), lambda x, r, n: None, pmf=table.__getitem__)
        out_k = int(rng.integers(1, 4))
        kernel = DiscreteKernel.from_mapping(
            {
                y: DiscreteDistribution(
                    tuple(range(out_k)), tuple((w := rng.random(out_k) + 1e-3) / w.sum())
                )
                for y in labels
            }
        )
        post = post_process(mech, kernel)
        eps = float(rng.uniform(0.0, 1.5))
        assert (
            divergence_discrete(post.pmf(0), post.pmf(1), eps).value
            <= divergence_discrete(mech.pmf(0), mech.pmf(1), eps).value + 1e-12
        )

    _report(7, "composition theorems (pair, adaptive, post-processing)")


def _geometric_mechanism(eps: float, top: int) -> Mechanism:
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

    def sample_block(d, rng, n):
        return pmf(d).sample_index_block(rng, n)  # support order is 0..top

    return Mechanism(1, ("finite", tuple(range(top + 1))), sample_block, pmf=pmf)


def test_criterion_08_group_privacy():
    eps = 0.8
    mech = _geometric_mechanism(eps, top=3)
    for k in (2, 3):
        ok, witness = check_group_privacy(mech, eps, k, max_entry=3, slack=1e-10)
        assert ok, witness
        # independent re-check: the k*eps bound and a verifying chain per pair
        budget = PrivacyBudget(k * eps, 0.0)
        for a, b in pairs_within_distance(1, 3, k):
            report = check_dp_exact(mech, [(a, b)], budget, slack=1e-10)
            assert report.verdict == "pass", report.witness
            chain = adjacency_chain(a, b, k)
            assert chain_is_valid(chain, a, b, k)
    _report(8, "group privacy at k*eps with explicit adjacency chains")


def test_criterion_09_argmax_machinery():
    assert max_argmax([]) == (NEG_INF, 0)
    assert max_argmax([5, 3, 4]) == (5, 0)
    assert max_argmax([5, 5, 3]) == (5, 1)

    values = (0, 1, 2, 3, 4)
    inserts = (-1, 0, 1, 2, 3, 4)
    instances = 0
    for length in range(6):
        for entries in itertools.product(values, repeat=length):
            entries = list(entries)
            full_max = max_argmax(entries)[0]
            suffix_max = [max_argmax(entries[i:])[0] for i in range(length + 1)]
            for i in range(length + 1):
                for k in inserts:
                    hit = argmax_insert(k, entries, i) == i
                    assert hit == (k >= full_max and k != suffix_max[i])
                    instances += 1
    assert instances >= 100_000
    _report(9, f"argmax insert characterization ({instances} exhaustive instances)")


def test_criterion_10_rnm_bound_desk_scale():
    n, max_entry = 4, 2
    families = {
        "identical": lambda m: CountingQuerySet(n, (frozenset({0}),) * m),
        "singletons": lambda m: CountingQuerySet(n, tuple(frozenset({j % n}) for j in range(m))),
        "prefixes": lambda m: CountingQuerySet(
            n, tuple(frozenset(range(min(j + 1, n))) for j in range(m))
        ),
        "contrast": lambda m: CountingQuerySet(
            n, tuple(frozenset({0}) if j == 0 else frozenset({1}) for j in range(m))
        ),
    }
    for eps in (0.5, 1.0):
        bound = math.exp(eps)
        contrast_top = 0.0
        for m in range(1, 6):
            for name, build in families.items():
                rep = verify_rnm_dp_finer(build(m), eps, max_entry=max_entry, tol=1e-9)
                assert rep.dichotomy_ok
                assert rep.all_pass, f"{name} m={m} eps={eps}"
                assert rep.max_ratio <= bound + 1e-6, f"{name} m={m} eps={eps}: {rep.max_ratio}"
                if name == "identical" and m == 5:
                    # all queries count the changed type: the naive
                    # sensitivity bound exp(m * eps) is maximally loose while
                    # the observed ratio is 1 by shift invariance
                    assert rep.naive_bound == pytest.approx(math.exp(5 * eps))
                    assert rep.naive_bound > bound
                    assert rep.max_ratio == pytest.approx(1.0, abs=1e-8)
                if name == "contrast" and m == 5:
                    contrast_top = rep.max_ratio
        # one family drives the observed ratio against the exp(eps) ceiling
        assert contrast_top >= 0.95 * bound
        assert contrast_top <= bound + 1e-6
    _report(10, "report-noisy-max bound exp(eps) across enumerated instances")


def test_criterion_11_rnm_probabilities_vs_monte_carlo():
    rng = np.random.default_rng(1111)
    for trial in range(20):
        m = int(rng.integers(1, 5))
        c = [float(v) for v in rng.uniform(-3.0, 3.0, size=m)]
        probs = rnm_pmf(c, 1.0, tol=1e-9)
        assert abs(sum(probs) - 1.0) <= m * 1e-9

        n_total = 1_000_000
        chunk = 200_000
        counts = np.zeros(m, dtype=np.int64)
        source = RandomSource(5000 + trial)
        for _ in range(n_total // chunk):
            cols = [
                laplace_sample_block(LaplaceDistribution(1.0, ci), source, chunk) for ci in c
            ]
            noisy = np.column_stack(cols)
            wins = m - 1 - np.argmax(noisy[:, ::-1], axis=1)
            counts += np.bincount(wins, minlength=m)
        for i in range(m):
            p_hat = counts[i] / n_total
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n_total)
            assert abs(probs[i] - p_hat) <= 4 * se + 1e-9
    _report(11, "rnm quadrature probabilities within 4 sigma of 10^6-sample MC")


def test_criterion_12_cli_reports_are_byte_identical(tmp_path):
    configs = {
        "sample": {
            "mechanism": {
                "kind": "laplace",
                "queries": {"n": 2, "queries": [[0], [0, 1]]},
                "epsilon": 1.0,
            },
            "input": {"histogram": [3, 1]},
            "samples": 5,
            "seed": 99,
        },
        "divergence": {
            "epsilon": 0.4,
            "seed": 7,
            "samples": 2000,
            "lhs": {
                "kind": "mechanism",
                "mechanism": {"kind": "randomized-response", "flip_prob": 0.25},
                "input": 0,
            },
            "rhs": {
                "kind": "mechanism",
                "mechanism": {"kind": "randomized-response", "flip_prob": 0.25},
                "input": 1,
            },
        },
        "audit": {
            "mechanism": {
                "kind": "rnm",
                "queries": {"n": 2, "queries": [[0], [1]]},
                "epsilon": 1.0,
            },
            "budget": {"epsilon": 1.0, "delta": 0.0},
            "adjacency": {
                "kind": "pairs",
                "items": [[{"histogram": [0, 1]}, {"histogram": [1, 1]}]],
            },
            "samples": 2000,
            "seed": 13,
        },
        "rnm-verify": {"epsilon": 1.0, "n": 2, "max_entry": 1, "m_max": 2, "seed": 5},
        "accountant": {
            "tree": {
                "kind": "seq",
                "children": [
                    {"kind": "budget", "epsilon": 1.0},
                    {"kind": "group", "k": 2, "child": {"kind": "budget", "epsilon": 0.25}},
                ],
            }
        },
    }
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{command}-{attempt}.json"
            code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 1), f"{command} exited {code}"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{command} report is not reproducible"
    _report(12, "CLI reports byte-identical across reruns")
