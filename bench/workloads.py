"""Seeded generators for the four benchmark workloads.

Each workload is a list of strata, one config per stratum per cycle.  The
strata fix the sizes that set an operation's cost; the seed draws the
rest (epsilon, query sets, pairs, budgets, sampling seeds).  Every cycle
therefore holds the same mix of operation sizes, which keeps the latency
percentiles of a run comparable across seeds.

Margins: every case sits clear of its pass/violate boundary.
  - Deterministic routes (tol = 1e-9): audit budgets keep delta at least
    DETERMINISTIC_MARGIN (= 1e6 tol) away from the oracle divergence.
    rnm-verify has no budget to place: report noisy max is eps-DP, so
    every row passes with the full tol to spare.
  - Statistical routes: a private mechanism gets delta = PRIVATE_MARGIN
    resolutions above its oracle divergence (which is 0), and a broken one
    has an oracle gap of at least BROKEN_MARGIN resolutions above delta.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

TOL = 1e-9
DETERMINISTIC_MARGIN = 1e6 * TOL
PRIVATE_MARGIN = 3.0
BROKEN_MARGIN = 4.0
# Overall audit level.  A correct audit reports a max_lower above the true
# divergence with probability at most ALPHA, so an oracle check that
# compares them misfires on a correct program at most once per 1e6 runs.
ALPHA = 1e-6
ENUMERATION_BUDGET = 200_000
# Interval events per output coordinate in the statistical audit: a
# 12-point quantile grid plus +-inf gives C(14, 2) intervals.  Used only
# to size the resolution that the margins above are measured in.
INTERVAL_EVENTS_PER_COORD = 91

# (n, max_entry, m_max); the m_max <= 5 grid minus the cases above ~1 s.
RNM_STRATA = [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 2, 2), (2, 2, 3),
    (2, 2, 4), (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2),
]
# Passing quadrature audits, (n, predicate sizes), k = 1.  A pass decides
# every pair and costs in proportion to the coordinates the pairs move,
# i.e. to the sum of the predicate sizes over n; these keep that near 600
# moving coordinates, about half a second.  The seed picks the types.
QUADRATURE_PASSES = [
    (2, (1,)), (2, (1,)), (3, (2,)), (3, (1, 1)),
    (3, (1, 1)), (4, (3,)), (4, (2, 1)), (4, (1, 1, 1)),
]
# Violating audits, (n, predicates, eps), k = 2: the larger m and k, as a
# violation stops at its first witness.  Delta sits below the profile of a
# one-record change, so the witness is the first pair that moves a counted
# type by one and its quadrature instance depends only on the stratum:
# the witness-gap errors form a fixed panel, not a seed-dependent draw
# whose median swung 20% between seeds.  The seed permutes the types.
QUADRATURE_VIOLATIONS = [
    (2, ((0,), (0, 1), (1,), (0,)), 0.6),
    (3, ((0,), (1, 2)), 0.9),
    (3, ((0, 1), (2,), (0, 1, 2)), 1.2),
    (4, ((0, 1), (2,), (3,)), 1.5),
    (4, ((0,), (1, 2), (0, 1, 2), (3,)), 1.8),
]
SAMPLES = (5_000, 10_000, 20_000)
# (m, samples, broken) for the statistical audits.  Cost grows with m, then
# with samples; the broken strata sit off the median and p75 ranks, where
# their seed-dependent separation would move the percentiles.
INTERVAL_STRATA = [(m, s, (m + i) % 3 == 1) for m in (1, 2, 3) for i, s in enumerate(SAMPLES)]
# One-hot noisy max with m = 2 thresholds a single noisy score and is
# still eps-DP, so the broken variant starts at m = 3.
LABEL_STRATA = [
    (2, SAMPLES[0], False), (2, SAMPLES[1], False), (2, SAMPLES[2], False),
    (3, SAMPLES[0], True), (3, SAMPLES[1], False), (3, SAMPLES[2], True),
    (4, SAMPLES[0], False), (4, SAMPLES[1], True), (4, SAMPLES[2], False),
]
STAT_TYPES = 3
STAT_MAX_ENTRY = 3
STAT_PAIRS = 3


@dataclass
class Op:
    """One CLI invocation plus what the checker needs to judge its report."""

    command: str
    config: dict
    spec: dict
    pairs: int = 0  # distinct off-diagonal pairs decided, counted by the oracle
    path: Path | None = None
    prepared: bool = False
    verified: dict = field(default_factory=dict)  # report digest -> oracle error, for reports that passed


def rnm_families(n: int, m: int) -> dict[str, list[set[int]]]:
    """The query-set families that rnm-verify promises to cover."""
    families = {
        "identical": [{0} for _ in range(m)],
        "singletons": [{j % n} for j in range(m)],
        "prefixes": [set(range(min(j + 1, n))) for j in range(m)],
    }
    if n >= 2:
        families["contrast"] = [{0} if j == 0 else {1} for j in range(m)]
    return families


def largest_max_entry(n: int) -> int:
    """Largest max_entry whose pair enumeration fits the program's budget."""
    me = 1
    while (me + 2) ** (2 * n) <= ENUMERATION_BUDGET:
        me += 1
    return me


def _random_queries(rng: random.Random, n: int, m: int) -> list[list[int]]:
    queries = []
    for _ in range(m):
        size = rng.randint(1, n)
        queries.append(sorted(rng.sample(range(n), size)))
    return queries


def _random_neighbour_pair(rng: random.Random, n: int, max_entry: int, types=None):
    a = [rng.randint(0, max_entry) for _ in range(n)]
    t = rng.choice(sorted(types) if types else range(n))
    step = 1 if a[t] < max_entry and (a[t] == 0 or rng.random() < 0.5) else -1
    b = list(a)
    b[t] += step
    return tuple(a), tuple(b)


def _spread_epsilons(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One epsilon from each of count equal bins of [lo, hi], in seeded order.

    Epsilon moves an operation's cost, so a cycle that covers the whole
    range evenly costs about the same for every seed.
    """
    bins = rng.sample(range(count), count)
    return [lo + (hi - lo) * (b + rng.random()) / count for b in bins]


def _rnm_cycle(rng: random.Random) -> list[Op]:
    ops = []
    epsilons = _spread_epsilons(rng, len(RNM_STRATA), 0.25, 2.0)
    for (n, max_entry, m_max), eps in zip(RNM_STRATA, epsilons):
        cfg = {"epsilon": eps, "n": n, "max_entry": max_entry, "m_max": m_max, "tol": TOL}
        ops.append(Op("rnm-verify", cfg, dict(cfg)))
    return ops


def _quadrature_op(n, queries, k, eps, eps_b, delta, violate) -> Op:
    max_entry = largest_max_entry(n)
    cfg = {
        "mechanism": {"kind": "laplace", "queries": {"n": n, "queries": queries}, "epsilon": eps},
        "budget": {"epsilon": eps_b, "delta": delta},
        "adjacency": {"kind": "l1", "n": n, "max_entry": max_entry, "k": k},
        "method": "quadrature",
        "tol": TOL,
    }
    spec = {
        "n": n, "max_entry": max_entry, "k": k, "queries": queries,
        "scale": oracle.analytic_sensitivity(queries, n) / eps,
        "eps_b": eps_b, "delta": delta, "tol": TOL,
        "expect": "violation" if violate else "pass",
    }
    return Op("audit", cfg, spec)


def _quadrature_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for n, sizes in QUADRATURE_PASSES:
        queries = [sorted(rng.sample(range(n), size)) for size in sizes]
        eps = rng.uniform(0.5, 2.0)
        # k = 1: a pair moves a coordinate by at most one record
        d_max = eps / oracle.analytic_sensitivity(queries, n)
        eps_b = rng.uniform(0.4, 0.8) * min(eps, d_max)
        delta = oracle.laplace_profile(eps_b, d_max) + rng.uniform(0.02, 0.2)
        ops.append(_quadrature_op(n, queries, 1, eps, eps_b, delta, False))
    for n, pattern, eps in QUADRATURE_VIOLATIONS:
        types = rng.sample(range(n), n)
        queries = [sorted(types[t] for t in p) for p in pattern]
        d_one = eps / oracle.analytic_sensitivity(queries, n)
        eps_b = 0.5 * d_one
        delta = oracle.laplace_profile(eps_b, d_one) * rng.uniform(0.1, 0.6)
        ops.append(_quadrature_op(n, queries, 2, eps, eps_b, delta, True))
    return ops


def _statistical_config(mechanism, pairs, eps, delta, samples, seed) -> dict:
    return {
        "mechanism": mechanism,
        "budget": {"epsilon": eps, "delta": delta},
        "adjacency": {
            "kind": "pairs",
            "items": [[{"histogram": list(a)}, {"histogram": list(b)}] for a, b in pairs],
        },
        "method": "statistical",
        "samples": samples,
        "alpha": ALPHA,
        "seed": seed,
    }


def _interval_cycle(rng: random.Random) -> list[Op]:
    ops = []
    epsilons = _spread_epsilons(rng, len(INTERVAL_STRATA), 0.5, 1.25)
    for (m, samples, broken), eps in zip(INTERVAL_STRATA, epsilons):
        queries = _random_queries(rng, STAT_TYPES, m)
        sens = oracle.analytic_sensitivity(queries, STAT_TYPES)
        # the first pair moves a type that query 0 counts, so some coordinate moves
        pairs = [_random_neighbour_pair(rng, STAT_TYPES, STAT_MAX_ENTRY, queries[0])]
        pairs += [_random_neighbour_pair(rng, STAT_TYPES, STAT_MAX_ENTRY) for _ in range(STAT_PAIRS - 1)]
        tests = 2 * len(pairs) * m * INTERVAL_EVENTS_PER_COORD
        res = oracle.resolution(eps, tests, samples, ALPHA)
        mechanism = {"kind": "laplace", "queries": {"n": STAT_TYPES, "queries": queries}, "epsilon": eps}
        declared = sens

        def gaps(scale):
            return {
                (a, b): max(
                    oracle.laplace_profile(eps, abs(x - y) / scale)
                    for x, y in zip(oracle.query_values(queries, a), oracle.query_values(queries, b))
                )
                for a, b in pairs
            }

        if broken:
            # declare an eighth of the sensitivity, or less if the gap
            # needs it to clear the margin
            declared = sens / 8.0
            while max(gaps(declared / eps).values()) < BROKEN_MARGIN * res:
                declared /= 2.0
            mechanism["sensitivity"] = declared
            delta = 0.0
        else:
            delta = PRIVATE_MARGIN * res
        div = gaps(declared / eps)
        spec = {
            "pairs": [[list(a), list(b)] for a, b in pairs],
            "divergence": {"forward": [div[p] for p in pairs], "reverse": [div[p] for p in pairs]},
            "eps_b": eps, "delta": delta, "resolution": res,
            "expect": "violation" if broken else "no-violation-found",
        }
        ops.append(Op("audit", _statistical_config(mechanism, pairs, eps, delta, samples, rng.randrange(2**31)), spec))
    return ops


def _one_hot_divergence(queries, pair, eps) -> tuple[float, float]:
    pa, pb = (oracle.one_hot_noisy_max_pmf(oracle.query_values(queries, h), eps) for h in pair)
    return oracle.hockey_stick(pa, pb, eps), oracle.hockey_stick(pb, pa, eps)


def _label_cycle(rng: random.Random) -> list[Op]:
    ops = []
    candidates = oracle.adjacent_pairs(STAT_TYPES, STAT_MAX_ENTRY, 1)
    epsilons = _spread_epsilons(rng, len(LABEL_STRATA), 0.5, 1.25)
    for (m, samples, broken), eps in zip(LABEL_STRATA, epsilons):
        tests = 2 * STAT_PAIRS * (2**m - 1)
        res = oracle.resolution(eps, tests, samples, ALPHA)
        queries = _random_queries(rng, STAT_TYPES, m)
        pairs = [_random_neighbour_pair(rng, STAT_TYPES, STAT_MAX_ENTRY) for _ in range(STAT_PAIRS)]
        if broken:
            # the first pair is one whose oracle gap clears the margin
            strong = []
            while not strong:
                queries = _random_queries(rng, STAT_TYPES, m)
                strong = [
                    p for p in candidates
                    if max(_one_hot_divergence(queries, p, eps)) >= BROKEN_MARGIN * res
                ]
            pairs[0] = rng.choice(strong)
            fwd, rev = zip(*(_one_hot_divergence(queries, p, eps) for p in pairs))
            div = {"forward": list(fwd), "reverse": list(rev)}
        else:
            # report noisy max is eps-DP, so its divergence at eps is 0
            div = {"forward": [0.0] * len(pairs), "reverse": [0.0] * len(pairs)}
        mechanism = {"kind": "rnm", "queries": {"n": STAT_TYPES, "queries": queries}, "epsilon": eps}
        if broken:
            mechanism["noise_mask"] = [j == 0 for j in range(m)]
        delta = 0.0 if broken else PRIVATE_MARGIN * res
        spec = {
            "pairs": [[list(a), list(b)] for a, b in pairs],
            "divergence": div,
            "eps_b": eps, "delta": delta, "resolution": res,
            "expect": "violation" if broken else "no-violation-found",
        }
        ops.append(Op("audit", _statistical_config(mechanism, pairs, eps, delta, samples, rng.randrange(2**31)), spec))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[random.Random], list[Op]]
    # configs are drawn afresh for each of this many cycles; a run longer
    # than that wraps around and repeats them
    cycles: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rnm-verify", _rnm_cycle, 6),
        Workload("audit-quadrature", _quadrature_cycle, 10),
        Workload("audit-statistical-intervals", _interval_cycle, 16),
        Workload("audit-statistical-labels", _label_cycle, 32),
    )
}


def generate(workload: str, seed: int, workdir: Path) -> list[list[Op]]:
    """All cycles of a workload, with each config written under workdir."""
    spec = WORKLOADS[workload]
    cycles = []
    for c in range(spec.cycles):
        rng = random.Random(f"{workload}:{seed}:{c}")
        ops = spec.cycle(rng)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op.path = workdir / f"c{c}-{i}.json"
            op.path.write_text(json.dumps(op.config))
        cycles.append(ops)
    return cycles


def prepare(op: Op) -> None:
    """Oracle precomputation for one op: pair counts and deterministic margins."""
    op.prepared = True
    spec = op.spec
    if op.command == "rnm-verify":
        n, max_entry, eps = spec["n"], spec["max_entry"], spec["epsilon"]
        pairs = oracle.adjacent_pairs(n, max_entry, 1)
        hists = list(itertools.product(range(max_entry + 1), repeat=n))
        sections = 0
        for m in range(1, spec["m_max"] + 1):
            for queries in rnm_families(n, m).values():
                sections += 1
                for h in hists:
                    oracle.noisy_max_pmf(oracle.query_values(queries, h), eps)
        op.pairs = sections * len(pairs)
    elif "k" in spec:
        pairs = oracle.adjacent_pairs(spec["n"], spec["max_entry"], spec["k"])
        worst = max(
            oracle.laplace_profile(spec["eps_b"], abs(x - y) / spec["scale"])
            for a, b in pairs
            for x, y in zip(oracle.query_values(spec["queries"], a), oracle.query_values(spec["queries"], b))
        )
        if abs(worst - spec["delta"]) < DETERMINISTIC_MARGIN:
            raise AssertionError(f"generated budget within the margin of its boundary: {op.config}")
        if (worst > spec["delta"]) != (spec["expect"] == "violation"):
            raise AssertionError(f"generated verdict disagrees with the enumeration: {op.config}")
        op.pairs = len(pairs)
    else:
        op.pairs = len({tuple(sorted(map(tuple, p))) for p in spec["pairs"] if p[0] != p[1]})

