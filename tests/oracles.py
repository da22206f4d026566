"""Test-side oracles: second implementations and brute-force lemma checks
that only the tests use.

The library computes each of these quantities once, in vectorized, closed
or enumerated form; the forms here recompute them the slow, obvious way
(scalar inverse transforms, explicit maxima over all events, exhaustive
searches, stepwise chains, the recursive argmax) so that the tests compare
``src/`` against an independent route.  Two exceptions are raised only by
these checks: ``InfeasibleError`` and ``PreconditionError``.

Test modules import them as ``from oracles import ...`` (pytest puts
``tests/`` on the import path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from dpcheck.datasets import (
    DEFAULT_ENUMERATION_BUDGET,
    CountingQuerySet,
    Dataset,
    _as_counts,
    counting_query,
    enumerate_datasets,
    pairs_within_distance,
)
from dpcheck.divergence import (
    METHOD_EXACT,
    DiscreteDistribution,
    DiscreteKernel,
    DivergenceResult,
    _aligned,
    divergence_discrete,
)
from dpcheck.errors import (
    CapacityError,
    DegenerateScaleError,
    DimensionError,
    DomainError,
    DpcheckError,
    ParameterError,
    UnsupportedError,
    ValidationError,
)
from dpcheck.laplace import LaplaceDistribution, laplace_cdf
from dpcheck.mechanisms import DpWitness, Mechanism, PrivacyBudget, check_dp_exact


class InfeasibleError(DpcheckError, ValueError):
    """No witness exists under the stated precondition."""


class PreconditionError(DpcheckError, RuntimeError):
    """A checked precondition does not hold; the check is skipped, not failed."""


# ---------------------------------------------------------------------------
# Laplace
# ---------------------------------------------------------------------------


def laplace_quantile(d: LaplaceDistribution, p: float) -> float:
    """Inverse CDF on (0, 1): the scalar form of the inverse transform that
    ``laplace_sample_block`` applies to a block of uniforms."""
    if d.is_point_mass:
        raise DegenerateScaleError("quantile requires b > 0")
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {p}")
    if p == 0.5:
        return d.z
    if p < 0.5:
        return d.z + d.b * math.log(2.0 * p)
    return d.z - d.b * math.log(2.0 * (1.0 - p))


def laplace_interval_prob(d: LaplaceDistribution, lo: float, hi: float) -> float:
    """Probability of the interval (lo, hi], i.e. cdf(hi) - cdf(lo).

    One-sided intervals are evaluated in exponent space so that deep-tail
    probabilities keep full relative accuracy instead of cancelling.
    """
    if lo > hi:
        raise DomainError(f"interval bounds out of order: {lo} > {hi}")
    if d.is_point_mass:
        return laplace_cdf(d, hi) - laplace_cdf(d, lo)
    if lo >= d.z:
        # exp(-(lo-z)/b)/2 - exp(-(hi-z)/b)/2, factored to avoid cancellation
        return -math.exp(-(lo - d.z) / d.b) * math.expm1(-(hi - lo) / d.b) / 2.0
    if hi <= d.z:
        return -math.exp((hi - d.z) / d.b) * math.expm1(-(hi - lo) / d.b) / 2.0
    return laplace_cdf(d, hi) - laplace_cdf(d, lo)


def shift_law_check(
    b: float,
    z: float,
    tolerance: float,
    grid_points: int = 1000,
    half_width_scales: float = 20.0,
) -> bool:
    """Check that Laplace(b, z) equals z plus Laplace(b, 0) noise.

    Compares F_{b,z}(t) against F_{b,0}(t - z) on a grid around z and
    returns True iff the largest absolute difference is within tolerance.
    """
    if b <= 0:
        raise DegenerateScaleError("shift law check requires b > 0")
    shifted = LaplaceDistribution(b, z)
    centered = LaplaceDistribution(b, 0.0)
    lo, hi = z - half_width_scales * b, z + half_width_scales * b
    worst = 0.0
    for i in range(grid_points):
        t = lo + (hi - lo) * i / (grid_points - 1)
        worst = max(worst, abs(laplace_cdf(shifted, t) - laplace_cdf(centered, t - z)))
    return worst <= tolerance


# ---------------------------------------------------------------------------
# Adjacency and sensitivity
# ---------------------------------------------------------------------------


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


def _neighbors_within(counts: tuple[int, ...], max_entry: int):
    # single-coordinate +-1 moves staying inside the entry bound
    for i, c in enumerate(counts):
        if c + 1 <= max_entry:
            yield counts[:i] + (c + 1,) + counts[i + 1 :]
        if c - 1 >= 0:
            yield counts[:i] + (c - 1,) + counts[i + 1 :]


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


# ---------------------------------------------------------------------------
# The divergence and its structural laws
# ---------------------------------------------------------------------------


def bind(mu: DiscreteDistribution, kernel: DiscreteKernel) -> DiscreteDistribution:
    """Pushforward mixture: (mu >> kernel)(y) = sum_x mu(x) * kernel(x)(y)."""
    acc: dict = {}
    for x, px in zip(mu.support, mu.probs):
        row = kernel(x)
        for y, py in zip(row.support, row.probs):
            acc[y] = acc.get(y, 0.0) + px * py
    return DiscreteDistribution.from_mapping(acc)


def event_prob(dist: DiscreteDistribution, labels) -> float:
    """dist(S) for the event S holding the given labels (repeats count once)."""
    return math.fsum(dist.prob(x) for x in set(labels))


def _subset_gap_vector(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """mu(S) - exp(eps) nu(S) for every subset S, indexed by bitmask."""
    diffs = p - math.exp(eps) * q
    sums = np.zeros(1)
    for d in diffs:
        sums = np.concatenate([sums, sums + d])
    return sums


def divergence_brute_force(
    mu: DiscreteDistribution, nu: DiscreteDistribution, eps: float
) -> DivergenceResult:
    """Explicit maximum over all 2^|support| events; must agree with the
    hockey-stick sum of ``divergence_discrete``."""
    labels, p, q = _aligned(mu, nu)
    if len(labels) > 20:
        raise CapacityError(f"brute force limited to 20 outcomes, got {len(labels)}")
    sums = _subset_gap_vector(p, q, eps)
    return DivergenceResult(float(max(sums.max(), 0.0)), METHOD_EXACT, 0.0)


@dataclass(frozen=True)
class ComposabilityReport:
    holds: bool
    preconditions_hold: bool
    composed_divergence: float
    bound: float
    detail: str = ""


def check_composability_brute_force(
    mu: DiscreteDistribution,
    nu: DiscreteDistribution,
    f: DiscreteKernel,
    g: DiscreteKernel,
    eps1: float,
    eps2: float,
    delta1: float,
    delta2: float,
    slack: float = 1e-10,
) -> ComposabilityReport:
    """Check div(eps1+eps2, mu >> f, nu >> g) <= delta1 + delta2 by exact arithmetic.

    First verifies the hypotheses div(eps1, mu, nu) <= delta1 and
    div(eps2, f(x), g(x)) <= delta2 for every x; a failed hypothesis yields
    a precondition report, not a counterexample.
    """
    for x in mu.support:
        if x not in f._index or x not in g._index:
            raise DimensionError(f"kernels must cover the support; missing row {x!r}")
    pre_slack = 1e-12
    d1 = divergence_discrete(mu, nu, eps1).value
    if d1 > delta1 + pre_slack:
        return ComposabilityReport(
            False, False, float("nan"), delta1 + delta2,
            f"hypothesis failed: div(eps1, mu, nu) = {d1} > {delta1}",
        )
    for x in mu.support:
        d2 = divergence_discrete(f(x), g(x), eps2).value
        if d2 > delta2 + pre_slack:
            return ComposabilityReport(
                False, False, float("nan"), delta1 + delta2,
                f"hypothesis failed at input {x!r}: div(eps2, f(x), g(x)) = {d2} > {delta2}",
            )
    composed = divergence_discrete(bind(mu, f), bind(nu, g), eps1 + eps2).value
    bound = delta1 + delta2
    holds = composed <= bound + slack
    detail = "" if holds else f"composed divergence {composed} exceeds {bound}"
    return ComposabilityReport(holds, True, composed, bound, detail)


def check_transitivity(
    mu1: DiscreteDistribution,
    mu2: DiscreteDistribution,
    mu3: DiscreteDistribution,
    eps1: float,
    eps2: float,
    slack: float = 1e-12,
) -> bool:
    """Check chaining of zero-divergence steps: div(eps1+eps2, mu1, mu3) <= 0.

    Requires div(eps1, mu1, mu2) <= 0 and div(eps2, mu2, mu3) <= 0; raises
    PreconditionError (skip, not failure) when the hypotheses do not hold.
    """
    pre_slack = 1e-14
    d12 = divergence_discrete(mu1, mu2, eps1).value
    d23 = divergence_discrete(mu2, mu3, eps2).value
    if d12 > pre_slack or d23 > pre_slack:
        raise PreconditionError(
            f"transitivity hypotheses fail: div12 = {d12}, div23 = {d23}"
        )
    return divergence_discrete(mu1, mu3, eps1 + eps2).value <= slack


# ---------------------------------------------------------------------------
# Statistical event families, one indicator mask per event
# ---------------------------------------------------------------------------


def interval_masks(values, grid: int = 16) -> list[tuple[str, Callable]]:
    """(label, indicator) per interval (lo, hi] between two quantile-grid bounds."""
    values = np.asarray(values, dtype=float)
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, grid)))
    bounds = [-np.inf, *edges.tolist(), np.inf]

    def indicator(lo, hi):
        return lambda v: (np.asarray(v, dtype=float) > lo) & (np.asarray(v, dtype=float) <= hi)

    return [
        (f"({lo:.6g}, {hi:.6g}]", indicator(lo, hi))
        for i, lo in enumerate(bounds)
        for hi in bounds[i + 1 :]
    ]


def label_subset_masks(labels, cap: int = 12) -> list[tuple[str, Callable]]:
    """(label, indicator) per nonempty label subset; singletons past the cap."""
    labels = list(dict.fromkeys(labels))
    if len(labels) <= cap:
        subsets = [
            tuple(x for i, x in enumerate(labels) if mask >> i & 1)
            for mask in range(1, 2 ** len(labels))
        ]
    else:
        subsets = [(x,) for x in labels]

    def indicator(members):
        return lambda v: np.array([x in members for x in v], dtype=bool)

    return [(repr(set(subset)), indicator(frozenset(subset))) for subset in subsets]


def _columns(desc: tuple) -> int:
    if desc[0] == "product":
        return sum(_columns(part) for part in desc[1])
    return desc[1] if desc[0] == "real-vector" else 1


def default_event_masks(desc: tuple, xs, ys) -> list[tuple[str, Callable]]:
    """The default statistical event family for outputs of kind ``desc``, as
    (label, indicator) pairs: label subsets, grid-12 intervals per
    coordinate of the pooled draws, and for a product each part's events
    on that part's columns."""
    if desc[0] == "finite":
        return label_subset_masks(desc[1])
    if desc[0] == "real-vector":
        pooled = np.concatenate([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])

        def column(j, ind):
            return lambda v: ind(np.asarray(v, dtype=float)[:, j])

        return [
            (f"x[{j}] in {label}", column(j, ind))
            for j in range(pooled.shape[1])
            for label, ind in interval_masks(pooled[:, j], 12)
        ]
    events = []
    start = 0
    for i, part in enumerate(desc[1]):
        cols = start if part[0] == "finite" else slice(start, start + _columns(part))
        start += _columns(part)

        def on_part(ind, cols=cols):
            return lambda v: ind(np.asarray(v)[:, cols])

        picked = [np.asarray(block)[:, cols] for block in (xs, ys)]
        events += [
            (f"part {i}: {label}", on_part(ind)) for label, ind in default_event_masks(part, *picked)
        ]
    return events


def mask_counts(events: Sequence[tuple[str, Callable]], block) -> tuple[list[str], list[int]]:
    """Labels and per-event counts of a block, one mask per event."""
    return [label for label, _ in events], [int(np.count_nonzero(ind(block))) for _, ind in events]


# ---------------------------------------------------------------------------
# Mechanisms
# ---------------------------------------------------------------------------


def randomized_response_epsilon(flip_prob: float) -> float:
    """The exact pure-DP level of randomized response with this flip probability."""
    if not 0.0 < flip_prob < 0.5:
        raise ParameterError("flip probability must lie in (0, 0.5)")
    return math.log((1.0 - flip_prob) / flip_prob)


def check_group_privacy(
    mech: Mechanism,
    eps: float,
    k: int,
    max_entry: int,
    slack: float = 1e-10,
    enumeration_budget: int = 200_000,
) -> tuple[bool, DpWitness | None]:
    """Check the radius-k guarantee (k * eps, 0) over enumerated histogram pairs.

    First requires the mechanism to pass the exact (eps, 0) check on
    1-adjacency (PreconditionError otherwise), then checks every pair at
    distance <= k against exp(k * eps) in both directions and confirms a
    stepwise adjacency chain exists for each such pair.
    """
    if mech.pmf is None:
        raise UnsupportedError("group-privacy check needs an exact pmf")
    if not isinstance(mech.input_desc, int):
        raise UnsupportedError("group-privacy check needs a histogram input space")
    n = mech.input_desc
    base_pairs = pairs_within_distance(n, max_entry, 1, budget=enumeration_budget)
    report = check_dp_exact(mech, base_pairs, PrivacyBudget(eps, 0.0))
    if report.witness is not None:
        raise PreconditionError(f"mechanism is not (eps, 0)-DP on 1-adjacency: {report.witness}")
    group = PrivacyBudget(k * eps, 0.0)
    for a, b in pairs_within_distance(n, max_entry, k, budget=enumeration_budget):
        chain = adjacency_chain(a, b, k)
        if not chain_is_valid(chain, a, b, k):
            return False, DpWitness((a, b), "forward", ("chain", len(chain)), math.inf)
        report = check_dp_exact(mech, [(a, b)], group, slack=slack)
        if report.witness is not None:
            return False, report.witness
    return True, None


# ---------------------------------------------------------------------------
# The recursive argmax and report noisy max
#
# The maximum of the empty list is -inf with index 0, and a strictly greater
# head takes index 0 while an equal head defers to the tail, so ties
# resolve to the LAST maximal position, as in the library's sampler.
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")


def max_argmax(xs: Sequence[float]) -> tuple[float, int]:
    """Value and index of the maximum; ([] -> (-inf, 0), ties -> last index)."""
    result = (NEG_INF, 0)
    for x in reversed(list(xs)):
        m, i = result
        result = (x, 0) if x > m else (m, i + 1)
    return result


def argmax_list(xs: Sequence[float]) -> int:
    return max_argmax(xs)[1]


def list_insert(k: float, ks: Sequence[float], i: int) -> list[float]:
    """Insert k at position i (0 <= i <= len)."""
    ks = list(ks)
    if not 0 <= i <= len(ks):
        raise IndexError(f"insert position {i} out of range for length {len(ks)}")
    return ks[:i] + [k] + ks[i:]


def argmax_insert(k: float, ks: Sequence[float], i: int) -> int:
    """Argmax of the list obtained by inserting k at position i.

    Equals i exactly when k reaches the running maximum and differs from
    the maximum of the suffix ks[i:].
    """
    return argmax_list(list_insert(k, ks, i))


@dataclass(frozen=True)
class NoiseAssignment:
    """Concrete noise values, optionally with a hole left for one coordinate."""

    values: tuple[float, ...]
    hole: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.hole is not None and not 0 <= self.hole < len(self.values) + 1:
            raise IndexError(f"hole {self.hole} out of range for full length {len(self.values) + 1}")

    @property
    def full_length(self) -> int:
        return len(self.values) + (1 if self.hole is not None else 0)

    def filled(self, r: float) -> list[float]:
        if self.hole is None:
            raise DomainError("no hole to fill")
        return list_insert(r, self.values, self.hole)


def rnm_p_i(
    c_i: float,
    other_scores: Sequence[float],
    other_noises: Sequence[float] | NoiseAssignment,
    eps: float,
) -> float:
    """Probability over the remaining noise draw that position i wins.

    With the other noisy scores fixed at c_j + r_j and their maximum M,
    this is P[c_i + r >= M] = 1 - F(M - c_i) for r ~ Lap(1/eps), which
    matches the argmax-insert event up to ties of measure zero.
    """
    if eps <= 0:
        raise ParameterError("rnm_p_i requires eps > 0")
    noises = other_noises.values if isinstance(other_noises, NoiseAssignment) else other_noises
    if len(other_scores) != len(noises):
        raise DimensionError("scores and noises must have equal length")
    m_other, _ = max_argmax([c + r for c, r in zip(other_scores, noises)])
    if m_other == NEG_INF:
        return 1.0
    return 1.0 - laplace_cdf(LaplaceDistribution(1.0 / eps, 0.0), m_other - c_i)


def verify_max_adjacency(
    xs: Sequence[float], ys: Sequence[float], rs: Sequence[float]
) -> bool:
    """Check that noisy maxima move by at most one under dominated shifts.

    Requires componentwise ys <= xs <= ys + 1 (PreconditionError otherwise)
    and asserts max(xs + rs) lies in [max(ys + rs), max(ys + rs) + 1].
    """
    if not len(xs) == len(ys) == len(rs):
        raise DimensionError("xs, ys, rs must have equal length")
    if not all(y <= x <= y + 1 for x, y in zip(xs, ys)):
        raise PreconditionError("componentwise ys <= xs <= ys + 1 does not hold")
    d, _ = max_argmax([x + r for x, r in zip(xs, rs)])
    d_adj, _ = max_argmax([y + r for y, r in zip(ys, rs)])
    return d >= d_adj and d <= d_adj + 1
