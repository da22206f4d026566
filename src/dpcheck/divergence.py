"""The DP divergence: exact on finite spaces, in closed form for Laplace
pairs, and a confidence-interval estimator for sampler-only access.

For probability measures mu, nu and a (possibly negative) exponent eps,

    div(eps, mu, nu) = sup_S  mu(S) - exp(eps) * nu(S)

over measurable events S.  On a finite space the supremum is attained by
the set of outcomes with mu(y) > exp(eps) * nu(y), so it collapses to the
hockey-stick sum of positive parts.  A mechanism is (eps, delta)-DP exactly
when this divergence is at most delta in both directions across every
adjacent input pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    ParameterError,
    PreconditionError,
    ValidationError,
)
# laplace_pdf and integrate_piecewise go unused here; bench/spans.py traces them by these names
from .laplace import RandomSource, laplace_pdf  # noqa: F401
from .quadrature import integrate_piecewise  # noqa: F401

NORMALIZATION_TOL = 1e-12

METHOD_EXACT = "exact-discrete"
METHOD_QUADRATURE = "quadrature"
METHOD_MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite probability distribution given by outcome labels and masses."""

    support: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        support = tuple(self.support)
        probs = tuple(float(p) for p in self.probs)
        if len(support) != len(probs):
            raise ValidationError("support and probs must have equal length")
        if len(set(support)) != len(support):
            raise ValidationError("support labels must be distinct")
        if any(p < 0.0 for p in probs):
            raise ValidationError("probabilities must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"probabilities sum to {math.fsum(probs)!r}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def from_mapping(mapping: dict) -> "DiscreteDistribution":
        items = list(mapping.items())
        return DiscreteDistribution(tuple(k for k, _ in items), tuple(v for _, v in items))

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.support)}

    def prob(self, label) -> float:
        i = self._index.get(label)
        return 0.0 if i is None else self.probs[i]

    def event_prob(self, labels) -> float:
        return math.fsum(self.prob(x) for x in set(labels))

    def sample_index_block(self, rng: RandomSource, n: int) -> np.ndarray:
        """n outcome indices drawn by inverse transform on the support order."""
        cum = np.cumsum(np.asarray(self.probs, dtype=float))
        idx = np.searchsorted(cum, rng.uniform_block(n), side="left")
        return np.minimum(idx, len(self.support) - 1)


@dataclass(frozen=True)
class DivergenceResult:
    """Divergence value with the method that produced it and its error bound.

    ``error_bound`` is 0 for exact arithmetic, a rounding bound for the
    closed-form Laplace pair, and a confidence-interval width for the Monte
    Carlo estimator.
    """

    value: float
    method: str
    error_bound: float

    def to_json(self) -> dict:
        return {"value": self.value, "method": self.method, "error_bound": self.error_bound}


def divergence_report_json(eps: float, result: DivergenceResult) -> dict:
    return {"epsilon": eps, **result.to_json()}


@dataclass(frozen=True)
class DiscreteKernel:
    """A randomized map on finite spaces: one output distribution per input label."""

    rows: tuple[tuple[object, DiscreteDistribution], ...]

    @staticmethod
    def from_mapping(mapping: dict) -> "DiscreteKernel":
        return DiscreteKernel(tuple(mapping.items()))

    @cached_property
    def _index(self) -> dict:
        return dict(self.rows)

    def __call__(self, x) -> DiscreteDistribution:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError(f"kernel has no row for input {x!r}") from None


def bind(mu: DiscreteDistribution, kernel: DiscreteKernel) -> DiscreteDistribution:
    """Pushforward mixture: (mu >> kernel)(y) = sum_x mu(x) * kernel(x)(y)."""
    acc: dict = {}
    for x, px in zip(mu.support, mu.probs):
        row = kernel(x)
        for y, py in zip(row.support, row.probs):
            acc[y] = acc.get(y, 0.0) + px * py
    return DiscreteDistribution.from_mapping(acc)


def _aligned(mu: DiscreteDistribution, nu: DiscreteDistribution):
    """Common support (union, mu's order first) with zero-filled mass vectors."""
    labels = list(mu.support) + [y for y in nu.support if y not in mu._index]
    p = np.array([mu.prob(y) for y in labels])
    q = np.array([nu.prob(y) for y in labels])
    return labels, p, q


def divergence_discrete(
    mu: DiscreteDistribution, nu: DiscreteDistribution, eps: float
) -> DivergenceResult:
    """Exact divergence as the hockey-stick sum of positive parts."""
    _, p, q = _aligned(mu, nu)
    gaps = p - math.exp(eps) * q
    value = float(np.maximum(gaps, 0.0).sum())
    return DivergenceResult(value, METHOD_EXACT, 0.0)


def hockey_stick_witness(
    mu: DiscreteDistribution, nu: DiscreteDistribution, eps: float
) -> tuple[float, tuple]:
    """Divergence value together with the maximizing event."""
    labels, p, q = _aligned(mu, nu)
    gaps = p - math.exp(eps) * q
    keep = gaps > 0.0
    value = float(gaps[keep].sum()) if keep.any() else 0.0
    witness = tuple(label for label, k in zip(labels, keep) if k)
    return value, witness


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
    """Oracle form: explicit maximum over all 2^|support| events.

    Must agree with divergence_discrete; kept as an independent route for
    cross-checking the hockey-stick reduction.
    """
    labels, p, q = _aligned(mu, nu)
    if len(labels) > 20:
        raise CapacityError(f"brute force limited to 20 outcomes, got {len(labels)}")
    sums = _subset_gap_vector(p, q, eps)
    return DivergenceResult(float(max(sums.max(), 0.0)), METHOD_EXACT, 0.0)


def divergence_laplace_pair(
    b: float, x: float, y: float, eps: float, tol: float = 1e-9
) -> DivergenceResult:
    """Divergence between Laplace(b, x) and Laplace(b, y) in closed form.

    With d = |x - y| / b this is the privacy profile of the Laplace
    mechanism (Balle, Barthe and Gaboardi, NeurIPS 2018): 0 for eps >= d,
    1 - e^eps for eps <= -d, and 1 - e^((eps - d) / 2) in between, each
    evaluated through expm1.  ``error_bound`` bounds the rounding error:
    d carries two roundings and the exponent one more, so the value is off
    by at most (d + 4) ulp(1).  ``tol`` is validated but not needed.
    """
    if b <= 0:
        raise ParameterError("divergence_laplace_pair requires b > 0")
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    d = abs(x - y) / b
    if eps >= d:
        value = 0.0
    elif eps <= -d:
        value = -math.expm1(eps)
    else:
        value = -math.expm1((eps - d) / 2.0)
    return DivergenceResult(value, METHOD_QUADRATURE, (d + 4.0) * math.ulp(1.0))


# ---------------------------------------------------------------------------
# Monte Carlo estimation over a restricted event family.
#
# A restricted family can only under-estimate the true supremum, so these
# estimates never certify privacy; they can only exhibit violations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """Named measurable predicate with a vectorized indicator."""

    label: str
    indicator: Callable[[np.ndarray], np.ndarray]


def interval_events(values: np.ndarray, grid: int = 16) -> list[Event]:
    """Half-open intervals with endpoints on the empirical quantile grid."""
    values = np.asarray(values, dtype=float)
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, grid)))
    bounds = [-np.inf, *edges.tolist(), np.inf]
    events = []
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            lo, hi = bounds[i], bounds[j]
            events.append(
                Event(
                    f"({lo:.6g}, {hi:.6g}]",
                    lambda v, lo=lo, hi=hi: (np.asarray(v, dtype=float) > lo)
                    & (np.asarray(v, dtype=float) <= hi),
                )
            )
    return events


def label_subset_events(labels: Sequence, cap: int = 12) -> list[Event]:
    """Every nonempty subset of a small label set; singletons past the cap."""
    labels = list(dict.fromkeys(labels))
    if len(labels) <= cap:
        subsets = []
        for mask in range(1, 2 ** len(labels)):
            subset = tuple(labels[i] for i in range(len(labels)) if mask >> i & 1)
            subsets.append(subset)
    else:
        subsets = [(x,) for x in labels]
    return [
        Event(repr(set(subset)), lambda v, s=frozenset(subset): np.array([x in s for x in v]))
        for subset in subsets
    ]


def coordinate_interval_events(matrix: np.ndarray, grid: int = 12) -> list[Event]:
    """Per-coordinate interval cylinders for vector-valued samples."""
    matrix = np.asarray(matrix, dtype=float)
    events = []
    for j in range(matrix.shape[1]):
        for ev in interval_events(matrix[:, j], grid):
            events.append(
                Event(
                    f"x[{j}] in {ev.label}",
                    lambda v, j=j, ind=ev.indicator: ind(np.asarray(v, dtype=float)[:, j]),
                )
            )
    return events


def clopper_pearson(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Two-sided exact binomial confidence interval at level 1 - alpha."""
    if not 0 <= k <= n:
        raise DomainError(f"count {k} outside 0..{n}")
    lo = 0.0 if k == 0 else float(stats.beta.ppf(alpha / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(stats.beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    return lo, hi


@dataclass(frozen=True)
class EventEstimate:
    event: Event
    count_mu: int
    count_nu: int
    point: float
    lower: float
    upper: float


def estimate_events(
    samples_mu,
    samples_nu,
    events: Sequence[Event],
    eps: float,
    alpha_each: float,
) -> list[EventEstimate]:
    """Confidence bounds on mu(S) - exp(eps) nu(S) per event at level alpha_each."""
    n_mu, n_nu = len(samples_mu), len(samples_nu)
    scale = math.exp(eps)
    out = []
    for ev in events:
        k_mu = int(np.count_nonzero(ev.indicator(samples_mu)))
        k_nu = int(np.count_nonzero(ev.indicator(samples_nu)))
        lo_mu, hi_mu = clopper_pearson(k_mu, n_mu, alpha_each)
        lo_nu, hi_nu = clopper_pearson(k_nu, n_nu, alpha_each)
        out.append(
            EventEstimate(
                event=ev,
                count_mu=k_mu,
                count_nu=k_nu,
                point=k_mu / n_mu - scale * k_nu / n_nu,
                lower=lo_mu - scale * hi_nu,
                upper=hi_mu - scale * lo_nu,
            )
        )
    return out


def divergence_monte_carlo(
    sampler_mu: Callable[[int], np.ndarray],
    sampler_nu: Callable[[int], np.ndarray],
    event_family: Sequence[Event],
    eps: float,
    samples: int = 100_000,
    alpha: float = 0.01,
) -> DivergenceResult:
    """Statistical lower estimate of the divergence over a restricted family.

    Each event gets a two-sided Clopper-Pearson interval at the Bonferroni
    level alpha/|family|.  The value is the best certified lower bound
    (clamped at 0; the true divergence is never negative) and
    value + error_bound is a simultaneous upper confidence bound for the
    family-restricted supremum.  This is an estimator, never a privacy proof.
    """
    if samples < 1000:
        raise ParameterError("Monte Carlo estimation needs samples >= 1000")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    if not event_family:
        raise DomainError("event family must be nonempty")
    xs = sampler_mu(samples)
    ys = sampler_nu(samples)
    table = estimate_events(xs, ys, event_family, eps, alpha / len(event_family))
    best_lower = max(e.lower for e in table)
    best_upper = max(e.upper for e in table)
    value = max(0.0, best_lower)
    # value + error_bound dominates the simultaneous upper confidence bound
    # for the family-restricted supremum
    return DivergenceResult(value, METHOD_MONTE_CARLO, max(0.0, best_upper - best_lower))


# ---------------------------------------------------------------------------
# Brute-force checks of the structural laws used by the composition calculus.
# ---------------------------------------------------------------------------


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
