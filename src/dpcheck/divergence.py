"""The DP divergence: exact on finite spaces, in closed form for Laplace
pairs, and a confidence-interval estimator for sampler-only access.

For probability measures mu, nu and a (possibly negative) exponent eps,

    div(eps, mu, nu) = sup_S  mu(S) - exp(eps) * nu(S)

over measurable events S.  On a finite space the supremum is attained by
the set of outcomes with mu(y) > exp(eps) * nu(y), so it collapses to the
hockey-stick sum of positive parts.  A mechanism is (eps, delta)-DP exactly
when this divergence is at most delta in both directions across every
adjacent input pair.  Brute-force checks of the divergence's structural
laws (composability, transitivity, the explicit maximum over all events)
are test oracles and live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import DomainError, ParameterError, ValidationError
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


class IntervalEvents:
    """Every interval (lo, hi] between two of the sorted bounds, as data, in
    the order of lo, then hi.  ``counts`` sorts the values once and reads
    #{v <= b} at every bound b with one ``searchsorted``; the count of
    (lo, hi] is #{v <= hi} - #{v <= lo}."""

    def __init__(self, bounds: Sequence[float]):
        self.bounds = tuple(bounds)
        self._lo, self._hi = np.triu_indices(len(self.bounds), 1)

    def __len__(self) -> int:
        return len(self._lo)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        b = self.bounds
        return tuple(f"({b[i]:.6g}, {b[j]:.6g}]" for i, j in zip(self._lo, self._hi))

    def counts(self, values) -> np.ndarray:
        ordered = np.sort(np.asarray(values, dtype=float))
        at_most = np.searchsorted(ordered, self.bounds, side="right")
        return at_most[self._hi] - at_most[self._lo]


class LabelEvents:
    """Label subsets of a finite support, as data: row r of the 0/1 matrix
    ``members`` marks the labels of event r.  ``counts`` codes a block's
    labels to support indices once (a label outside the support falls in no
    event), counts them with ``bincount`` and sums every event's count with
    one matrix product."""

    def __init__(self, support: Sequence, members: np.ndarray):
        self.support, self.members = tuple(support), members

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        rows = self.members.tolist()
        return tuple(repr(set(tuple(x for x, bit in zip(self.support, r) if bit))) for r in rows)

    def counts(self, values) -> np.ndarray:
        m = len(self.support)
        code = {x: i for i, x in enumerate(self.support)}
        values = values.tolist() if isinstance(values, np.ndarray) else values
        codes = np.fromiter((code.get(x, m) for x in values), dtype=np.intp, count=len(values))
        return self.members @ np.bincount(codes, minlength=m + 1)[:m]


class EventUnion:
    """The events of several families, each read off its own columns of a
    2-D block, with its labels prefixed; events run part by part."""

    def __init__(self, parts: Sequence[tuple[str, int | slice, object]]):
        self.parts = tuple(parts)

    def __len__(self) -> int:
        return sum(len(family) for _, _, family in self.parts)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(prefix + label for prefix, _, family in self.parts for label in family.labels)

    def counts(self, block) -> np.ndarray:
        block = np.asarray(block)
        parts = [family.counts(block[:, cols]) for _, cols, family in self.parts]
        return np.concatenate([np.zeros(0, dtype=np.intp), *parts])


EventFamily = IntervalEvents | LabelEvents | EventUnion


def interval_events(values: np.ndarray, grid: int = 16) -> IntervalEvents:
    """Half-open intervals with endpoints on the empirical quantile grid."""
    values = np.asarray(values, dtype=float)
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, grid)))
    return IntervalEvents([-math.inf, *edges.tolist(), math.inf])


def label_subset_events(labels: Sequence, cap: int = 12) -> LabelEvents:
    """Every nonempty subset of a small label set; singletons past the cap."""
    labels = tuple(dict.fromkeys(labels))
    m = len(labels)
    if m > cap:
        return LabelEvents(labels, np.eye(m, dtype=np.int8))
    # row r is the bit mask r + 1 over the labels
    return LabelEvents(labels, (np.arange(1, 2**m)[:, None] >> np.arange(m)) & 1)


def coordinate_interval_events(matrix: np.ndarray, grid: int = 12) -> EventUnion:
    """Per-coordinate interval cylinders for vector-valued samples."""
    matrix = np.asarray(matrix, dtype=float)
    return EventUnion(
        [(f"x[{j}] in ", j, interval_events(matrix[:, j], grid)) for j in range(matrix.shape[1])]
    )


def clopper_pearson(k, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided exact binomial confidence intervals at level 1 - alpha, one
    per count in k: the alpha/2 and 1 - alpha/2 quantiles of Beta(k, n-k+1)
    and Beta(k+1, n-k), with 0 at k = 0 and 1 at k = n."""
    k = np.asarray(k)
    if np.any((k < 0) | (k > n)):
        raise DomainError(f"counts must lie in 0..{n}")
    lo = np.where(k == 0, 0.0, special.betaincinv(k, n - k + 1, alpha / 2.0))
    hi = np.where(k == n, 1.0, special.betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class EventEstimate:
    """Per-event point estimates and confidence bounds on mu(S) - exp(eps) nu(S)."""

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def estimate_events(
    samples_mu,
    samples_nu,
    events: EventFamily,
    eps: float,
    alpha_each: float,
) -> tuple[EventEstimate, EventEstimate]:
    """Per-event bounds at level alpha_each for (mu, nu) and for (nu, mu).

    Each block is counted once and gets one Clopper-Pearson call; both
    directions are built from those counts and bounds.
    """
    scale = math.exp(eps)
    n_mu, n_nu = len(samples_mu), len(samples_nu)
    k_mu, k_nu = events.counts(samples_mu), events.counts(samples_nu)
    lo_mu, hi_mu = clopper_pearson(k_mu, n_mu, alpha_each)
    lo_nu, hi_nu = clopper_pearson(k_nu, n_nu, alpha_each)
    forward = (k_mu / n_mu - scale * k_nu / n_nu, lo_mu - scale * hi_nu, hi_mu - scale * lo_nu)
    reverse = (k_nu / n_nu - scale * k_mu / n_mu, lo_nu - scale * hi_mu, hi_nu - scale * lo_mu)
    return EventEstimate(*forward), EventEstimate(*reverse)


def divergence_monte_carlo(
    sampler_mu: Callable[[int], np.ndarray],
    sampler_nu: Callable[[int], np.ndarray],
    event_family: EventFamily,
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
    table, _ = estimate_events(xs, ys, event_family, eps, alpha / len(event_family))
    best_lower = float(table.lower.max())
    best_upper = float(table.upper.max())
    value = max(0.0, best_lower)
    # value + error_bound dominates the simultaneous upper confidence bound
    # for the family-restricted supremum
    return DivergenceResult(value, METHOD_MONTE_CARLO, max(0.0, best_upper - best_lower))
