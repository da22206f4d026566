"""Randomized mechanisms, DP checking, composition combinators, and budgets.

A mechanism is just a kernel from inputs to output distributions; privacy
is a judgment about a (mechanism, adjacency, budget) triple, checked here
either exactly (finite outputs), by quadrature (Laplace noise), or
statistically (sampler only).  Budgets are tracked alongside mechanisms by
the caller, never inside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .datasets import Dataset, adjacency_chain, chain_is_valid, pairs_within_distance
from .divergence import (
    DiscreteDistribution,
    DiscreteKernel,
    Event,
    bind,
    coordinate_interval_events,
    divergence_laplace_pair,
    estimate_events,
    hockey_stick_witness,
    interval_events,
    label_subset_events,
)
from .errors import (
    DimensionError,
    DomainError,
    ParameterError,
    PreconditionError,
    UnsupportedError,
    ValidationError,
)
from .laplace import LaplaceDistribution, RandomSource, laplace_sample_block

VERDICT_NO_VIOLATION = "no-violation-found"
VERDICT_VIOLATION = "violation"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PrivacyBudget:
    """An (eps, delta) privacy guarantee level."""

    eps: float
    delta: float = 0.0

    def __post_init__(self):
        if self.eps < 0 or self.delta < 0:
            raise ValidationError(f"budget components must be >= 0, got {self}")


def add_budgets(b1: PrivacyBudget, b2: PrivacyBudget) -> PrivacyBudget:
    """Sequential and adaptive composition both sum componentwise."""
    return PrivacyBudget(b1.eps + b2.eps, b1.delta + b2.delta)


def group_budget(b: PrivacyBudget, k: int) -> PrivacyBudget:
    """Budget at adjacency radius k; only supported for pure (eps, 0) budgets."""
    if k < 0:
        raise ParameterError("group radius must be >= 0")
    if b.delta != 0.0:
        raise UnsupportedError("group privacy is only available when delta = 0")
    return PrivacyBudget(k * b.eps, 0.0)


def weaken_budget(b: PrivacyBudget, target: PrivacyBudget) -> PrivacyBudget:
    """Relax a guarantee to a dominating one; anything else is invalid."""
    if b.eps <= target.eps and b.delta <= target.delta:
        return target
    raise ParameterError(f"cannot weaken {b} to non-dominating {target}")


@dataclass(frozen=True)
class SensitivitySpec:
    """L1 sensitivity of a query tuple and where the value came from."""

    value: float
    provenance: str  # "declared" | "exhaustive" | "analytic"

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError("sensitivity must be >= 0")
        if self.provenance not in ("declared", "exhaustive", "analytic"):
            raise ValidationError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class Mechanism:
    """Randomized algorithm with optional exact accessors.

    Fields:
      input_desc:  histogram length (int) or a tuple of abstract input labels.
      output_desc: ("finite", labels) | ("real-vector", m) | ("real",) | ("opaque",).
      sample:      (input, RandomSource) -> output, one draw.
      pmf:         input -> DiscreteDistribution, when outputs are finite and exact.
      densities:   input -> per-coordinate LaplaceDistribution tuple, for
                   additive-noise mechanisms with real outputs.
      sample_block: optional vectorized sampler (input, rng, n) -> ndarray,
                   one row per draw.  Built-in mechanisms implement their law
                   only here and derive ``sample`` with ``single_draw``.
    """

    input_desc: Any
    output_desc: tuple
    sample: Callable[[Any, RandomSource], Any]
    pmf: Optional[Callable[[Any], DiscreteDistribution]] = None
    densities: Optional[Callable[[Any], tuple[LaplaceDistribution, ...]]] = None
    sample_block: Optional[Callable[[Any, RandomSource, int], np.ndarray]] = None


def single_draw(sample_block: Callable[[Any, RandomSource, int], np.ndarray]):
    """The one-draw sampler of a block sampler: row 0 of a one-row block."""

    def sample(x, rng: RandomSource):
        return sample_block(x, rng, 1)[0].tolist()

    return sample


def _draw(mech: Mechanism, x, rng: RandomSource, n: int):
    """n draws of mech at x: its block sampler if it has one, else n single draws."""
    if mech.sample_block is not None:
        return mech.sample_block(x, rng, n)
    return [mech.sample(x, rng) for _ in range(n)]


def laplace_mechanism(
    f: Callable[[Any], Sequence[float]],
    m: int,
    sens: SensitivitySpec,
    eps: float,
    input_desc: Any = None,
) -> Mechanism:
    """Additive Laplace noise: sample f(D) + Lap(sens/eps)^m componentwise.

    The exact accessor reports the output law as a product of shifted
    Laplace densities, one per coordinate.
    """
    if eps <= 0:
        raise ParameterError("laplace mechanism requires eps > 0")
    if not (0 < sens.value < math.inf):
        raise ParameterError(f"sensitivity must be finite and positive, got {sens.value}")
    b = sens.value / eps

    def sample_block(x, rng: RandomSource, n: int) -> np.ndarray:
        locs = list(f(x))
        if not locs:
            return np.zeros((n, 0))
        cols = [laplace_sample_block(LaplaceDistribution(b, z), rng, n) for z in locs]
        return np.column_stack(cols)

    def densities(x) -> tuple[LaplaceDistribution, ...]:
        return tuple(LaplaceDistribution(b, float(z)) for z in f(x))

    return Mechanism(
        input_desc=input_desc,
        output_desc=("real-vector", m),
        sample=single_draw(sample_block),
        densities=densities,
        sample_block=sample_block,
    )


def randomized_response(flip_prob: float) -> Mechanism:
    """Report the input bit, flipped with the given probability."""
    if not 0.0 <= flip_prob < 0.5:
        raise ParameterError("flip probability must lie in [0, 0.5)")

    def pmf(x) -> DiscreteDistribution:
        if x not in (0, 1):
            raise DomainError("randomized response expects a bit input")
        return DiscreteDistribution.from_mapping({x: 1.0 - flip_prob, 1 - x: flip_prob})

    def sample_block(x, rng: RandomSource, n: int) -> np.ndarray:
        dist = pmf(x)
        idx = dist.sample_index_block(rng, n)
        return np.asarray(dist.support)[idx]

    return Mechanism(
        input_desc=(0, 1),
        output_desc=("finite", (0, 1)),
        sample=single_draw(sample_block),
        pmf=pmf,
        sample_block=sample_block,
    )


def randomized_response_epsilon(flip_prob: float) -> float:
    """The exact pure-DP level of randomized response with this flip probability."""
    if not 0.0 < flip_prob < 0.5:
        raise ParameterError("flip probability must lie in (0, 0.5)")
    return math.log((1.0 - flip_prob) / flip_prob)


# ---------------------------------------------------------------------------
# DP checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpWitness:
    """A concrete budget violation: which pair, direction, and event."""

    pair: tuple
    direction: str  # "forward" | "reverse"
    event: Any
    gap: float

    def to_json(self) -> dict:
        return {
            "pair": jsonable(self.pair),
            "direction": self.direction,
            "event": jsonable(self.event),
            "gap": self.gap,
        }


def jsonable(x):
    """x as plain JSON values: datasets, sequences, arrays and numpy scalars
    are converted, anything else unknown becomes its repr."""
    if isinstance(x, Dataset):
        return x.to_json()
    if isinstance(x, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, (int, float, str, bool)) or x is None:
        return x
    return repr(x)


def check_dp_exact(
    mech: Mechanism,
    adj_pairs: Sequence[tuple],
    budget: PrivacyBudget,
    slack: float = 1e-9,
) -> tuple[bool, DpWitness | None]:
    """Exact DP check through the divergence, in both directions per pair.

    Adjacency need not be symmetric, so each listed pair is checked forward
    and reverse.  Returns the first violation as a (pair, event, gap)
    witness.  Vacuously true when no pairs are given.
    """
    if mech.pmf is None:
        raise UnsupportedError("mechanism has no exact pmf; use check_dp_statistical")
    for a, b in adj_pairs:
        mu, nu = mech.pmf(a), mech.pmf(b)
        for direction, lhs, rhs in (("forward", mu, nu), ("reverse", nu, mu)):
            value, event = hockey_stick_witness(lhs, rhs, budget.eps)
            if value > budget.delta + slack:
                return False, DpWitness((a, b), direction, event, value - budget.delta)
    return True, None


def check_dp_laplace(
    mech: Mechanism,
    adj_pairs: Sequence[tuple],
    budget: PrivacyBudget,
    tol: float = 1e-9,
) -> tuple[bool, DpWitness | None]:
    """Closed-form DP check for additive-Laplace mechanisms, per coordinate.

    Each output coordinate is a shifted Laplace law, so the coordinate
    divergences have a closed form.  A coordinate that exceeds the
    budget refutes DP outright; all coordinates passing certifies every
    per-coordinate marginal, and the joint guarantee then follows from
    independence across coordinates and divergence composability.
    """
    if mech.densities is None:
        raise UnsupportedError("mechanism has no density accessor; use check_dp_statistical")
    for a, b in adj_pairs:
        da, db = mech.densities(a), mech.densities(b)
        if len(da) != len(db):
            raise DimensionError("density tuples differ in length across the pair")
        for j, (la, lb) in enumerate(zip(da, db)):
            if la.b != lb.b:
                raise DimensionError("coordinate scales differ across the pair")
            for direction, x, y in (("forward", la.z, lb.z), ("reverse", lb.z, la.z)):
                value = divergence_laplace_pair(la.b, x, y, budget.eps, tol).value
                if value > budget.delta + tol:
                    return False, DpWitness(
                        (a, b), direction, ("coordinate", j), value - budget.delta
                    )
    return True, None


@dataclass(frozen=True)
class StatisticalAuditReport:
    """Outcome of a sampling-based DP audit.

    The verdict is "violation" only when a Bonferroni-corrected
    Clopper-Pearson lower bound exceeds delta, i.e. with confidence at
    least 1 - alpha.  "no-violation-found" never certifies privacy: the
    event family is restricted.  "inconclusive" flags point estimates
    beyond delta plus half the audit's resolution that fail significance,
    i.e. suggestive exceedances the sample budget cannot settle.
    """

    verdict: str
    alpha: float
    samples: int
    tests: int
    resolution: float
    max_point: float
    max_lower: float
    witness: DpWitness | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "alpha": self.alpha,
            "samples": self.samples,
            "tests": self.tests,
            "resolution": self.resolution,
            "max_point": self.max_point,
            "max_lower": self.max_lower,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def _default_events(mech: Mechanism, xs, ys) -> list[Event]:
    kind = mech.output_desc[0]
    if kind == "finite":
        return label_subset_events(mech.output_desc[1])
    if kind not in ("real-vector", "real"):
        raise UnsupportedError(f"no default event family for outputs of kind {kind!r}")
    pooled = np.concatenate([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])
    if kind == "real-vector":
        return coordinate_interval_events(pooled)
    return interval_events(pooled)


def check_dp_statistical(
    mech: Mechanism,
    adj_pairs: Sequence[tuple],
    budget: PrivacyBudget,
    samples: int,
    alpha: float,
    rng: RandomSource,
    events: Sequence[Event] | None = None,
) -> StatisticalAuditReport:
    """Monte Carlo DP audit over adjacency pairs, both directions each."""
    if samples < 1000:
        raise ParameterError("statistical audit needs samples >= 1000")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    drawn = []
    for idx, (a, b) in enumerate(adj_pairs):
        xs = _draw(mech, a, rng.fork(2 * idx), samples)
        ys = _draw(mech, b, rng.fork(2 * idx + 1), samples)
        drawn.append(((a, b), xs, ys))

    witness = None
    max_point = -math.inf
    max_lower = -math.inf
    tests = 0
    rows = []
    for (pair, xs, ys) in drawn:
        pair_events = events if events is not None else _default_events(mech, xs, ys)
        tests += 2 * len(pair_events)
        rows.append((pair, xs, ys, pair_events))

    if tests == 0:
        return StatisticalAuditReport(
            VERDICT_NO_VIOLATION, alpha, samples, 0, 0.0, 0.0, 0.0, None
        )

    alpha_each = alpha / tests
    for pair, xs, ys, pair_events in rows:
        for direction, lhs, rhs in (("forward", xs, ys), ("reverse", ys, xs)):
            for est in estimate_events(lhs, rhs, pair_events, budget.eps, alpha_each):
                max_point = max(max_point, est.point)
                max_lower = max(max_lower, est.lower)
                if est.lower > budget.delta and witness is None:
                    witness = DpWitness(
                        pair, direction, est.event.label, est.lower - budget.delta
                    )

    # Data-independent scale of estimator noise at the corrected level.  A
    # point estimate within half this band of delta is indistinguishable
    # from a tight-but-private mechanism; beyond it without significance,
    # the audit is underpowered rather than clean.
    resolution = (1.0 + math.exp(budget.eps)) * math.sqrt(
        math.log(2.0 * tests / alpha) / (2.0 * samples)
    )
    if witness is not None:
        verdict = VERDICT_VIOLATION
    elif max_point <= budget.delta + resolution / 2.0:
        verdict = VERDICT_NO_VIOLATION
    else:
        verdict = VERDICT_INCONCLUSIVE
    return StatisticalAuditReport(
        verdict, alpha, samples, tests, resolution, max_point, max_lower, witness
    )


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def post_process(mech: Mechanism, g) -> Mechanism:
    """Apply a data-independent map or kernel to the mechanism's output.

    Exact pmfs push forward exactly; the privacy budget is unchanged by
    construction, which the property suite confirms on random instances.
    """
    kernel = g if isinstance(g, DiscreteKernel) else None

    if mech.output_desc[0] == "finite":
        labels = mech.output_desc[1]
        out_labels: list = []
        if kernel is not None:
            for y in labels:
                for z in kernel(y).support:  # raises DomainError when partial
                    if z not in out_labels:
                        out_labels.append(z)
        else:
            for y in labels:
                try:
                    z = g(y)
                except KeyError as exc:
                    raise DomainError(f"post-processing map undefined at {y!r}") from exc
                if z not in out_labels:
                    out_labels.append(z)
        out_desc = ("finite", tuple(out_labels))
    else:
        out_desc = ("opaque",)

    def sample(x, rng: RandomSource):
        y = mech.sample(x, rng)
        if kernel is not None:
            return kernel(y).sample(rng)
        try:
            return g(y)
        except KeyError as exc:
            raise DomainError(f"post-processing map undefined at {y!r}") from exc

    pmf = None
    if mech.pmf is not None and out_desc[0] == "finite":
        base_pmf = mech.pmf

        def pmf(x) -> DiscreteDistribution:
            inner = base_pmf(x)
            if kernel is not None:
                return bind(inner, kernel)
            acc: dict = {}
            for y, p in zip(inner.support, inner.probs):
                z = g(y)
                acc[z] = acc.get(z, 0.0) + p
            return DiscreteDistribution.from_mapping(acc)

    return Mechanism(mech.input_desc, out_desc, sample, pmf=pmf)


def pair_compose(m1: Mechanism, m2: Mechanism) -> Mechanism:
    """Run both mechanisms independently on the same input, output the pair.

    Budgets add: the accountant charges (eps1 + eps2, delta1 + delta2).
    """
    if m1.input_desc is not None and m2.input_desc is not None:
        if m1.input_desc != m2.input_desc:
            raise DimensionError("pair composition requires a common input space")

    def sample(x, rng: RandomSource):
        y = m1.sample(x, rng)
        z = m2.sample(x, rng)
        return (y, z)

    pmf = None
    out_desc = ("opaque",)
    if m1.output_desc[0] == "finite" and m2.output_desc[0] == "finite":
        out_desc = (
            "finite",
            tuple((y, z) for y in m1.output_desc[1] for z in m2.output_desc[1]),
        )
        if m1.pmf is not None and m2.pmf is not None:
            pmf1, pmf2 = m1.pmf, m2.pmf

            def pmf(x) -> DiscreteDistribution:
                d1, d2 = pmf1(x), pmf2(x)
                acc = {
                    (y, z): py * pz
                    for y, py in zip(d1.support, d1.probs)
                    for z, pz in zip(d2.support, d2.probs)
                }
                return DiscreteDistribution.from_mapping(acc)

    return Mechanism(m1.input_desc or m2.input_desc, out_desc, sample, pmf=pmf)


@dataclass(frozen=True)
class AdaptiveKernel:
    """Second stage of adaptive composition: sees the input and the first output."""

    sample: Callable[[Any, Any, RandomSource], Any]
    pmf: Optional[Callable[[Any, Any], DiscreteDistribution]] = None
    output_labels: Optional[tuple] = None


def adaptive_compose(m1: Mechanism, k: AdaptiveKernel) -> Mechanism:
    """Feed the first mechanism's output into the kernel; budgets add.

    The exact pmf, when available, is the mixture over intermediate
    outcomes weighted by the first mechanism's law.
    """

    def sample(x, rng: RandomSource):
        z = m1.sample(x, rng)
        return k.sample(x, z, rng)

    pmf = None
    out_desc = ("finite", k.output_labels) if k.output_labels is not None else ("opaque",)
    if m1.pmf is not None and k.pmf is not None:
        pmf1, pmf_k = m1.pmf, k.pmf

        def pmf(x) -> DiscreteDistribution:
            d1 = pmf1(x)
            acc: dict = {}
            for z, pz in zip(d1.support, d1.probs):
                row = pmf_k(x, z)
                if row is None:
                    raise DomainError(f"adaptive kernel undefined at ({x!r}, {z!r})")
                for y, py in zip(row.support, row.probs):
                    acc[y] = acc.get(y, 0.0) + pz * py
            return DiscreteDistribution.from_mapping(acc)

    return Mechanism(m1.input_desc, out_desc, sample, pmf=pmf)


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
    ok, wit = check_dp_exact(mech, base_pairs, PrivacyBudget(eps, 0.0))
    if not ok:
        raise PreconditionError(f"mechanism is not (eps, 0)-DP on 1-adjacency: {wit}")
    group = PrivacyBudget(k * eps, 0.0)
    for a, b in pairs_within_distance(n, max_entry, k, budget=enumeration_budget):
        chain = adjacency_chain(a, b, k)
        if not chain_is_valid(chain, a, b, k):
            return False, DpWitness((a, b), "forward", ("chain", len(chain)), math.inf)
        ok, wit = check_dp_exact(mech, [(a, b)], group, slack=slack)
        if not ok:
            return False, wit
    return True, None
