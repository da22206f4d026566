"""Randomized mechanisms, DP checking, composition combinators, and budgets.

A mechanism is just a kernel from inputs to output distributions; privacy
is a judgment about a (mechanism, adjacency, budget) triple, checked here
either exactly (finite outputs), by quadrature (Laplace noise), or
statistically (sampler only).  Budgets are tracked alongside mechanisms by
the caller, never inside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .datasets import Dataset
from .divergence import (
    DiscreteDistribution,
    DiscreteKernel,
    EventFamily,
    EventUnion,
    coordinate_interval_events,
    divergence_laplace_pair,
    estimate_events,
    hockey_stick_witness,
    label_subset_events,
)
from .errors import (
    DimensionError,
    DomainError,
    ParameterError,
    UnsupportedError,
    ValidationError,
)
from .laplace import LaplaceDistribution, RandomSource, laplace_sample_block

VERDICT_PASS = "pass"
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
    """Randomized algorithm given by its block sampler, with optional exact accessors.

    Fields:
      input_desc:   histogram length (int) or a tuple of abstract input labels.
      output_desc:  ("finite", labels) | ("real-vector", m) | ("product", (desc1, desc2)).
      sample_block: (input, RandomSource, n) -> ndarray with one row per draw:
                    a label per row for finite outputs, m columns for a real
                    vector, and for a product the first part's columns
                    followed by the second's.  It is the mechanism's only
                    sampler; ``sample`` is row 0 of a one-row block.
      pmf:          input -> DiscreteDistribution, when outputs are finite and exact.
      densities:    input -> per-coordinate LaplaceDistribution tuple, for
                    additive-noise mechanisms with real outputs.
    """

    input_desc: Any
    output_desc: tuple
    sample_block: Callable[[Any, RandomSource, int], np.ndarray]
    pmf: Optional[Callable[[Any], DiscreteDistribution]] = None
    densities: Optional[Callable[[Any], tuple[LaplaceDistribution, ...]]] = None

    def sample(self, x, rng: RandomSource):
        """One draw: row 0 of a one-row block, as plain Python values."""
        row = self.sample_block(x, rng, 1)[0]
        return row.tolist() if isinstance(row, (np.ndarray, np.generic)) else row


def label_array(labels: Sequence) -> np.ndarray:
    """Labels as a 1-D object array, one entry per label (tuples stay whole)."""
    return np.fromiter(labels, dtype=object, count=len(labels))


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
        sample_block=sample_block,
        densities=densities,
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
        sample_block=sample_block,
        pmf=pmf,
    )


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


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a DP audit on any of the three routes.

    The exact and closed-form Laplace routes certify: "pass" or
    "violation".  The statistical route can only refute.  Its verdict is
    "violation" only when a Bonferroni-corrected Clopper-Pearson lower bound
    exceeds delta, i.e. with confidence at least 1 - alpha.
    "no-violation-found" never certifies privacy: the event family is
    restricted.  "inconclusive" flags point estimates beyond delta plus half
    the audit's resolution that fail significance.  Only the statistical
    route sets ``alpha`` and the numbers after it.
    """

    verdict: str
    witness: DpWitness | None = None
    alpha: float | None = None
    samples: int = 0
    tests: int = 0
    resolution: float = 0.0
    max_point: float = 0.0
    max_lower: float = 0.0

    def to_json(self) -> dict:
        """The report's verdict, witness and detail fields; the statistical
        route's detail repeats every field, the other routes' is empty."""
        witness = None if self.witness is None else self.witness.to_json()
        detail = {}
        if self.alpha is not None:
            detail = {f.name: getattr(self, f.name) for f in fields(self)} | {"witness": witness}
        return {"verdict": self.verdict, "witness": witness, "detail": detail}


def check_dp_exact(
    mech: Mechanism,
    adj_pairs: Sequence[tuple],
    budget: PrivacyBudget,
    slack: float = 1e-9,
) -> AuditReport:
    """Exact DP check through the divergence, in both directions per pair.

    Adjacency need not be symmetric, so each listed pair is checked forward
    and reverse.  Reports the first violation as a (pair, event, gap)
    witness.  Vacuously "pass" when no pairs are given.
    """
    if mech.pmf is None:
        raise UnsupportedError("mechanism has no exact pmf; use check_dp_statistical")
    for a, b in adj_pairs:
        mu, nu = mech.pmf(a), mech.pmf(b)
        for direction, lhs, rhs in (("forward", mu, nu), ("reverse", nu, mu)):
            value, event = hockey_stick_witness(lhs, rhs, budget.eps)
            if value > budget.delta + slack:
                witness = DpWitness((a, b), direction, event, value - budget.delta)
                return AuditReport(VERDICT_VIOLATION, witness)
    return AuditReport(VERDICT_PASS)


def check_dp_laplace(
    mech: Mechanism,
    adj_pairs: Sequence[tuple],
    budget: PrivacyBudget,
    tol: float = 1e-9,
) -> AuditReport:
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
                    witness = DpWitness((a, b), direction, ("coordinate", j), value - budget.delta)
                    return AuditReport(VERDICT_VIOLATION, witness)
    return AuditReport(VERDICT_PASS)


def _width(desc: tuple) -> int:
    """Columns that one output of this kind takes in a product block."""
    if desc[0] == "product":
        return sum(_width(part) for part in desc[1])
    return desc[1] if desc[0] == "real-vector" else 1


def default_events(desc: tuple, xs, ys) -> EventFamily:
    """The statistical event family for outputs of kind ``desc``.

    Finite outputs get label subsets and a real vector gets per-coordinate
    intervals on the pooled draws xs and ys.  A product gets the union of
    its parts' families, each applied to that part's columns: an event on
    one part is an event on the whole output.
    """
    kind = desc[0]
    if kind == "finite":
        return label_subset_events(desc[1])
    if kind == "real-vector":
        pooled = np.concatenate([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])
        return coordinate_interval_events(pooled)
    if kind != "product":
        raise UnsupportedError(f"no default event family for outputs of kind {kind!r}")
    parts = []
    start = 0
    for i, part in enumerate(desc[1]):
        cols = start if part[0] == "finite" else slice(start, start + _width(part))
        start += _width(part)
        family = default_events(part, np.asarray(xs)[:, cols], np.asarray(ys)[:, cols])
        parts.append((f"part {i}: ", cols, family))
    return EventUnion(parts)


def check_dp_statistical(
    mech: Mechanism,
    adj_pairs: Sequence[tuple],
    budget: PrivacyBudget,
    samples: int,
    alpha: float,
    rng: RandomSource,
) -> AuditReport:
    """Monte Carlo DP audit over adjacency pairs, both directions each, on the
    default event family of the mechanism's outputs."""
    if samples < 1000:
        raise ParameterError("statistical audit needs samples >= 1000")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    rows = []
    tests = 0
    for idx, (a, b) in enumerate(adj_pairs):
        xs = mech.sample_block(a, rng.fork(2 * idx), samples)
        ys = mech.sample_block(b, rng.fork(2 * idx + 1), samples)
        pair_events = default_events(mech.output_desc, xs, ys)
        tests += 2 * len(pair_events)
        rows.append(((a, b), xs, ys, pair_events))

    if tests == 0:
        return AuditReport(VERDICT_NO_VIOLATION, alpha=alpha, samples=samples)

    witness = None
    max_point = -math.inf
    max_lower = -math.inf
    alpha_each = alpha / tests
    for pair, xs, ys, pair_events in rows:
        both = estimate_events(xs, ys, pair_events, budget.eps, alpha_each)
        for direction, est in zip(("forward", "reverse"), both):
            max_point = max(max_point, float(est.point.max()))
            max_lower = max(max_lower, float(est.lower.max()))
            hits = np.flatnonzero(est.lower > budget.delta)
            if witness is None and hits.size:
                gap = float(est.lower[hits[0]]) - budget.delta
                witness = DpWitness(pair, direction, pair_events.labels[hits[0]], gap)

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
    return AuditReport(verdict, witness, alpha, samples, tests, resolution, max_point, max_lower)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def _groups(block: np.ndarray) -> dict:
    """Row indices of each distinct entry of a finite block, in order of first occurrence."""
    rows: dict = {}
    for i, y in enumerate(block.tolist()):
        rows.setdefault(y, []).append(i)
    return rows


def post_process(mech: Mechanism, g) -> Mechanism:
    """Apply a data-independent map or kernel to a finite mechanism's output.

    Exact pmfs push forward exactly; the privacy budget is unchanged by
    construction, which the property suite confirms on random instances.
    A map is called once per label and a block is mapped through that
    table; a kernel is an adaptive stage that ignores the input.
    """
    if mech.output_desc[0] != "finite":
        raise UnsupportedError(f"post-processing needs finite outputs, not {mech.output_desc[0]!r}")
    labels = mech.output_desc[1]
    if isinstance(g, DiscreteKernel):
        rows = [g(y) for y in labels]  # raises DomainError when partial

        def draw(x, z, rng: RandomSource, n: int) -> np.ndarray:
            return label_array(g(z).support)[g(z).sample_index_block(rng, n)]

        out_labels = tuple(dict.fromkeys(z for row in rows for z in row.support))
        return adaptive_compose(mech, AdaptiveKernel(draw, out_labels, lambda x, z: g(z)))
    images = []
    for y in labels:
        try:
            images.append(g(y))
        except KeyError as exc:
            raise DomainError(f"post-processing map undefined at {y!r}") from exc
    image = dict(zip(labels, images))

    def sample_block(x, rng: RandomSource, n: int) -> np.ndarray:
        return label_array([image[y] for y in mech.sample_block(x, rng, n).tolist()])

    pmf = None
    if mech.pmf is not None:
        base_pmf = mech.pmf

        def pmf(x) -> DiscreteDistribution:
            inner = base_pmf(x)
            acc: dict = {}
            for y, p in zip(inner.support, inner.probs):
                z = g(y)
                acc[z] = acc.get(z, 0.0) + p
            return DiscreteDistribution.from_mapping(acc)

    out_desc = ("finite", tuple(dict.fromkeys(images)))
    return Mechanism(mech.input_desc, out_desc, sample_block, pmf=pmf)


def pair_compose(m1: Mechanism, m2: Mechanism) -> Mechanism:
    """Run both mechanisms independently on the same input, output the pair.

    Budgets add: the accountant charges (eps1 + eps2, delta1 + delta2).  A
    block draws the first part's block, then the second's.  Two finite
    parts give finite pair labels; any other pair is a product whose rows
    hold the first part's columns followed by the second's.
    """
    if m1.input_desc is not None and m2.input_desc is not None:
        if m1.input_desc != m2.input_desc:
            raise DimensionError("pair composition requires a common input space")
    finite = m1.output_desc[0] == m2.output_desc[0] == "finite"

    def sample_block(x, rng: RandomSource, n: int) -> np.ndarray:
        first = m1.sample_block(x, rng, n)
        second = m2.sample_block(x, rng, n)
        if finite:
            return np.fromiter(zip(first.tolist(), second.tolist()), dtype=object, count=n)
        return np.column_stack([first.astype(object), second.astype(object)])

    pmf = None
    out_desc = ("product", (m1.output_desc, m2.output_desc))
    if finite:
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

    return Mechanism(m1.input_desc or m2.input_desc, out_desc, sample_block, pmf=pmf)


@dataclass(frozen=True)
class AdaptiveKernel:
    """Second stage of adaptive composition: ``sample_block(x, z, rng, n)``
    draws n outputs in ``output_labels`` given the input x and first output z."""

    sample_block: Callable[[Any, Any, RandomSource, int], np.ndarray]
    output_labels: tuple
    pmf: Optional[Callable[[Any, Any], DiscreteDistribution]] = None


def adaptive_compose(m1: Mechanism, k: AdaptiveKernel) -> Mechanism:
    """Feed the first mechanism's output into the kernel; budgets add.

    A block draws the first stage's block, groups its rows by intermediate
    value in order of first occurrence, and draws each group's block from
    the kernel.  The exact pmf, when available, is the mixture over
    intermediate outcomes weighted by the first mechanism's law.
    """
    kind = m1.output_desc[0]
    if kind != "finite":
        raise UnsupportedError(f"adaptive composition needs finite outputs, not {kind!r}")

    def sample_block(x, rng: RandomSource, n: int) -> np.ndarray:
        out = np.empty(n, dtype=object)
        for z, at in _groups(m1.sample_block(x, rng, n)).items():
            out[at] = k.sample_block(x, z, rng, len(at))
        return out

    pmf = None
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

    return Mechanism(m1.input_desc, ("finite", tuple(k.output_labels)), sample_block, pmf=pmf)
