"""Report noisy max over counting queries: the mechanism and its vectorized
sampler, a quadrature evaluator of winning probabilities, and verification
of its privacy bound.

Ties resolve to the LAST maximal position, the convention of the recursive
argmax (a strictly greater head takes index 0, an equal head defers to the
tail).  Noise makes ties measure-zero, so all probability statements are
tie-insensitive.  The recursive argmax and argmax-insert machinery, the
scalar winning probability of one position and the max-adjacency lemma are
test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .datasets import CountingQuerySet, Dataset, counting_query, pairs_within_distance
from .errors import CapacityError, DimensionError, DomainError, ParameterError
from .laplace import (
    TAIL_HALF_WIDTH_SCALES,
    LaplaceDistribution,
    RandomSource,
    laplace_cdf,
    laplace_pdf,
    laplace_sample_block,
)
from .mechanisms import Mechanism
from .quadrature import integrate_piecewise

# Probability ratios shrink in accuracy as min(p, p') does; rows below this
# floor are flagged so reports can call out potentially unstable ratios.
RATIO_STABILITY_FLOOR = 1e-6


def _argmax_last_rows(matrix: np.ndarray) -> np.ndarray:
    # last maximal index per row, matching the recursive tie convention
    m = matrix.shape[1]
    return m - 1 - np.argmax(matrix[:, ::-1], axis=1)


def rnm_mechanism(
    q: CountingQuerySet, eps: float, noise_mask: Sequence[bool] | None = None
) -> Mechanism:
    """Report noisy max packaged as a mechanism over histogram inputs.

    ``noise_mask`` selects which query values receive noise; masking
    coordinates out reproduces the classic broken variant for audits.  The
    mechanism is sampler-only: argmax probabilities are quadrature values,
    not exact pmfs.  ``sample_block`` draws Lap(1/eps) noise query by
    query, one column of n draws each, and reports the last maximal index
    per row; ``sample`` is its one-row block.  With fewer than two queries
    the output is the constant 0 and no noise is consumed.
    """
    if eps <= 0:
        raise ParameterError("report noisy max requires eps > 0")
    mask = tuple(bool(v) for v in (noise_mask if noise_mask is not None else [True] * q.m))
    if len(mask) != q.m:
        raise DimensionError(f"noise mask length {len(mask)} does not match m={q.m}")
    b = 1.0 / eps

    def sample_block(x, rng: RandomSource, n: int) -> np.ndarray:
        if q.m <= 1:
            return np.zeros(n, dtype=int)
        cols = [
            laplace_sample_block(LaplaceDistribution(b, c), rng, n)
            if keep
            else np.full(n, float(c))
            for c, keep in zip(counting_query(q, x), mask)
        ]
        return _argmax_last_rows(np.column_stack(cols))

    return Mechanism(
        input_desc=q.n,
        output_desc=("finite", tuple(range(q.m))),
        sample_block=sample_block,
    )


def rnm_prob_exact(c: Sequence[float], eps: float, i: int, tol: float = 1e-9) -> float:
    """P[argmax of (c + Lap(1/eps)^m) = i] by single-integral quadrature.

    Integrates f(t - c_i) * prod_{j != i} F(t - c_j) over t, split at every
    c_j (CDF kinks) with tails truncated at 40 scale units.  The split
    segments are refined to relative accuracy as well, so small
    probabilities stay accurate in ratio.
    """
    c = [float(v) for v in c]
    m = len(c)
    if m == 0:
        raise DomainError("rnm_prob_exact requires at least one score")
    if not all(math.isfinite(v) for v in c):
        raise DomainError("score vector entries must be finite")
    if not 0 <= i < m:
        raise DomainError(f"index {i} out of range for m={m}")
    if eps <= 0:
        raise ParameterError("rnm_prob_exact requires eps > 0")
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    if m == 1:
        return 1.0
    b = 1.0 / eps
    noise = LaplaceDistribution(b, 0.0)
    others = [v for j, v in enumerate(c) if j != i]
    ci = c[i]

    def integrand(t: float) -> float:
        val = laplace_pdf(noise, t - ci)
        for cj in others:
            val *= laplace_cdf(noise, t - cj)
        return val

    lo = min(c) - TAIL_HALF_WIDTH_SCALES * b
    hi = max(c) + TAIL_HALF_WIDTH_SCALES * b
    breakpoints = [lo, hi] + [v for v in c if lo < v < hi]
    value = integrate_piecewise(integrand, breakpoints, tol, rel_tol=1e-11)
    return min(1.0, max(0.0, value))


def rnm_pmf(c: Sequence[float], eps: float, tol: float = 1e-9) -> list[float]:
    """All m winning probabilities; sums to 1 within m * tol."""
    return [rnm_prob_exact(c, eps, i, tol) for i in range(len(c))]


# ---------------------------------------------------------------------------
# Verification of the privacy bound over enumerated instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RnmInstanceRow:
    """One (adjacent pair, output index) cell of the verification table."""

    dataset: Dataset
    dataset_adj: Dataset
    index: int
    p: float
    p_adj: float
    ratio: float
    bound: float
    passed: bool
    unstable: bool

    def to_json(self) -> dict:
        return {
            "D": list(self.dataset.counts),
            "D_adj": list(self.dataset_adj.counts),
            "i": self.index,
            "p": self.p,
            "p_adj": self.p_adj,
            "ratio": self.ratio,
            "bound": self.bound,
            "pass": self.passed,
            "unstable": self.unstable,
        }


@dataclass(frozen=True)
class RnmVerifyReport:
    eps: float
    tol: float
    m: int
    finer_bound: float  # exp(eps), independent of m
    naive_bound: float  # exp(m * eps), from worst-case sensitivity m
    rows: tuple[RnmInstanceRow, ...]
    max_ratio: float
    all_pass: bool
    dichotomy_ok: bool
    unstable_cells: int

    def to_json(self) -> dict:
        """Every field under its own name, but ``eps`` as ``epsilon``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["epsilon"] = out.pop("eps")
        out["rows"] = [r.to_json() for r in self.rows]
        return out


def _dichotomy_holds(qa: Sequence[int], qb: Sequence[int]) -> bool:
    # every 1-adjacent pair must shift all query values the same way by <= 1
    a_dominates = all(x >= y and x <= y + 1 for x, y in zip(qa, qb))
    b_dominates = all(y >= x and y <= x + 1 for x, y in zip(qa, qb))
    return a_dominates or b_dominates


def _ratio(p: float, p_adj: float) -> float:
    if p == p_adj:
        return 1.0
    if p == 0.0 or p_adj == 0.0:
        return math.inf
    return max(p / p_adj, p_adj / p)


def verify_rnm_dp_finer(
    q: CountingQuerySet,
    eps: float,
    max_entry: int = 2,
    tol: float = 1e-9,
    m_cap: int = 8,
    enumeration_budget: int = 200_000,
) -> RnmVerifyReport:
    """Check the m-independent privacy bound exp(eps) on every enumerated cell.

    Enumerates all 1-adjacent dataset pairs with entries <= max_entry,
    verifies the query-value dichotomy for each pair first, then checks
    p <= exp(eps) * p' + tol and its converse for every output index, where
    p, p' are quadrature winning probabilities.  The report records the
    worst observed ratio next to both the exp(eps) bound and the naive
    exp(m * eps) bound.
    """
    if eps <= 0:
        raise ParameterError("verification requires eps > 0")
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    if q.m > m_cap:
        raise CapacityError(f"m={q.m} exceeds the verification cap {m_cap}")

    @lru_cache(maxsize=None)
    def probs(scores: tuple[int, ...]) -> tuple[float, ...]:
        return tuple(rnm_pmf(list(scores), eps, tol))

    scale = math.exp(eps)
    rows = []
    dichotomy_ok = True
    for a, b in pairs_within_distance(q.n, max_entry, 1, budget=enumeration_budget):
        qa, qb = counting_query(q, a), counting_query(q, b)
        if not _dichotomy_holds(qa, qb):
            dichotomy_ok = False
        pa, pb = probs(qa), probs(qb)
        for i in range(q.m):
            p, p_adj = pa[i], pb[i]
            passed = p <= scale * p_adj + tol and p_adj <= scale * p + tol
            rows.append(
                RnmInstanceRow(
                    dataset=a,
                    dataset_adj=b,
                    index=i,
                    p=p,
                    p_adj=p_adj,
                    ratio=_ratio(p, p_adj),
                    bound=scale,
                    passed=passed,
                    unstable=min(p, p_adj) < RATIO_STABILITY_FLOOR,
                )
            )
    max_ratio = max((r.ratio for r in rows), default=1.0)
    return RnmVerifyReport(
        eps=eps,
        tol=tol,
        m=q.m,
        finer_bound=scale,
        naive_bound=math.exp(q.m * eps),
        rows=tuple(rows),
        max_ratio=max_ratio,
        all_pass=all(r.passed for r in rows) and dichotomy_ok,
        dichotomy_ok=dichotomy_ok,
        unstable_cells=sum(1 for r in rows if r.unstable),
    )
