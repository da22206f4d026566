"""Reference values that the benchmark checks dpcheck against.

Nothing here imports dpcheck: every value comes from a closed form, an
independent enumeration, or an mpmath quadrature, so a wrong verdict from
the program cannot also be the expected one.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import mpmath

# Working precision of the noisy-max quadrature.  Twenty digits put the
# oracle's own error near 1e-20, far below the 1e-14 differences measured.
NOISY_MAX_DPS = 20


def laplace_profile(eps: float, d: float) -> float:
    """sup_S P(S) - e^eps Q(S) for Laplace laws whose centres are d scales apart.

    The closed-form privacy profile of the Laplace mechanism (Balle, Barthe
    and Gaboardi, NeurIPS 2018): 1 - e^((eps-d)/2) for |eps| <= d,
    1 - e^eps for eps <= -d, and 0 for eps >= d.
    """
    d = abs(d)
    if eps >= d:
        return 0.0
    if eps <= -d:
        return -math.expm1(eps)
    return -math.expm1((eps - d) / 2.0)


def query_values(predicates, hist) -> tuple[int, ...]:
    """Counting-query answers: query j sums the histogram over predicates[j]."""
    return tuple(sum(hist[t] for t in p) for p in predicates)


def analytic_sensitivity(predicates, n: int) -> int:
    """L1 sensitivity of counting queries: the most predicates sharing a type."""
    return max(sum(1 for p in predicates if t in p) for t in range(n))


@lru_cache(maxsize=None)
def _offsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        o
        for o in itertools.product(range(-k, k + 1), repeat=n)
        if 1 <= sum(abs(v) for v in o) <= k
    )


def adjacent_pairs(n: int, max_entry: int, k: int) -> list[tuple[tuple, tuple]]:
    """Unordered pairs of distinct histograms in [0, max_entry]^n at L1 distance <= k."""
    out = []
    for a in itertools.product(range(max_entry + 1), repeat=n):
        for o in _offsets(n, k):
            b = tuple(x + y for x, y in zip(a, o))
            if b > a and all(0 <= v <= max_entry for v in b):
                out.append((a, b))
    return out


def resolution(eps: float, tests: int, samples: int, alpha: float) -> float:
    """Estimator noise scale of a statistical audit at the Bonferroni level.

    The Hoeffding half-width of mu(S) - e^eps nu(S) for one of ``tests``
    simultaneous tests at overall level ``alpha``; generated cases keep
    their oracle gap a stated multiple of it away from delta.
    """
    return (1.0 + math.exp(eps)) * math.sqrt(math.log(2.0 * tests / alpha) / (2.0 * samples))


def _laplace_cdf(x, b):
    return mpmath.exp(x / b) / 2 if x < 0 else 1 - mpmath.exp(-x / b) / 2


def noisy_max_pmf(scores, eps: float) -> list[float]:
    """P[argmax(scores + Lap(1/eps)^m) = i] for every i, by mpmath quadrature.

    Integrates f(t - c_i) * prod_{j != i} F(t - c_j) over the real line,
    split at every score.  Equal scores share one integral.
    """
    scores = [int(c) for c in scores]
    if len(scores) == 1:
        return [1.0]
    low = min(scores)
    key = tuple(sorted(c - low for c in scores))
    by_value = _noisy_max_by_value(key, float(eps))
    return [by_value[c - low] for c in scores]


@lru_cache(maxsize=None)
def _noisy_max_by_value(scores: tuple[int, ...], eps: float) -> dict[int, float]:
    with mpmath.workdps(NOISY_MAX_DPS):
        b = 1 / mpmath.mpf(eps)
        kinks = [-mpmath.inf] + [mpmath.mpf(v) for v in sorted(set(scores))] + [mpmath.inf]
        out = {}
        for ci in set(scores):
            i = scores.index(ci)
            others = [mpmath.mpf(c) for j, c in enumerate(scores) if j != i]

            def integrand(t, ci=ci, others=others):
                v = mpmath.exp(-abs(t - ci) / b) / (2 * b)
                for cj in others:
                    v *= _laplace_cdf(t - cj, b)
                return v

            out[ci] = float(mpmath.quad(integrand, kinks, method="gauss-legendre"))
    return out


def one_hot_noisy_max_pmf(scores, eps: float) -> dict[int, float]:
    """Output law of noisy max with Laplace noise on the first score only.

    Index 0 wins when c_0 + r exceeds M = max(c_1..c_{m-1}); otherwise the
    last index holding M wins (the argmax tie rule), so P[0] = 1 - F(M - c_0).
    """
    c0, rest = scores[0], list(scores[1:])
    top = max(rest)
    last = len(rest) - rest[::-1].index(top)
    x = (top - c0) * eps
    p_rest = math.exp(x) / 2.0 if x < 0 else 1.0 - math.exp(-x) / 2.0
    return {0: 1.0 - p_rest, last: p_rest}


def hockey_stick(p: dict, q: dict, eps: float) -> float:
    """Divergence sup_S p(S) - e^eps q(S) of two finite laws."""
    scale = math.exp(eps)
    return sum(max(0.0, v - scale * q.get(y, 0.0)) for y, v in p.items())
