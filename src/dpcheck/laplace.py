"""Exact Laplace distribution math and seeded, vectorized sampling.

For scale b > 0 and location z the density and CDF are

    f(x) = exp(-|x - z| / b) / (2 b)
    F(x) = exp((x - z) / b) / 2          for x <= z
           1 - exp(-(x - z) / b) / 2     for x >= z

A nonpositive scale degenerates to a point mass at z, so mechanism code
never has to branch on the scale.  The one sampler, ``laplace_sample_block``,
inverts the CDF on a block of seeded uniforms, which keeps runs exactly
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaleError, DomainError

# Quadrature and grids truncate at z +- TAIL_HALF_WIDTH_SCALES * b; each
# discarded tail carries mass exp(-40)/2 < 1e-17.
TAIL_HALF_WIDTH_SCALES = 40.0


@dataclass(frozen=True)
class LaplaceDistribution:
    """Laplace(b, z); a point mass at z when b <= 0."""

    b: float
    z: float = 0.0

    @property
    def is_point_mass(self) -> bool:
        return self.b <= 0.0


class RandomSource:
    """Seeded uniform stream; identical seeds give identical sample streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def uniform_block(self, n: int) -> np.ndarray:
        """A block of n doubles from (0, 1); zeros are redrawn afterwards."""
        u = self._gen.random(n)
        zeros = u == 0.0
        while zeros.any():
            u[zeros] = self._gen.random(int(zeros.sum()))
            zeros = u == 0.0
        return u

    def fork(self, key: int) -> "RandomSource":
        """Independent child stream; deterministic in (seed, key).

        Use one fork per thread or per task when sampling concurrently.
        """
        child = int(np.random.SeedSequence([self.seed, int(key)]).generate_state(1, np.uint64)[0])
        return RandomSource(child)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


def laplace_pdf(d: LaplaceDistribution, x: float) -> float:
    """Density exp(-|x - z|/b) / (2b); undefined for a point mass."""
    if d.is_point_mass:
        raise DegenerateScaleError("point mass has no density (b <= 0)")
    return math.exp(-abs(x - d.z) / d.b) / (2.0 * d.b)


def laplace_cdf(d: LaplaceDistribution, x: float) -> float:
    """Two-branch CDF; a point mass yields the step function at z."""
    if d.is_point_mass:
        return 0.0 if x < d.z else 1.0
    if x < d.z:
        return math.exp((x - d.z) / d.b) / 2.0
    return 1.0 - math.exp(-(x - d.z) / d.b) / 2.0


def laplace_sample_block(d: LaplaceDistribution, rng: RandomSource, n: int) -> np.ndarray:
    """n draws: the inverse CDF of n seeded uniforms; a point mass repeats z
    and consumes no uniforms."""
    if d.is_point_mass:
        return np.full(n, d.z, dtype=float)
    u = rng.uniform_block(n)
    lower = d.z + d.b * np.log(2.0 * u)
    upper = d.z - d.b * np.log(2.0 * (1.0 - u))
    return np.where(u < 0.5, lower, upper)


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
