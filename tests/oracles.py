"""Test-side oracles: scalar reference forms that the library computes only
in vectorized or closed form.

Test modules import them as ``from oracles import ...`` (pytest puts
``tests/`` on the import path).
"""

from __future__ import annotations

import math

from dpcheck.errors import DegenerateScaleError, DomainError
from dpcheck.laplace import LaplaceDistribution


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
