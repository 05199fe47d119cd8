"""Finite-horizon interaction kernels and their cell-mass quadrature weights.

A kernel is a one-sided unit-mass weight w(h) = rho(h/delta)/delta supported
on [0, delta], where rho is a named unit-mass profile on [0, 1].  Each profile
is given by its closed-form antiderivative alone, so partial masses (and
therefore the quadrature weights built from them) are exact to round-off.  No
numeric quadrature of the kernel happens anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "QuadratureWeights",
    "PROFILE_NAMES",
    "compute_weights",
]


# name -> antiderivative R of the profile rho on [0,1], R(0)=0, R(1)=1; each
# takes the clipped float array s = h/delta
_PROFILES = {
    "uniform": lambda s: s,
    "triangular": lambda s: s * (2.0 - s),
    "quadratic": lambda s: 0.5 * s * (3.0 - s * s),
}

PROFILE_NAMES = tuple(sorted(_PROFILES))


@dataclass(frozen=True)
class Kernel:
    """One-sided interaction kernel w(h) = rho(h/delta)/delta on [0, delta].

    ``delta`` is the horizon: the maximum pairwise interaction distance.
    The kernel integrates to one over [0, delta] by construction.
    """

    delta: float
    profile: str = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"horizon delta must be positive and finite, got {self.delta}")
        if self.profile not in _PROFILES:
            raise ValueError(
                f"unknown kernel profile {self.profile!r}; valid profiles: "
                + ", ".join(PROFILE_NAMES)
            )

    def cumulative(self, h):
        """Exact mass on [0, h], clamped to the support; vectorized."""
        s = np.clip(np.asarray(h, dtype=float) / self.delta, 0.0, 1.0)
        out = _PROFILES[self.profile](s)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QuadratureWeights:
    """Weights W_1..W_{max(r,1)} that turn the horizon integral into a cell sum.

    ``r = floor(delta / dx)`` counts whole cells inside the horizon.  The
    weights satisfy dx * sum_k k * W_k = 1 exactly (up to round-off) for every
    (dx, delta) pair, which is what makes the induced scheme consistent.
    """

    dx: float
    delta: float
    r: int
    weights: np.ndarray  # units 1/length

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def normalization_defect(self) -> float:
        """|dx * sum_k k W_k - 1|; should sit at round-off level."""
        k = np.arange(1, self.n_terms + 1, dtype=float)
        return abs(self.dx * float(np.dot(k, self.weights)) - 1.0)


def compute_weights(kernel: Kernel, dx: float) -> QuadratureWeights:
    """Cell masses of the kernel, averaged over the jump length k*dx.

    W_k = (1/(k dx)) * integral of w over [(k-1) dx, k dx] for k = 1..max(r,1),
    and the residual mass on [r dx, delta] is folded into W_r.  When
    delta < dx the whole unit mass lands in W_1 = 1/dx, which degenerates the
    nonlocal update into the classical three-point scheme.
    """
    if not (math.isfinite(dx) and dx > 0.0):
        raise ValueError(f"dx must be positive and finite, got {dx}")
    r = int(math.floor(kernel.delta / dx))
    n = max(r, 1)
    edges = np.arange(n + 1, dtype=float) * dx
    cumulative = kernel.cumulative(edges)
    w = np.diff(cumulative) / (np.arange(1, n + 1, dtype=float) * dx)
    if r >= 1:
        # residual mass beyond r dx; the profile antiderivative makes the
        # total exactly one, so the tail is 1 - cumulative(r dx) to round-off
        w[r - 1] += (1.0 - cumulative[r]) / (r * dx)
    return QuadratureWeights(dx=dx, delta=kernel.delta, r=r, weights=w)
