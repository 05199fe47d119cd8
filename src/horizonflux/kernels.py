"""Finite-horizon interaction kernels and their cell-mass quadrature weights.

A kernel is a one-sided unit-mass weight w(h) = rho(h/delta)/delta supported
on [0, delta], where rho is a named unit-mass profile on [0, 1].  Each profile
is given by its closed-form antiderivative alone, so partial masses (and
therefore the quadrature weights built from them) are exact to round-off.  No
numeric quadrature of the kernel happens anywhere in the package.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

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
        _positive(self.delta, "horizon delta")
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


def _positive(value, name: str) -> None:
    """Reject ``value`` unless it is a finite number > 0; None is not one."""
    if value is None or not 0.0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``, or a ValueError; a bool is not a count."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count < least:
                raise ValueError(f"{name} must be at least {least}, got {count}")
            return count
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _fits(count: float, what: str) -> None:
    """Reject ``what``, ``count`` float64 values, before it is allocated when it
    needs more bytes than the process may hold: the smaller of the machine's
    physical memory and the soft address-space limit (``RLIMIT_AS``)."""
    need, have, of = 8.0 * count, math.inf, None
    try:
        have, of = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    except (AttributeError, ValueError, OSError):  # no sysconf
        pass
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY and soft < have:
            have, of = soft, "the address-space limit"
    if not need <= have:  # with neither bound known, numpy's allocation decides
        raise ValueError(f"{what}: {need:.4g} bytes, more than the {have:.4g} of {of}")


def compute_weights(kernel: Kernel, dx: float) -> QuadratureWeights:
    """Cell masses of the kernel, averaged over the jump length k*dx.

    W_k = (1/(k dx)) * integral of w over [(k-1) dx, k dx] for k = 1..max(r,1),
    and the residual mass on [r dx, delta] is folded into W_r.  When
    delta < dx the whole unit mass lands in W_1 = 1/dx, which degenerates the
    nonlocal update into the classical three-point scheme.
    """
    _positive(dx, "dx")
    ratio = kernel.delta / dx
    _fits(ratio + 1.0, f"r = floor(delta / dx) = floor({ratio:.6g}) needs r + 1 edges")
    r = int(math.floor(ratio))
    n = max(r, 1)
    edges = np.arange(n + 1, dtype=float) * dx
    cumulative = kernel.cumulative(edges)
    w = np.diff(cumulative) / (np.arange(1, n + 1, dtype=float) * dx)
    if r >= 1:
        # residual mass beyond r dx; the profile antiderivative makes the
        # total exactly one, so the tail is 1 - cumulative(r dx) to round-off
        w[r - 1] += (1.0 - cumulative[r]) / (r * dx)
    return QuadratureWeights(dx=dx, delta=kernel.delta, r=r, weights=w)
