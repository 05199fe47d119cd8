"""Closed-form local entropy solutions, exact L1 error integrals, and problems.

The Riemann solutions here are the ground truth for the joint local limit:
refining both the grid and the horizon must drive the numerical field toward
them.  They are piecewise affine in x, so the windowed L1 error can be
integrated exactly, splitting each cell at solution breakpoints and at the
sign changes of the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .solver import _GL_NODES, _GL_WEIGHTS, GridState

__all__ = [
    "AdvectionExact",
    "BurgersRiemannExact",
    "PROBLEM_NAMES",
    "Problem",
    "RiemannData",
    "get_problem",
    "l1_error",
]


@dataclass(frozen=True)
class RiemannData:
    """Initial condition u_left for x < x_jump, u_right otherwise."""

    u_left: float
    u_right: float
    x_jump: float = 0.0

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (self.x_jump,)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.x_jump, self.u_left, self.u_right)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BurgersRiemannExact:
    """Entropy solution of u_t + (u^2/2)_x = 0 with Riemann data.

    A shock of speed (u_left + u_right)/2 when u_left > u_right, a rarefaction
    fan u = x/t between the characteristic speeds when u_left < u_right.
    """

    u_left: float
    u_right: float
    x_jump: float = 0.0

    piecewise_linear = True

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float) - self.x_jump
        ul, ur = self.u_left, self.u_right
        if t <= 0.0:
            out = np.where(x < 0.0, ul, ur)
        elif ul > ur:
            s = 0.5 * (ul + ur)
            out = np.where(x < s * t, ul, ur)
        elif ul < ur:
            out = np.clip(x / t, ul, ur)
        else:
            out = np.full_like(x, ul)
        return float(out) if out.ndim == 0 else out

    def breakpoints(self, t: float) -> tuple[float, ...]:
        ul, ur = self.u_left, self.u_right
        if t <= 0.0 or ul == ur:
            return (self.x_jump,)
        if ul > ur:
            return (self.x_jump + 0.5 * (ul + ur) * t,)
        return (self.x_jump + ul * t, self.x_jump + ur * t)


@dataclass(frozen=True)
class AdvectionExact:
    """u(x, t) = u0(x - speed * t), optionally wrapped onto a periodic domain."""

    u0: Callable
    speed: float
    period: float | None = None
    x_left: float = 0.0

    def _pullback(self, x, t):
        y = np.asarray(x, dtype=float) - self.speed * t
        if self.period is not None:
            y = self.x_left + np.mod(y - self.x_left, self.period)
        return y

    def __call__(self, x, t):
        out = np.asarray(self.u0(self._pullback(x, t)), dtype=float)
        return float(out) if out.ndim == 0 else out

    def breakpoints(self, t: float) -> tuple[float, ...]:
        pts = getattr(self.u0, "breakpoints", ())
        shifted = [p + self.speed * t for p in pts]
        if self.period is not None:
            shifted = [
                self.x_left + math.fmod(p - self.x_left, self.period) for p in shifted
            ]
            shifted = [p + self.period if p < self.x_left else p for p in shifted]
        return tuple(sorted(shifted))


# -- exact windowed L1 error ---------------------------------------------------


def _checked_window(state: GridState, window) -> tuple[float, float]:
    """The window as floats (a, b) with a < b, inside the grid up to 1e-9 dx."""
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError(f"window must satisfy a < b, got ({a}, {b})")
    tol = 1e-9 * state.dx
    if a < state.x0 - tol or b > state.x_right + tol:
        raise ValueError(
            f"window [{a}, {b}] outside the grid domain "
            f"[{state.x0}, {state.x_right}]"
        )
    return a, b


def l1_error(state: GridState, exact, window: tuple[float, float]) -> float:
    """Windowed L1 distance between the grid field and an exact solution.

    Integrates |u_grid - exact| over ``window`` at the state's own time: the
    cells are split at the exact solution's breakpoints, affine pieces (shocks,
    fans, shifted jumps) integrate in closed form, anything else by 5-point
    Gauss, and the pieces are summed left to right.  ``exact`` takes arrays.
    """
    a, b = _checked_window(state, window)
    t = state.time
    j0 = max(int(math.floor((a - state.x0) / state.dx)), 0)
    j1 = min(int(math.ceil((b - state.x0) / state.dx)), state.n_cells)
    edges = state.x0 + np.arange(j0, j1 + 1) * state.dx
    lo = np.where(edges[:-1] > a, edges[:-1], a)  # max(a, edge) and min(b, edge)
    hi = np.where(edges[1:] < b, edges[1:], b)
    keep = hi - lo > 0.0
    lo, hi, c = lo[keep], hi[keep], state.values[j0:j1][keep]
    if lo.size == 0:
        return 0.0

    # The open cells are disjoint, so a breakpoint splits at most one of them.
    bps = np.unique(exact.breakpoints(t) if hasattr(exact, "breakpoints") else [])
    cell = lo.searchsorted(bps) - 1  # the last cell with lo < p
    inside = (cell >= 0) & (bps < hi[cell])
    pts, at = bps[inside], cell[inside]
    lo, hi, c = np.insert(lo, at + 1, pts), np.insert(hi, at, pts), np.insert(c, at, c[at])

    if getattr(exact, "piecewise_linear", False):
        # the affine piece through two interior samples, robust to which side a
        # breakpoint evaluation lands on
        length = hi - lo
        x1 = lo + 0.25 * length
        x2 = lo + 0.75 * length
        v1, v2 = exact(x1, t), exact(x2, t)
        # a piece of two ulps can round both samples to one point
        slope = np.divide(v2 - v1, x2 - x1, out=np.zeros(lo.size), where=x2 != x1)
        d_lo = c - (v1 + slope * (lo - x1))
        d_hi = c - (v1 + slope * (hi - x1))
        pieces = 0.5 * np.abs(d_lo + d_hi) * length
        cross = ~(d_lo * d_hi >= 0.0)  # the integrand changes sign inside
        d_lo, d_hi = d_lo[cross], d_hi[cross]
        pieces[cross] = 0.5 * (d_lo * d_lo + d_hi * d_hi) * length[cross] / np.abs(d_hi - d_lo)
    else:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _GL_NODES
        vals = np.abs(c[:, None] - np.asarray(exact(nodes, t), dtype=float))
        # one dot per row, as np.dot sums it; vals @ weights sums in another order
        pieces = half * np.matmul(vals[:, None, :], _GL_WEIGHTS[:, None])[:, 0, 0]
    return float(np.cumsum(pieces)[-1])  # left to right; np.sum would pair them


# -- named reference problems ----------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """A named benchmark: initial data, geometry, and its exact local solution.

    Cell averaging splits cells at ``u0.breakpoints``, the initial jumps, if u0 has them.
    """

    name: str
    local_flux: str
    u0: Callable
    exact: object | None
    domain: tuple[float, float]
    window: tuple[float, float]
    boundary: str
    final_time: float
    data_box: tuple[float, float]


def _bump(x):
    x = np.asarray(x, dtype=float)
    return np.sin(np.pi * x) ** 2


def _make_problems() -> dict[str, Problem]:
    shock = Problem(
        name="burgers_shock",
        local_flux="burgers",
        u0=RiemannData(1.0, 0.0),
        exact=BurgersRiemannExact(1.0, 0.0),
        domain=(-2.0, 3.0),
        window=(-0.5, 1.5),
        boundary="constant_extension",
        final_time=0.5,
        data_box=(0.0, 1.0),
    )
    rarefaction = Problem(
        name="burgers_rarefaction",
        local_flux="burgers",
        u0=RiemannData(-1.0, 1.0),
        exact=BurgersRiemannExact(-1.0, 1.0),
        domain=(-2.5, 2.5),
        window=(-1.0, 1.0),
        boundary="constant_extension",
        final_time=0.5,
        data_box=(-1.0, 1.0),
    )
    bump = Problem(
        name="advect_bump",
        local_flux="linear_advection",
        u0=_bump,
        exact=AdvectionExact(_bump, 1.0, period=1.0, x_left=0.0),
        domain=(0.0, 1.0),
        window=(0.0, 1.0),
        boundary="periodic",
        final_time=1.0,
        data_box=(0.0, 1.0),
    )
    return {p.name: p for p in (shock, rarefaction, bump)}


_PROBLEMS = _make_problems()
PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def get_problem(name: str) -> Problem:
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; valid problems: " + ", ".join(PROBLEM_NAMES)
        ) from None
