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
    piecewise_linear: bool = False

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


def _abs_affine_integral(c: float, exact, lo: float, hi: float, t: float) -> float:
    """Integral of |c - exact(x, t)| over [lo, hi] where exact is affine.

    The affine piece is identified from two interior samples (robust to which
    side a breakpoint evaluation lands on), and the integral splits at the
    sign change of the integrand, so the result is exact up to round-off.
    """
    length = hi - lo
    x1 = lo + 0.25 * length
    x2 = lo + 0.75 * length
    v1 = float(exact(x1, t))
    v2 = float(exact(x2, t))
    slope = (v2 - v1) / (x2 - x1)
    d_lo = c - (v1 + slope * (lo - x1))
    d_hi = c - (v1 + slope * (hi - x1))
    if d_lo * d_hi >= 0.0:
        return 0.5 * abs(d_lo + d_hi) * length
    return 0.5 * (d_lo * d_lo + d_hi * d_hi) * length / abs(d_hi - d_lo)


def _abs_gauss_integral(c: float, exact, lo: float, hi: float, t: float) -> float:
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = np.abs(c - np.asarray(exact(mid + half * _GL_NODES, t), dtype=float))
    return half * float(np.dot(vals, _GL_WEIGHTS))


def l1_error(state: GridState, exact, window: tuple[float, float]) -> float:
    """Windowed L1 distance between the grid field and an exact solution.

    Integrates |u_grid - exact| cell by cell over ``window`` at the state's
    own time.  Cells are split at the exact solution's breakpoints; affine
    pieces (shocks, fans, shifted jumps) integrate in closed form, anything
    else falls back to 5-point Gauss per piece.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError(f"window must satisfy a < b, got ({a}, {b})")
    tol = 1e-9 * state.dx
    if a < state.x0 - tol or b > state.x_right + tol:
        raise ValueError(
            f"window [{a}, {b}] outside the grid domain "
            f"[{state.x0}, {state.x_right}]"
        )
    t = state.time
    bps: tuple[float, ...] = ()
    if hasattr(exact, "breakpoints"):
        bps = tuple(exact.breakpoints(t))
    affine = bool(getattr(exact, "piecewise_linear", False))
    piece = _abs_affine_integral if affine else _abs_gauss_integral

    j0 = max(int(math.floor((a - state.x0) / state.dx)), 0)
    j1 = min(int(math.ceil((b - state.x0) / state.dx)), state.n_cells)
    total = 0.0
    for j in range(j0, j1):
        lo = max(a, state.x0 + j * state.dx)
        hi = min(b, state.x0 + (j + 1) * state.dx)
        if hi - lo <= 0.0:
            continue
        c = float(state.values[j])
        cuts = [lo] + [p for p in bps if lo < p < hi] + [hi]
        cuts = sorted(cuts)
        for p, q in zip(cuts[:-1], cuts[1:]):
            if q > p:
                total += piece(c, exact, p, q, t)
    return total


# -- named reference problems ----------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """A named benchmark: initial data, geometry, and its exact local solution."""

    name: str
    local_flux: str
    speed: float
    u0: Callable
    u0_breakpoints: tuple[float, ...]
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
        speed=1.0,
        u0=RiemannData(1.0, 0.0),
        u0_breakpoints=(0.0,),
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
        speed=1.0,
        u0=RiemannData(-1.0, 1.0),
        u0_breakpoints=(0.0,),
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
        speed=1.0,
        u0=_bump,
        u0_breakpoints=(),
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
