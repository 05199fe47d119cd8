"""Local fluxes, monotone two-point flux families, and the induced entropy flux.

A two-point flux g(a, b) is consistent (g(u, u) = f(u)), nondecreasing in its
first argument and nonincreasing in its second.  Every family is a split pair
g(a, b) = A(a) ⊕ B(b): two pointwise halves and one combining op, tabulated in
:class:`TwoPointFlux`.  The halves come from the upwind splitting
f⁺(u) = ∫₀ᵘ max(f', 0) and f⁻(u) = ∫₀ᵘ min(f', 0), so f = f⁺ + f⁻ because
every built-in flux has f(0) = 0.  Godunov combines them with max when f has
its single minimum at 0 (burgers: g = max(f(a ∨ 0), f(b ∧ 0)), the closed form
of the interval extremum; Osher 1984, LeVeque 2002) and with + when f is
monotone (cubic, linear_advection), where it is the upwind flux.

A is nondecreasing and B nonincreasing (for Lax-Friedrichs when
λ max|f'| <= 1), and both ops are nondecreasing in each argument, so every
family is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LocalFlux",
    "TwoPointFlux",
    "LOCAL_FLUX_NAMES",
    "FLUX_FAMILIES",
    "make_local_flux",
    "make_flux",
]

LOCAL_FLUX_NAMES = ("burgers", "cubic", "linear_advection")
FLUX_FAMILIES = ("engquist_osher", "godunov", "lax_friedrichs", "upwind_linear")


@dataclass(frozen=True)
class LocalFlux:
    """A scalar flux u -> f(u) plus the closed forms the flux families need.

    ``df_bounds`` returns the exact range of f' over a box [lo, hi] (floats,
    or arrays of boxes);
    ``split_plus``/``split_minus`` are the upwind halves f⁺ and f⁻, the
    integrals of max(f', 0) and min(f', 0) from zero.  ``godunov_op`` combines
    them into the Godunov flux: ``np.maximum`` when f has its single minimum
    at 0, ``np.add`` when f is monotone.
    """

    name: str
    f: Callable
    df_bounds: Callable[[float, float], tuple[float, float]]
    split_plus: Callable
    split_minus: Callable
    godunov_op: Callable


def make_local_flux(name: str, speed: float = 1.0) -> LocalFlux:
    """Build a named local flux: burgers, cubic, or linear_advection(speed)."""
    if name == "burgers":
        return LocalFlux(
            name="burgers",
            f=lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
            df_bounds=lambda lo, hi: (lo, hi),
            split_plus=lambda u: 0.5 * np.maximum(np.asarray(u, dtype=float), 0.0) ** 2,
            split_minus=lambda u: 0.5 * np.minimum(np.asarray(u, dtype=float), 0.0) ** 2,
            godunov_op=np.maximum,
        )
    if name == "cubic":
        # f' = u^2 >= 0: f is monotone, so the upwind splitting is trivial.
        def _df_bounds(lo, hi):
            sq_lo, sq_hi = np.square(lo), np.square(hi)
            dmin = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(sq_lo, sq_hi))[()]
            return dmin, np.maximum(sq_lo, sq_hi)

        return LocalFlux(
            name="cubic",
            f=lambda u: np.asarray(u, dtype=float) ** 3 / 3.0,
            df_bounds=_df_bounds,
            split_plus=lambda u: np.asarray(u, dtype=float) ** 3 / 3.0,
            split_minus=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
            godunov_op=np.add,
        )
    if name == "linear_advection":
        a = float(speed)
        if not math.isfinite(a):
            raise ValueError(f"advection speed must be finite, got {speed}")
        zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        ramp = lambda u: a * np.asarray(u, dtype=float)
        return LocalFlux(
            name="linear_advection",
            f=ramp,
            df_bounds=lambda lo, hi: (a + 0.0 * lo,) * 2,  # shaped like the box
            split_plus=ramp if a >= 0.0 else zero,
            split_minus=zero if a >= 0.0 else ramp,
            godunov_op=np.add,
        )
    raise ValueError(
        f"unknown local flux {name!r}; valid names: " + ", ".join(LOCAL_FLUX_NAMES)
    )


@dataclass(frozen=True)
class TwoPointFlux:
    """A monotone two-point flux family over a local flux, g(a, b) = A(a) ⊕ B(b).

      family           A(a)               B(b)               ⊕
      godunov          f⁺(a)              f⁻(b)              local.godunov_op
      engquist_osher   f⁺(a)              f⁻(b)              +
      lax_friedrichs   f(a)/2 + a/(2λ)    f(b)/2 − b/(2λ)    +
      upwind_linear    f⁺(a)              f⁻(b)              +

    For lax_friedrichs, λ = ``lf_lambda`` is frozen at construction so g is
    mesh independent, and monotonicity requires λ max|f'| <= 1 on the data
    box.  upwind_linear takes a*u from the upwind side, which is what the
    splitting of the linear_advection flux gives.
    """

    family: str
    local: LocalFlux
    lf_lambda: float | None = None

    def _split(self) -> tuple[Callable, Callable, Callable]:
        """The pointwise halves A, B and the op ⊕ of g(a, b) = A(a) ⊕ B(b)."""
        local = self.local
        if self.family == "lax_friedrichs":
            half_visc = 1.0 / (2.0 * self.lf_lambda)
            return (
                lambda u: 0.5 * local.f(u) + half_visc * np.asarray(u, dtype=float),
                lambda u: 0.5 * local.f(u) - half_visc * np.asarray(u, dtype=float),
                np.add,
            )
        op = local.godunov_op if self.family == "godunov" else np.add
        return local.split_plus, local.split_minus, op

    # -- evaluation ---------------------------------------------------------

    def g(self, a, b):
        """The flux g(a, b) for scalar or array arguments."""
        left, right, op = self._split()
        return op(left(a), right(b))

    def shifted_pair_evaluator(self, values: np.ndarray) -> Callable[[int], np.ndarray]:
        """Evaluator ev(k) = g(values[..., :-k], values[..., k:]) with shared setup.

        Wide-stencil loops call g on every shift of one array, so both halves
        are evaluated once per array and each shift costs one elementwise op.
        Results match :meth:`g` exactly.
        """
        left, right, op = self._split()
        a_all, b_all = left(values), right(values)

        def ev(k: int) -> np.ndarray:
            return op(a_all[..., :-k], b_all[..., k:])

        return ev

    def additive_halves(self, values: np.ndarray, reach: int):
        """(A(values), B(values), op), op = np.add if g(a, b) = A(a) + B(b) holds
        exactly on every pair values[i], values[j] with i < j <= i + reach, else ⊕.

        Always so when ⊕ is +.  When ⊕ is max (Godunov over a flux whose single
        minimum is at 0) both halves are >= 0, and positive on opposite sides
        of 0, so max(A, B) = A + B wherever one of them is 0: only a transonic
        pair within reach, A_i > 0 and B_j > 0, needs the max.  The nearest
        such pair joins the last entry of a run of positive A to the first
        entry of a run of positive B, so only run ends and run starts are
        compared, and none when one half has no positive entry (one-signed data).
        """
        return self._halves(values, reach)[:3]

    def _halves(self, values: np.ndarray, reach: int):
        """:meth:`additive_halves` and, for A and for B, whether the transonic test
        found that half exactly 0: no positive entry, and no NaN either."""
        left, right, op = self._split()
        a, b = left(values), right(values)
        if op is np.add:
            return a, b, op, False, False
        pos_a, pos_b = a > 0.0, b > 0.0
        some_a, some_b = pos_a.any(), pos_b.any()
        if not (some_a and some_b):  # a NaN is truthy, so ``.any()`` finds it
            return a, b, np.add, not (some_a or a.any()), not (some_b or b.any())
        ends = (pos_a[:-1] > pos_a[1:]).nonzero()[0]
        starts = (pos_b[1:] > pos_b[:-1]).nonzero()[0] + 1
        nxt = starts.searchsorted(ends, side="right")  # the first start right of each end
        has = nxt < starts.size
        return a, b, op if (starts[nxt[has]] - ends[has] <= reach).any() else np.add, False, False

    def stencil_sum(self, ext: np.ndarray, w: np.ndarray, c=None) -> np.ndarray:
        """sum_k w_k [p(u_j, u_{j+k}) - p(u_{j-k}, u_j)] over the cells of the 1-D
        ``ext``, whose R = w.size entries at each end are ghosts.

        p is g, or with ``c`` (a scalar or one per entry of ``ext``) the entropy
        flux q(·, ·; c) of :meth:`q`.  Where :meth:`additive_halves` finds
        g = A + B on every pair within R (for q, on ext v c and on ext ^ c, so
        that q(a, b; c) = α(a) + β(b) with α = A(ext v c) - A(ext ^ c) and
        β = B(ext v c) - B(ext ^ c)), the sum is two correlations: with
        dA_i = A_{i+1} - A_i and tail sums T_l = sum_{k>l} w_k it is
        sum_{l<R} T_l (dB_{j+l} + dA_{j-l-1}), so a flat stencil gives exactly 0.
        A half that Godunov's transonic test found exactly 0 (B on data >= 0, A
        on data <= 0; for q, on both ext v c and ext ^ c) correlates to +0.0
        everywhere, so its correlation is not taken.  Otherwise k runs upward
        with elementwise ops, so the order is fixed by the data alone.
        """
        pad = w.size
        n = ext.size - 2 * pad
        if c is None:
            a, b, op, zero_a, zero_b = self._halves(ext, pad)
            additive = op is np.add
            pair = lambda k: op(a[:-k], b[k:])
        else:
            a_hi, b_hi, op_hi, zero_a, zero_b = self._halves(np.maximum(ext, c), pad)
            a_lo, b_lo, op_lo, lo_zero_a, lo_zero_b = self._halves(np.minimum(ext, c), pad)
            additive = op_hi is np.add and op_lo is np.add
            zero_a, zero_b = zero_a and lo_zero_a, zero_b and lo_zero_b
            if additive:
                a, b = a_hi - a_lo, b_hi - b_lo
            pair = lambda k: op_hi(a_hi[:-k], b_hi[k:]) - op_lo(a_lo[:-k], b_lo[k:])
        if additive:
            if zero_a and zero_b:
                return np.zeros(n)
            tail, m = w[::-1].cumsum()[::-1], n + pad
            right = 0.0 if zero_b else np.correlate(b[pad + 1 :] - b[pad:-1], tail, "valid")
            left = 0.0 if zero_a else np.correlate(a[1:m] - a[: m - 1], tail[::-1], "valid")
            return right + left  # a skipped half's +0.0 turns a -0.0 into +0.0, as the sum did
        acc = np.zeros(n)
        for k, wk in enumerate(w, 1):
            pk = pair(k)
            acc += (pk[pad : pad + n] - pk[pad - k : pad - k + n]) * wk
        return acc

    # -- entropy flux -------------------------------------------------------

    def q(self, a, b, c):
        """Nonlocal entropy flux q(a, b; c) = g(a v c, b v c) - g(a ^ c, b ^ c).

        Consistent with the local entropy flux: q(u, u; c) equals
        sgn(u - c) (f(u) - f(c)) with sgn(0) := 1.
        """
        hi = self.g(np.maximum(a, c), np.maximum(b, c))
        lo = self.g(np.minimum(a, c), np.minimum(b, c))
        return hi - lo

    # -- bounds and validity ------------------------------------------------

    def lipschitz_box_bound(self, b1: float, b2: float) -> tuple[float, float]:
        """Upper bounds (L1, L2) for sup|dg/da| and sup|dg/db| over [b1, b2]^2.

        Closed form from the exact range of f' over the box.
        """
        if not b1 <= b2:
            raise ValueError(f"need b1 <= b2, got ({b1}, {b2})")
        dmin, dmax = self.local.df_bounds(b1, b2)
        if self.family == "lax_friedrichs":
            half_visc = 1.0 / (2.0 * self.lf_lambda)
            l1 = max(abs(0.5 * dmin + half_visc), abs(0.5 * dmax + half_visc))
            l2 = max(abs(0.5 * dmin - half_visc), abs(0.5 * dmax - half_visc))
            return l1, l2
        # the upwind halves: dg/da in [0, max(f', 0)], dg/db in [min(f', 0), 0]
        return float(max(0.0, dmax)), float(max(0.0, -dmin))

    def monotone_on(self, b1: float, b2: float) -> bool:
        """Whether g1 >= 0 and g2 <= 0 hold throughout [b1, b2]^2.

        Godunov, Engquist-Osher, and upwind fluxes are monotone everywhere;
        Lax-Friedrichs needs lf_lambda * max|f'| <= 1 on the box.
        """
        return self.family != "lax_friedrichs" or bool(self.step_speed(b1, b2) < math.inf)

    def step_speed(self, lo, hi):
        """The max of A' - B' over each box [lo, hi] (arrays of boxes, or floats).

        g1(a, ·) <= A'(a) and -g2(·, a) <= -B'(a), so a step on values in the box
        has diagonal partial at least 1 - dt sum_k W_k step_speed, and it is
        monotone there when that is >= 0 (Crandall & Majda 1980).  A' - B' is |f'|
        for the upwind halves and 1/λ for Lax-Friedrichs, which is monotone only
        where λ max|f'| <= 1: +inf elsewhere.
        """
        dmin, dmax = self.local.df_bounds(lo, hi)
        speed = np.maximum(np.abs(dmin), np.abs(dmax))
        if self.family != "lax_friedrichs":
            return speed
        return np.where(self.lf_lambda * speed <= 1.0 + 1e-12, 1.0 / self.lf_lambda, np.inf)[()]


def make_flux(
    family: str, local: LocalFlux, lf_lambda: float | None = None
) -> TwoPointFlux:
    """Build a two-point flux of the given family over a local flux."""
    if family not in FLUX_FAMILIES:
        raise ValueError(
            f"unknown flux family {family!r}; valid families: " + ", ".join(FLUX_FAMILIES)
        )
    if family == "lax_friedrichs":
        if lf_lambda is None or not (math.isfinite(lf_lambda) and lf_lambda > 0.0):
            raise ValueError(f"lf_lambda must be positive and finite, got {lf_lambda}")
    elif lf_lambda is not None:
        raise ValueError(f"lf_lambda only applies to lax_friedrichs, not {family!r}")
    if family == "upwind_linear" and local.name != "linear_advection":
        raise ValueError("upwind_linear requires the linear_advection local flux")
    return TwoPointFlux(family=family, local=local, lf_lambda=lf_lambda)
