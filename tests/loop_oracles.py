"""Cell-by-cell forms of the exact L1 error and the solution writer, kept as
test oracles for the array passes in :mod:`horizonflux.reference` and
:mod:`horizonflux.outputs`, which must match them exactly.

``reference_l1_error`` walks the window cell by cell, splits each cell at the
exact solution's breakpoints and adds one piece at a time, with two scalar
``exact`` calls per affine piece.  ``reference_solution_csv`` formats one value
at a time.
"""

import math

import numpy as np

from horizonflux.outputs import format_float
from horizonflux.solver import _GL_NODES, _GL_WEIGHTS


def _abs_affine_integral(c, exact, lo, hi, t):
    """Integral of |c - exact(x, t)| over [lo, hi] where exact is affine,
    identified from two interior samples and split at the sign change."""
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


def _abs_gauss_integral(c, exact, lo, hi, t):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = np.abs(c - np.asarray(exact(mid + half * _GL_NODES, t), dtype=float))
    return half * float(np.dot(vals, _GL_WEIGHTS))


def reference_l1_error(state, exact, window):
    """``l1_error`` as a loop over cells and pieces (window checks omitted)."""
    a, b = float(window[0]), float(window[1])
    t = state.time
    bps = tuple(exact.breakpoints(t)) if hasattr(exact, "breakpoints") else ()
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
        cuts = sorted([lo] + [p for p in bps if lo < p < hi] + [hi])
        for p, q in zip(cuts[:-1], cuts[1:]):
            if q > p:
                total += piece(c, exact, p, q, t)
    return total


def reference_solution_csv(trajectory):
    """The text of ``write_solution_csv``, one ``format_float`` per value."""
    lines = ["t,x_center,u"]
    for state in trajectory:
        t = format_float(state.time)
        for x, u in zip(state.centers, state.values):
            lines.append(f"{t},{format_float(x)},{format_float(u)}")
    return "\n".join(lines) + "\n"
