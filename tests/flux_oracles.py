"""Slow reference forms of the two-point flux families, kept as test oracles.

Each family is evaluated here from its textbook definition rather than from
the split pair the package uses: Godunov by an explicit search for the
interval extremum of f over the critical points of f, the other families by
their direct formulas.  ``reference_rate`` sums the step's flux differences
over k in a plain loop.  ``derivative`` gives f' of each local flux and
``partials`` the one-sided partial derivatives of each family, both in closed
form.  ``reference_entropy_matrix`` takes the full q-sum of the cell entropy
residual at every (c, j), with no lattice identity, and
``assert_entropy_matches_oracle`` pins ``check_entropy``'s report to it.  With
the default constants the audit is exact in c on the cells where the step is
certified monotone: there ``default_entropy_oracle`` takes
|u^{n+1}_j - H(u^n)_j| from ``reference_rate`` and checks it against the full
q-sum over a dense set of constants.
"""

import numpy as np

from horizonflux import kruzhkov_constants
from horizonflux.diagnostics import _certified

# The audit groups the q-sum's terms otherwise than the oracle matrix does; the
# two agree within ENTROPY_ULPS eps * (1 + max|u|).
ENTROPY_ULPS = 16

# critical points of f that can host an interval extremum, per local flux
INTERIOR_EXTREMA = {"burgers": (0.0,), "cubic": (), "linear_advection": ()}


def _speed(local):
    return float(local.f(1.0))  # linear_advection: f(u) = speed * u


def derivative(local, u):
    """f'(u) of a built-in local flux in closed form."""
    u = np.asarray(u, dtype=float)
    if local.name == "burgers":
        return u + 0.0
    if local.name == "cubic":
        return u**2
    return np.full_like(u, _speed(local))


def godunov_extremum(local, a, b):
    """min of f over [a, b] when a <= b, max of f over [b, a] otherwise."""
    f = local.f
    fa, fb = f(a), f(b)
    gmin = np.minimum(fa, fb)
    gmax = np.maximum(fa, fb)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    for p in INTERIOR_EXTREMA[local.name]:
        fp = float(f(np.asarray(p)))
        inside = (lo < p) & (p < hi)
        gmin = np.where(inside, np.minimum(gmin, fp), gmin)
        gmax = np.where(inside, np.maximum(gmax, fp), gmax)
    return np.where(a <= b, gmin, gmax)


def reference_g(flux, a, b):
    """g(a, b) of ``flux`` from the family's direct formula."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    local = flux.local
    if flux.family == "godunov":
        return godunov_extremum(local, a, b)
    if flux.family == "lax_friedrichs":
        lam = flux.lf_lambda
        return 0.5 * (local.f(a) + local.f(b)) - (b - a) / (2.0 * lam)
    if flux.family == "engquist_osher":
        return local.split_plus(a) + local.split_minus(b)
    sp = _speed(local)  # upwind_linear
    return sp * a if sp >= 0.0 else sp * b


def reference_pair_evaluator(flux, values):
    """Drop-in for ``TwoPointFlux.shifted_pair_evaluator`` built on reference_g."""
    return lambda k: reference_g(flux, values[..., :-k], values[..., k:])


def reference_rate(state, weights, flux):
    """sum_k W_k [g(u_j, u_{j+k}) - g(u_{j-k}, u_j)] by a loop over k on reference_g:
    the rate of ``step``, u^{n+1} = u^n - dt * rate."""
    n, pad = state.n_cells, weights.n_terms
    ext = state.extended(pad)
    acc = np.zeros(n)
    for k in range(1, pad + 1):
        gk = reference_g(flux, ext[:-k], ext[k:])
        acc += (gk[pad : pad + n] - gk[pad - k : pad - k + n]) * weights.weights[k - 1]
    return acc


def partials(flux, a, b):
    """(g1, g2) = (dg/da, dg/db); one-sided values on kink sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    df = lambda u: derivative(flux.local, u)
    if flux.family == "godunov":
        # one-sided on kink sets (a = b, sonic points); the active side is
        # where the interval extremum is attained, and clamping by the
        # monotone signs keeps g1 >= 0 >= g2 even at exact ties.
        g = godunov_extremum(flux.local, a, b)
        fa, fb = flux.local.f(a), flux.local.f(b)
        g1 = np.where(fa == g, np.maximum(df(a), 0.0), 0.0)
        g2 = np.where(fb == g, np.minimum(df(b), 0.0), 0.0)
    elif flux.family == "lax_friedrichs":
        half_visc = 1.0 / (2.0 * flux.lf_lambda)
        g1 = 0.5 * df(a) + half_visc
        g2 = 0.5 * df(b) - half_visc
    elif flux.family == "engquist_osher":
        g1 = np.maximum(df(a), 0.0)
        g2 = np.minimum(df(b), 0.0)
    else:  # upwind_linear
        sp = _speed(flux.local)
        one = np.ones(np.broadcast_shapes(a.shape, b.shape))
        g1 = sp * one if sp >= 0.0 else 0.0 * one
        g2 = 0.0 * one if sp >= 0.0 else sp * one
    return g1, g2


def reference_entropy_matrix(state_n, state_np1, weights, flux, constants):
    """Cell entropy residuals, one row per constant c, from the full q-sum.

    residual_j(c) = |u^{n+1}_j - c| - |u^n_j - c|
                    + dt * sum_k [q(u_j, u_{j+k}; c) - q(u_{j-k}, u_j; c)] W_k
    """
    dt = state_np1.time - state_n.time
    cs = np.atleast_1d(np.asarray(constants, dtype=float))
    n = state_n.n_cells
    pad = weights.n_terms
    ext = state_n.extended(pad)
    col = cs[:, None]
    w = weights.weights
    # q(a, b; c) = g(a v c, b v c) - g(a ^ c, b ^ c) on every shifted pair
    ev_hi = flux.shifted_pair_evaluator(np.maximum(ext[None, :], col))
    ev_lo = flux.shifted_pair_evaluator(np.minimum(ext[None, :], col))
    acc = np.zeros((cs.size, n))
    for k in range(1, pad + 1):
        qk = ev_hi(k) - ev_lo(k)
        acc += (qk[:, pad : pad + n] - qk[:, pad - k : pad - k + n]) * w[k - 1]
    return (
        np.abs(state_np1.values[None, :] - col)
        - np.abs(state_n.values[None, :] - col)
        + dt * acc
    )


def entropy_bound(state):
    return ENTROPY_ULPS * np.finfo(float).eps * (1.0 + float(np.max(np.abs(state.values))))


def entropy_matrices(trajectory, weights, flux, constants):
    """``reference_entropy_matrix`` of every step of ``trajectory``."""
    return [reference_entropy_matrix(a, b, weights, flux, constants)
            for a, b in zip(trajectory, trajectory[1:])]


def stencil_boxes(state, pad):
    """(m_j, M_j), the min and max of cell j's stencil u_{j-R} .. u_{j+R}."""
    windows = np.lib.stride_tricks.sliding_window_view(state.extended(pad), 2 * pad + 1)
    return windows.min(axis=1), windows.max(axis=1)


def default_entropy_oracle(trajectory, weights, flux):
    """Per step, the residual each cell must reach under ``check_entropy``'s default
    constants, the certificate and the two data sides of each cell.

    On a cell where the step is certified monotone (``_certified`` on the stencil
    box [m_j, M_j]) the sup over every c is |u^{n+1}_j - H(u^n)_j|, with H from
    ``reference_rate``, reached at c = min(m_j, u^{n+1}_j) or max(M_j, u^{n+1}_j).
    That value is checked against the full q-sum over a dense set of constants:
    every stencil value, every u^{n+1}_j, 0 and 65 uniform points over the data
    range plus the default margin.  Elsewhere it is the full matrix's maximum over
    the 17 default constants of u^0.
    """
    cs = kruzhkov_constants(trajectory[0])
    tol = entropy_bound(trajectory[0])
    steps = []
    for a, b in zip(trajectory, trajectory[1:]):
        dt = b.time - a.time
        lo, hi = stencil_boxes(a, weights.n_terms)
        sure = _certified(flux, weights, dt, lo, hi)
        exact = np.abs(b.values - (a.values - dt * reference_rate(a, weights, flux)))
        dense = np.unique(np.concatenate((a.values, b.values, [0.0], np.linspace(
            cs[0], cs[-1], 65))))
        dense_max = reference_entropy_matrix(a, b, weights, flux, dense).max(axis=0)
        assert np.all(np.abs(dense_max - exact)[sure] <= tol), np.abs(dense_max - exact)[sure]
        sampled = reference_entropy_matrix(a, b, weights, flux, cs).max(axis=0)
        sides = np.minimum(lo, b.values), np.maximum(hi, b.values)
        steps.append((np.where(sure, exact, sampled), sure, sides))
    return steps


def assert_entropy_matches_oracle(report, trajectory, weights, flux, constants=None,
                                  matrices=None):
    """Verdict, violation and location of ``check_entropy`` against the full
    matrices (``entropy_matrices`` of the trajectory, unless given), or with the
    default constants against ``default_entropy_oracle``."""
    tol = entropy_bound(trajectory[0])
    if constants is None:
        steps = default_entropy_oracle(trajectory, weights, flux)
        want = max(0.0, *(float(worst.max()) for worst, _, _ in steps))
    else:
        cs = np.asarray(constants)
        if matrices is None:
            matrices = entropy_matrices(trajectory, weights, flux, cs)
        want = max(0.0, *(float(matrix.max()) for matrix in matrices))
    assert report.passed == (want <= report.tolerance)
    assert abs(report.violation - want) <= tol, (report.violation, want)
    if report.location is None:
        assert want <= tol
        return
    n, j, c = report.location
    if constants is None:
        _, sure, sides = steps[n - 1]
        probed = [side[j] for side in sides] if sure[j] else kruzhkov_constants(trajectory[0])
        assert c in probed, (report.location, probed)
    else:
        assert c in cs
    at = reference_entropy_matrix(trajectory[n - 1], trajectory[n], weights, flux, [c])[0, j]
    assert abs(at - want) <= tol, (report.location, at, want)
