"""Slow reference forms of the two-point flux families, kept as test oracles.

Each family is evaluated here from its textbook definition rather than from
the split pair the package uses: Godunov by an explicit search for the
interval extremum of f over the critical points of f, the other families by
their direct formulas.  ``reference_rate`` sums the step's flux differences
over k in a plain loop.  ``derivative`` gives f' of each local flux and
``partials`` the one-sided partial derivatives of each family, both in closed
form.  ``lipschitz_box_bound`` bounds those partials over a box; it gives the
former CFL bound dt/dx <= 1 / (L1 + L2), which tests still take dt from.
``entropy_flux`` is the pointwise nonlocal entropy flux q(a, b; c), which the
package takes only as sums of g.
``reference_entropy_matrix`` takes the full q-sum of the cell entropy
residual at every (c, j), with no lattice identity.  ``entropy_oracle`` takes
it over a dense set of constants that holds every stencil's min and max, and
checks it on the cells where the step is certified monotone against
|u^{n+1}_j - H(u^n)_j| from ``reference_rate``; ``assert_entropy_matches_oracle``
pins ``check_entropy``'s report to it.
"""

import numpy as np

from horizonflux import kruzhkov_constants
from horizonflux.solver import _cfl_number

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


def lipschitz_box_bound(flux, b1, b2):
    """Upper bounds (L1, L2) for sup|dg/da| and sup|dg/db| over [b1, b2]^2.

    Closed form from the exact range of f' over the box.
    """
    if not b1 <= b2:
        raise ValueError(f"need b1 <= b2, got ({b1}, {b2})")
    dmin, dmax = flux.local.df_bounds(b1, b2)
    if flux.family == "lax_friedrichs":
        half_visc = 1.0 / (2.0 * flux.lf_lambda)
        l1 = max(abs(0.5 * dmin + half_visc), abs(0.5 * dmax + half_visc))
        l2 = max(abs(0.5 * dmin - half_visc), abs(0.5 * dmax - half_visc))
        return l1, l2
    # the upwind halves: dg/da in [0, max(f', 0)], dg/db in [min(f', 0), 0]
    return float(max(0.0, dmax)), float(max(0.0, -dmin))


def entropy_flux(flux, a, b, c):
    """Nonlocal entropy flux q(a, b; c) = g(a v c, b v c) - g(a ^ c, b ^ c).

    Consistent with the local entropy flux: q(u, u; c) equals
    sgn(u - c) (f(u) - f(c)) with sgn(0) := 1.
    """
    hi = flux.g(np.maximum(a, c), np.maximum(b, c))
    lo = flux.g(np.minimum(a, c), np.minimum(b, c))
    return hi - lo


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


def stencil_boxes(state, pad):
    """(m_j, M_j), the min and max of cell j's stencil u_{j-R} .. u_{j+R}."""
    windows = np.lib.stride_tricks.sliding_window_view(state.extended(pad), 2 * pad + 1)
    return windows.min(axis=1), windows.max(axis=1)


def entropy_oracle(trajectory, weights, flux, *constant_sets, dense=True):
    """Per step, the full q-sum matrix over a set of constants, for
    ``assert_entropy_matches_oracle``: (its constants, the matrix, the stencil
    boxes (m_j, M_j) and whether the step is certified monotone on each).

    The set holds every stencil side m_j and M_j and each of ``constant_sets``;
    if ``dense``, also every u^n_j and u^{n+1}_j, 0, the default constants of u^0
    and 65 uniform points over their range.  On a cell where the step is
    certified monotone (``_cfl_number`` <= 1 on [m_j, M_j]) the sup over every c
    is |u^{n+1}_j - H(u^n)_j| (Crandall & Majda 1980), with H from
    ``reference_rate``; the larger residual at the two sides and the set's
    maximum are both checked against it.
    """
    cs = kruzhkov_constants(trajectory[0])
    tol = entropy_bound(trajectory[0])
    steps = []
    for a, b in zip(trajectory, trajectory[1:]):
        dt = b.time - a.time
        lo, hi = stencil_boxes(a, weights.n_terms)
        sure = _cfl_number(flux, weights, dt, lo, hi) <= 1.0
        extra = (a.values, b.values, [0.0], cs, np.linspace(cs[0], cs[-1], 65)) if dense else ()
        probes = np.unique(np.concatenate((lo, hi, *constant_sets, *extra)))
        matrix = reference_entropy_matrix(a, b, weights, flux, probes)
        cells = np.arange(a.n_cells)
        sides = np.maximum(matrix[np.searchsorted(probes, lo), cells],
                           matrix[np.searchsorted(probes, hi), cells])
        exact = np.abs(b.values - (a.values - dt * reference_rate(a, weights, flux)))
        for got in (sides, matrix.max(axis=0)):
            assert np.all(np.abs(got - exact)[sure] <= tol), np.abs(got - exact)[sure]
        steps.append((probes, matrix, lo, hi, sure))
    return steps


def probed_residuals(steps, constants):
    """Per step of ``entropy_oracle``, its matrix where ``check_entropy`` probes and
    -inf elsewhere: each cell j at its stencil sides m_j and M_j, and a cell the
    step is not certified monotone on also at the ``constants`` strictly inside
    (m_j, M_j)."""
    out = []
    for probes, matrix, lo, hi, sure in steps:
        col = probes[:, None]
        inside = (lo < col) & (col < hi) & ~sure & np.isin(probes, constants)[:, None]
        out.append(np.where((col == lo) | (col == hi) | inside, matrix, -np.inf))
    return out


def assert_entropy_matches_oracle(report, trajectory, weights, flux, constants=None,
                                  steps=None):
    """Verdict, violation and location of ``check_entropy`` against the full q-sum
    at the constants it probes (``probed_residuals`` of ``entropy_oracle`` of the
    trajectory, unless given).  The constants default to ``kruzhkov_constants``
    of u^0."""
    cs = kruzhkov_constants(trajectory[0]) if constants is None else np.asarray(constants)
    if steps is None:
        steps = entropy_oracle(trajectory, weights, flux, cs)
    probed = probed_residuals(steps, cs)
    tol = entropy_bound(trajectory[0])
    want = max(0.0, *(float(matrix.max()) for matrix in probed))
    assert report.passed == (want <= report.tolerance)
    assert abs(report.violation - want) <= tol, (report.violation, want)
    if report.location is None:
        assert want <= tol
        return
    n, j, c = report.location
    probes, column = steps[n - 1][0], probed[n - 1][:, j]
    assert c in probes[column > -np.inf], (report.location, probes[column > -np.inf])
    at = column[np.searchsorted(probes, c)]
    assert abs(at - want) <= tol, (report.location, at, want)
