"""Discrete norms and invariant checks, each producing a serializable verdict.

Every check is pure: it reads a trajectory (a list of states ordered in time)
and returns an :class:`InvariantReport` with the worst violation magnitude and
where it happened.  Tolerances scale with (1 + data magnitude) so the verdicts
stay meaningful across problem scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fluxes import TwoPointFlux
from .kernels import QuadratureWeights
from .solver import GridState, _check_pair, _stencil_sum

__all__ = [
    "InvariantReport",
    "audit_trajectory",
    "cell_entropy_residual",
    "check_conservation",
    "check_entropy",
    "check_l1_contraction",
    "check_max_principle",
    "check_ordering",
    "check_tvd",
    "discrete_bv_norm",
    "discrete_l1_norm",
    "entropy_residuals",
    "kruzhkov_constants",
    "l1_distance",
    "total_variation",
]


@dataclass(frozen=True)
class InvariantReport:
    """Verdict of one invariant check.

    ``violation`` is the worst observed excess over the invariant (clamped at
    zero), ``location`` identifies where it occurred: (step,), (step, cell),
    or (step, cell, c) for entropy checks with a Kruzhkov constant.  A
    non-finite value fails a trajectory check: inf at its first (step, cell),
    in either run for the two-run checks.
    """

    name: str
    passed: bool
    violation: float
    tolerance: float
    location: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "violation": float(self.violation),
            "tolerance": float(self.tolerance),
            "location": None if self.location is None else list(self.location),
        }


def _report(name, violation, tolerance, location, *trajectories) -> InvariantReport:
    for n, states in enumerate(zip(*trajectories)):  # a non-finite value fails outright
        bad = [np.flatnonzero(~np.isfinite(s.values)) for s in states]
        if any(b.size for b in bad):
            violation, location = np.inf, (n, min(int(b[0]) for b in bad if b.size))
            break
    violation = max(float(violation), 0.0)
    return InvariantReport(
        name=name,
        passed=violation <= tolerance and violation < np.inf,
        violation=violation,
        tolerance=float(tolerance),
        location=location,
    )


# -- norms -------------------------------------------------------------------


def discrete_l1_norm(state: GridState) -> float:
    """dx * sum_j |u_j|."""
    return state.dx * float(np.sum(np.abs(state.values)))


def total_variation(state: GridState) -> float:
    """sum_j |u_{j+1} - u_j| (no dx factor); wraps around on periodic grids.

    With constant extension the ghost differences vanish, so only interior
    jumps contribute.
    """
    u = state.values
    tv = float(np.sum(np.abs(np.diff(u))))
    if state.boundary == "periodic":
        tv += abs(float(u[0] - u[-1]))
    return tv


def discrete_bv_norm(state: GridState) -> float:
    """dx-weighted total variation, dx * sum_j |u_{j+1} - u_j|."""
    return state.dx * total_variation(state)


def l1_distance(a: GridState, b: GridState) -> float:
    """dx * sum_j |a_j - b_j| for two states on the same grid."""
    if a.n_cells != b.n_cells or abs(a.dx - b.dx) > 1e-12 * a.dx:
        raise ValueError("states live on different grids")
    return a.dx * float(np.sum(np.abs(a.values - b.values)))


# -- trajectory checks ---------------------------------------------------------


def check_max_principle(trajectory: Sequence[GridState]) -> InvariantReport:
    """Values must stay inside the initial data range at every step."""
    u0 = trajectory[0].values
    b1, b2 = float(np.min(u0)), float(np.max(u0))
    tol = 1e-12 * (1.0 + max(abs(b1), abs(b2)))
    worst, where = 0.0, None
    for n, state in enumerate(trajectory):
        excess = np.maximum(state.values - b2, b1 - state.values)
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst, where = float(excess[j]), (n, j)
    return _report("max_principle", worst, tol, where, trajectory)


def check_tvd(trajectory: Sequence[GridState]) -> InvariantReport:
    """Total variation must not increase from one step to the next."""
    tvs = [total_variation(s) for s in trajectory]
    tol = 1e-12 * (1.0 + tvs[0])
    worst, where = 0.0, None
    for n in range(len(tvs) - 1):
        growth = tvs[n + 1] - tvs[n]
        if growth > worst:
            worst, where = growth, (n + 1,)
    return _report("tvd", worst, tol, where, trajectory)


def check_conservation(trajectory: Sequence[GridState]) -> InvariantReport:
    """Total mass dx * sum_j u_j is constant on periodic grids.

    The per-step round-off budget is 1e-13 * scale, so the reported violation
    is the worst mass drift divided by the step count at which it occurred.
    """
    if trajectory[0].boundary != "periodic":
        raise ValueError("conservation check requires a periodic grid")
    dx = trajectory[0].dx
    mass0 = dx * float(np.sum(trajectory[0].values))
    scale = 1.0 + dx * float(np.sum(np.abs(trajectory[0].values)))
    tol = 1e-13 * scale
    worst, where = 0.0, None
    for n, state in enumerate(trajectory[1:], start=1):
        drift = abs(dx * float(np.sum(state.values)) - mass0) / n
        if drift > worst:
            worst, where = drift, (n,)
    return _report("conservation", worst, tol, where, trajectory)


def check_l1_contraction(
    traj_a: Sequence[GridState], traj_b: Sequence[GridState]
) -> InvariantReport:
    """The discrete L1 distance of two runs must be non-increasing in time."""
    if len(traj_a) != len(traj_b):
        raise ValueError("trajectories have different lengths")
    dists = [l1_distance(a, b) for a, b in zip(traj_a, traj_b)]
    tol = 1e-12 * (1.0 + dists[0])
    worst, where = 0.0, None
    for n in range(len(dists) - 1):
        growth = dists[n + 1] - dists[n]
        if growth > worst:
            worst, where = growth, (n + 1,)
    return _report("l1_contraction", worst, tol, where, traj_a, traj_b)


def check_ordering(
    traj_a: Sequence[GridState], traj_b: Sequence[GridState]
) -> InvariantReport:
    """If u0 <= v0 componentwise, the ordering must persist at every step."""
    if len(traj_a) != len(traj_b):
        raise ValueError("trajectories have different lengths")
    scale = 1.0 + max(
        float(np.max(np.abs(traj_a[0].values))), float(np.max(np.abs(traj_b[0].values)))
    )
    tol = 1e-12 * scale
    if np.any(traj_a[0].values > traj_b[0].values + tol):
        raise ValueError("initial data not ordered: need u0 <= v0")
    worst, where = 0.0, None
    for n, (a, b) in enumerate(zip(traj_a, traj_b)):
        excess = a.values - b.values
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst, where = float(excess[j]), (n, j)
    return _report("monotone_ordering", worst, tol, where, traj_a, traj_b)


# -- cell entropy inequality ---------------------------------------------------


def kruzhkov_constants(state: GridState, n: int = 17, margin: float = 0.1) -> np.ndarray:
    """Uniform grid of Kruzhkov constants spanning the data range plus a margin.

    The per-cell entropy residual is piecewise linear in c between data
    values, so a modest uniform grid is a faithful probe.
    """
    lo = float(np.min(state.values)) - margin
    hi = float(np.max(state.values)) + margin
    return np.linspace(lo, hi, n)


def _window_extrema(ext: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Min and max over every run of ``size`` consecutive entries, by doubling."""
    lo, hi, width = ext, ext, 1
    while 2 * width <= size:
        lo, hi = np.minimum(lo[:-width], lo[width:]), np.maximum(hi[:-width], hi[width:])
        width *= 2
    n, shift = ext.size - size + 1, size - width
    return np.minimum(lo[:n], lo[shift : shift + n]), np.maximum(hi[:n], hi[shift : shift + n])


def _entropy_residual_matrix(
    state_n: GridState,
    state_np1: GridState,
    weights: QuadratureWeights,
    flux: TwoPointFlux,
    constants,
) -> np.ndarray:
    """Full residual matrix, one row per Kruzhkov constant, one column per cell.

    The q-sum is taken on the straddle set only, see :func:`entropy_residuals`.
    """
    _check_pair(state_n, weights)
    if state_n.n_cells != state_np1.n_cells or abs(state_n.dx - state_np1.dx) > 1e-12 * state_n.dx:
        raise ValueError("states live on different grids")
    dt = state_np1.time - state_n.time
    if not dt > 0.0:
        raise ValueError("states are not one step apart (need increasing times)")
    col = np.atleast_1d(np.asarray(constants, dtype=float))[:, None]
    pad = weights.n_terms
    ext = state_n.extended(pad)
    lo, hi = _window_extrema(ext, 2 * pad + 1)
    s = _stencil_sum(flux.shifted_pair_evaluator(ext), weights, np.zeros(state_n.n_cells))
    base = np.abs(state_np1.values - col) - np.abs(state_n.values - col)
    residual = base + dt * s  # exact for c <= lo, and on flat stencils, where S_j = 0
    rough = np.flatnonzero(~(lo == hi))  # non-flat stencils, and non-finite ones
    above = col >= hi[rough]
    flux_sum = np.where(above, -s[rough], s[rough])
    straddle = ~(above | (col <= lo[rough]))
    cells = rough[straddle.any(axis=0)]
    if cells.size:
        # gather the stencils of the straddling cells; runs of them stay contiguous
        rows = np.flatnonzero(straddle.any(axis=1))
        starts = np.bincount(cells, minlength=ext.size + 1)
        idx = np.flatnonzero(np.cumsum(starts - np.roll(starts, 2 * pad + 1)) > 0)
        # q(a, b; c) = g(a v c, b v c) - g(a ^ c, b ^ c) on the gathered stencils
        ev_hi = flux.shifted_pair_evaluator(np.maximum(ext[idx], col[rows]))
        ev_lo = flux.shifted_pair_evaluator(np.minimum(ext[idx], col[rows]))
        block = np.zeros((rows.size, idx.size - 2 * pad))
        block = _stencil_sum(lambda k: ev_hi(k) - ev_lo(k), weights, block)
        flux_sum[np.ix_(rows, np.searchsorted(rough, cells))] = block[:, np.searchsorted(idx, cells)]
    residual[:, rough] = base[:, rough] + dt * flux_sum
    return residual


def entropy_residuals(
    state_n: GridState,
    state_np1: GridState,
    weights: QuadratureWeights,
    flux: TwoPointFlux,
    constants,
) -> np.ndarray:
    """Worst cell entropy residual for each Kruzhkov constant.

    residual_j(c) = |u^{n+1}_j - c| - |u^n_j - c|
                    + dt * sum_k [q(u_j, u_{j+k}; c) - q(u_{j-k}, u_j; c)] W_k

    and entropy satisfaction means max_j residual_j(c) <= 0 up to round-off.
    Returns max_j residual_j(c) for every c in ``constants``.

    Lattice identity: if c >= max of u^n over cell j's stencil j-R..j+R
    (R = n_terms), every pair there has q(a, b; c) = g(c, c) - g(a, b), so the
    q-sum is exactly -S_j, where S_j = sum_k W_k [g(u_j, u_{j+k}) - g(u_{j-k}, u_j)]
    is the flux sum of ``step``; if c <= the stencil min it is +S_j.  Neither
    case reads u^{n+1}.  Only the straddle set, min < c < max, takes the q-sum.
    """
    matrix = _entropy_residual_matrix(state_n, state_np1, weights, flux, constants)
    return matrix.max(axis=1)


def cell_entropy_residual(
    state_n: GridState,
    state_np1: GridState,
    weights: QuadratureWeights,
    flux: TwoPointFlux,
    c: float,
) -> float:
    """Worst cell entropy residual for a single Kruzhkov constant."""
    return float(entropy_residuals(state_n, state_np1, weights, flux, [c])[0])


def check_entropy(
    trajectory: Sequence[GridState],
    weights: QuadratureWeights,
    flux: TwoPointFlux,
    constants=None,
) -> InvariantReport:
    """Cell entropy inequality over every step and every Kruzhkov constant.

    A step costs one flux sum S_j plus the q-sum on the straddle set; every
    other residual is |u^{n+1}_j - c| - |u^n_j - c| ∓ dt S_j exactly (in
    real arithmetic), see :func:`entropy_residuals`.
    """
    if constants is None:
        constants = kruzhkov_constants(trajectory[0])
    constants = np.atleast_1d(np.asarray(constants, dtype=float))
    scale = 1.0 + float(np.max(np.abs(trajectory[0].values)))
    tol = 1e-10 * scale
    worst, where = 0.0, None
    for n in range(len(trajectory) - 1):
        matrix = _entropy_residual_matrix(
            trajectory[n], trajectory[n + 1], weights, flux, constants
        )
        ic, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
        if matrix[ic, j] > worst:
            worst, where = float(matrix[ic, j]), (n + 1, int(j), float(constants[ic]))
    return _report("cell_entropy", worst, tol, where, trajectory)


def audit_trajectory(
    trajectory: Sequence[GridState], weights: QuadratureWeights, flux: TwoPointFlux
) -> list[InvariantReport]:
    """Max principle, TVD, conservation (periodic grids only) and cell entropy."""
    reports = [check_max_principle(trajectory), check_tvd(trajectory)]
    if trajectory[0].boundary == "periodic":
        reports.append(check_conservation(trajectory))
    reports.append(check_entropy(trajectory, weights, flux))
    return reports
