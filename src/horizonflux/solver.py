"""Grid state, cell averaging, the wide-stencil forward step, and run orchestration.

The update reads

    u_j^{n+1} = u_j^n - dt * sum_{k=1}^{max(r,1)} [g(u_j, u_{j+k}) - g(u_{j-k}, u_j)] W_k

with the weights of :mod:`horizonflux.kernels`.  ``step_conservative_form``
computes the same update through a wide numerical flux (a telescoped double
sum), which certifies discrete conservation and is used as a cross-check.

``step`` takes the sum over k as two correlations whenever g(a, b) splits as
A(a) + B(b) on the stencils (one when a half is exactly 0), and otherwise in
blocks of shifts, two matrix-vector products per block (see
:meth:`~horizonflux.fluxes.TwoPointFlux.stencil_sum`).  It sums only the cells
whose stencil reaches a change between neighbouring values; a flat stencil
sums to exactly 0, so every other cell keeps its value, bit for bit.  On either
path a cell's bits depend on its stencil alone, so on one machine and numpy
build runs are bit-reproducible regardless of how callers parallelize
independent runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fluxes import TwoPointFlux
from .kernels import Kernel, QuadratureWeights, compute_weights

__all__ = [
    "BOUNDARY_MODES",
    "CflViolationError",
    "GridState",
    "SchemeConfig",
    "cell_average_init",
    "run",
    "step",
    "step_conservative_form",
    "validate_cfl",
    "wide_numerical_flux",
]

BOUNDARY_MODES = ("periodic", "constant_extension")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


class CflViolationError(ValueError):
    """Raised when a mesh ratio violates the monotonicity time-step bound."""


@dataclass
class GridState:
    """Cell averages on a uniform grid; cell j covers [x0 + j dx, x0 + (j+1) dx).

    Cells are half-open on the right, so a point sitting exactly on an edge
    belongs to the cell to its right.  ``constant_extension`` ghost reads
    return the nearest edge value; ``periodic`` reads wrap around.
    """

    dx: float
    x0: float
    values: np.ndarray
    boundary: str = "periodic"
    time: float = 0.0

    def __post_init__(self):
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(
                f"unknown boundary mode {self.boundary!r}; valid: "
                + ", ".join(BOUNDARY_MODES)
            )
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a nonempty 1-D array")

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def x_right(self) -> float:
        return self.x0 + self.n_cells * self.dx

    @property
    def centers(self) -> np.ndarray:
        return self.x0 + (np.arange(self.n_cells) + 0.5) * self.dx

    def extended(self, pad: int, out: np.ndarray | None = None) -> np.ndarray:
        """Values with ``pad`` ghost cells on each side per the boundary mode, a new
        array or written into ``out``.  Filled by slices, a gather only when
        periodic ghosts wrap more than once."""
        n, values, periodic = self.n_cells, self.values, self.boundary == "periodic"
        if periodic and pad > n:
            return values.take(np.arange(-pad, n + pad), mode="wrap", out=out)
        out = np.empty(n + 2 * pad) if out is None else out
        out[pad : pad + n] = values
        if periodic:
            out[:pad], out[pad + n :] = values[n - pad :], values[:pad]
        else:
            out[:pad], out[pad + n :] = values[0], values[-1]
        return out


@dataclass(frozen=True)
class SchemeConfig:
    """Kernel, flux, fixed mesh ratio dt/dx, and final time.

    The mesh ratio is held fixed under grid refinement; ``validate_cfl``
    checks dt sum_k W_k step_speed <= 1, dt = mesh_ratio * dx, on the box of
    the initial cell averages, which by the maximum principle then holds for
    the whole run.
    """

    kernel: Kernel
    flux: TwoPointFlux
    mesh_ratio: float
    final_time: float

    def __post_init__(self):
        if not (math.isfinite(self.mesh_ratio) and self.mesh_ratio > 0.0):
            raise ValueError(f"mesh_ratio must be positive, got {self.mesh_ratio}")
        if not (math.isfinite(self.final_time) and self.final_time >= 0.0):
            raise ValueError(f"final_time must be nonnegative, got {self.final_time}")


def _integer(value, name: str) -> int:
    """``value`` as an int, or a ValueError; a bool is not a count."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def cell_average_init(
    u0: Callable,
    *,
    dx: float,
    x0: float,
    n_cells: int,
    boundary: str = "periodic",
    breakpoints: Sequence[float] | None = None,
) -> GridState:
    """Initialize a grid with exact-or-Gauss cell averages of ``u0``.

    Smooth data is averaged with 5-point Gauss quadrature per cell (exact for
    polynomials up to degree nine).  Known discontinuity locations, passed in
    ``breakpoints`` or carried by ``u0.breakpoints``, split the affected cells
    into smooth sub-intervals first, so piecewise-polynomial data (Riemann
    data in particular) is averaged exactly no matter how the jumps sit
    relative to cell edges.
    """
    n_cells = _integer(n_cells, "n_cells")
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    # the grid first, so dx, x0 and the boundary are checked before any averaging
    grid = GridState(dx=dx, x0=x0, values=np.empty(n_cells), boundary=boundary)
    fn = u0
    probe = np.array([x0 + 0.5 * dx, x0 + 1.5 * dx])
    try:
        out = np.asarray(fn(probe), dtype=float)
        if out.shape != probe.shape:
            raise TypeError
    except Exception:
        fn = np.vectorize(u0, otypes=[float])

    nodes = grid.centers[:, None] + (0.5 * dx) * _GL_NODES[None, :]
    avg = np.asarray(fn(nodes), dtype=float) @ (0.5 * _GL_WEIGHTS)

    if breakpoints is None:
        breakpoints = getattr(u0, "breakpoints", None)
    if breakpoints is not None:
        jumps = np.atleast_1d(np.asarray(breakpoints, dtype=float)).tolist()
        if not all(math.isfinite(p) for p in jumps):
            raise ValueError(f"breakpoints must be finite, got {jumps}")
        cuts: dict[int, list[float]] = {}  # cell -> its left edge and its jumps, sorted
        for p in sorted(set(jumps)):
            j = int(math.floor((p - x0) / dx))
            # a jump on an edge splits nothing
            if 0 <= j < n_cells and x0 + j * dx < p < x0 + (j + 1) * dx:
                cuts.setdefault(j, [x0 + j * dx]).append(p)
        for j, points in cuts.items():
            points.append(x0 + (j + 1) * dx)
            total = 0.0
            for a, b in zip(points[:-1], points[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                total += half * float(np.dot(fn(mid + half * _GL_NODES), _GL_WEIGHTS))
            avg[j] = total / dx

    if not np.all(np.isfinite(avg)):
        raise ValueError("initial data produced non-finite cell averages")
    grid.values = avg
    return grid


def _cfl_number(flux: TwoPointFlux, weights: QuadratureWeights, dt, lo, hi):
    """dt sum_k W_k step_speed(lo, hi) per box [lo, hi]: where it is <= 1, a step of size
    dt is monotone in each value of a stencil inside the box.  :func:`validate_cfl`
    reads it on the data box, the entropy audit on each stencil box."""
    return dt * weights.weights.sum() * flux.step_speed(lo, hi)


def validate_cfl(
    flux: TwoPointFlux, weights: QuadratureWeights, mesh_ratio: float, box_lo: float,
    box_hi: float,
) -> None:
    """Reject a mesh ratio whose step is not certified monotone on the data box:
    require :func:`_cfl_number` <= 1 (up to 1e-12) with dt = mesh_ratio * weights.dx,
    that is dt/dx <= 1 / (dx sum_k W_k step_speed), and lf_lambda * max|f'| <= 1 for
    Lax-Friedrichs.  By the maximum principle every later stencil box lies inside
    the data box, so the entropy audit certifies every step of the run."""
    if not box_lo <= box_hi:
        raise ValueError(f"data box [{box_lo:g}, {box_hi:g}] needs box_lo <= box_hi")
    number = _cfl_number(flux, weights, mesh_ratio * weights.dx, box_lo, box_hi)
    if number <= 1.0 + 1e-12:
        return
    speed = flux.step_speed(box_lo, box_hi)
    if speed == math.inf:
        raise CflViolationError(
            f"lax_friedrichs parameter {flux.lf_lambda:g} is not monotone on data box "
            f"[{box_lo:g}, {box_hi:g}]: need lf_lambda * max|f'| <= 1"
        )
    raise CflViolationError(
        f"mesh ratio {mesh_ratio:g} violates dt*sum_k W_k*step_speed <= 1 on data box "
        f"[{box_lo:g}, {box_hi:g}]: dx*sum_k W_k={weights.dx * weights.weights.sum():g}, "
        f"step_speed={speed:g}, require dt/dx <= {mesh_ratio / number:g}"
    )


def _check_pair(state: GridState, weights: QuadratureWeights) -> None:
    if abs(weights.dx - state.dx) > 1e-12 * max(state.dx, weights.dx):
        raise ValueError(
            f"weights built for dx={weights.dx!r} applied to grid with dx={state.dx!r}"
        )


def _advanced(state: GridState, values: np.ndarray, dt: float) -> GridState:
    """The state after a step of ``dt`` from ``state``: same grid, new values."""
    return GridState(
        dx=state.dx,
        x0=state.x0,
        values=values,
        boundary=state.boundary,
        time=state.time + dt,
    )


def step(
    state: GridState, weights: QuadratureWeights, flux: TwoPointFlux, dt: float
) -> GridState:
    """One forward-in-time update of the wide-stencil scheme.

    Reads R = max(r, 1) ghost cells per side.  A flat stencil sums to exactly
    +0.0, so only the cells whose stencil reaches the span of the extended row
    where neighbours differ are summed, from its first change - 2R to its last
    change + 2R; every other cell keeps u^n, which is u^n - dt * 0.  A
    transonic pair lies inside that span, so the sub-row takes the same path
    as the whole row.  When g(a, b) = A(a) + B(b) holds on every pair of the
    stencils (always but for Godunov with a transonic pair within R cells),
    the flux sum is two correlations with R weights, one when a half is
    exactly 0: O(n_cells * R) arithmetic in a fixed number of numpy calls.
    Otherwise it is summed in blocks of 16 shifts over chunks of up to 4096
    cells, two matrix-vector products per block.  Both are
    :meth:`TwoPointFlux.stencil_sum`.
    """
    _check_pair(state, weights)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    pad = weights.n_terms
    ext = state.extended(pad)
    # one byte per neighbour pair, 1 where they differ (a NaN differs from itself)
    change = (ext[1:] != ext[:-1]).tobytes()
    first = change.find(1)  # find and rfind stop at the first hit
    values = state.values.copy()
    if first >= 0:
        lo = max(first + 1 - 2 * pad, 0)
        hi = min(change.rfind(1) + 1 + 2 * pad, ext.size)
        values[lo : hi - 2 * pad] -= dt * flux.stencil_sum(ext[lo:hi], weights.weights)
    return _advanced(state, values, dt)


def wide_numerical_flux(
    state: GridState, weights: QuadratureWeights, flux: TwoPointFlux
) -> np.ndarray:
    """Edge fluxes F[0..n] of the conservative rewrite; F[j] sits at edge j-1/2.

    F[j] = sum_k W_k dx sum_{l=1}^{k} g(u_{j-l}, u_{j-l+k}), a double sum whose
    telescoping difference reproduces the plain step exactly.  On a constant
    state every entry equals f(c), the consistency identity of the wide flux.
    """
    _check_pair(state, weights)
    n = state.n_cells
    pad = weights.n_terms
    ext = state.extended(pad)
    w = weights.weights
    dx = state.dx
    pair = flux.shifted_pair_evaluator(ext)
    f_edges = np.zeros(n + 1)
    for k in range(1, pad + 1):
        gk = pair(k)
        sk = np.zeros(n + 1)
        for l in range(1, k + 1):
            sk += gk[pad - l : pad - l + n + 1]
        f_edges += sk * (w[k - 1] * dx)
    return f_edges


def step_conservative_form(
    state: GridState, weights: QuadratureWeights, flux: TwoPointFlux, dt: float
) -> GridState:
    """The same update as :func:`step`, computed through the wide edge flux."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    f_edges = wide_numerical_flux(state, weights, flux)
    lam = dt / state.dx
    return _advanced(state, state.values - lam * (f_edges[1:] - f_edges[:-1]), dt)


def _full_steps(final_time: float, dt: float) -> int:
    """The whole steps of ``dt`` in ``final_time``: at most 2**53, so that the count
    and every step time (i + 1) * dt stay exact integers times dt."""
    if not (dt > 0.0 and math.isfinite(final_time / dt)):
        raise ValueError(f"final_time / dt = {final_time} / {dt} is not a finite step count")
    if final_time / dt > 2.0**53:
        raise ValueError(f"final_time / dt = {final_time} / {dt} = {final_time / dt:.4g} "
                         "steps, more than 2**53")
    return int(math.floor(final_time / dt + 1e-12))


def run(
    config: SchemeConfig,
    u0: Callable,
    *,
    x0: float,
    dx: float,
    n_cells: int,
    boundary: str = "periodic",
    output_times: Sequence[float] | None = None,
    enforce_cfl: bool = True,
    breakpoints: Sequence[float] | None = None,
    observer: Callable[[GridState], None] | None = None,
) -> list[GridState]:
    """March the scheme to ``config.final_time`` with fixed dt = mesh_ratio * dx.

    The final step is shortened to land exactly on the final time (shortening
    only tightens the CFL bound, so it preserves every monotone-scheme
    property).  Output times must lie in [0, final_time]; the returned list
    holds, for each of them (default 0 and final_time), the state whose time
    cell [t_n, t_{n+1}) contains it.  ``observer``, if given, is called with
    u^0 and then with each new state once its time is set and its values are
    checked finite: it audits a run without the trajectory being stored (see
    :func:`horizonflux.diagnostics.audit_stream`), and ``observer=states.append``
    keeps every state.

    Raises ValueError up front when final_time / dt is not finite or exceeds 2**53
    steps, CflViolationError when ``enforce_cfl`` is set and the mesh ratio is too
    large for the initial data box, and RuntimeError with the step index if the
    solution stops being finite.
    """
    weights = compute_weights(config.kernel, dx)
    dt = config.mesh_ratio * dx
    t_end = config.final_time
    n_full = _full_steps(t_end, dt)
    state = cell_average_init(
        u0, dx=dx, x0=x0, n_cells=n_cells, boundary=boundary, breakpoints=breakpoints
    )
    if enforce_cfl:
        validate_cfl(
            config.flux,
            weights,
            config.mesh_ratio,
            float(np.min(state.values)),
            float(np.max(state.values)),
        )

    remainder = t_end - n_full * dt
    if remainder <= 1e-12 * max(1.0, t_end):
        remainder = 0.0

    targets = sorted({0.0, t_end} if output_times is None else {float(t) for t in output_times})
    for t in targets:
        if not -1e-12 <= t <= t_end + 1e-9 * max(1.0, t_end):  # NaN fails too
            raise ValueError(f"output time {t} outside [0, {t_end}]")
    if observer is not None:
        observer(state)
    snapshots: list[GridState] = []
    ptr = 0
    eps = 1e-9 * max(dt, 1e-300)

    total_steps = n_full + (1 if remainder > 0.0 else 0)
    for i in range(total_steps):
        dt_i = dt if i < n_full else remainder
        t_next = (i + 1) * dt if i + 1 < total_steps else t_end
        while ptr < len(targets) and targets[ptr] < t_next - eps:
            snapshots.append(state)
            ptr += 1
        state = step(state, weights, config.flux, dt_i)
        state.time = t_next
        if not np.all(np.isfinite(state.values)):
            raise RuntimeError(f"non-finite solution values after step {i + 1}")
        if observer is not None:
            observer(state)
    while ptr < len(targets):
        snapshots.append(state)
        ptr += 1

    return snapshots
