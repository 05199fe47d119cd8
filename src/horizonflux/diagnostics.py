"""Discrete norms and invariant checks, each producing a serializable verdict.

Every check is pure: it reads a trajectory (a list of states ordered in time)
and returns an :class:`InvariantReport` with the worst violation magnitude and
where it happened.  The audit bundle also runs as a ``run`` observer
(:func:`audit_stream`), which sees each state once and stores no trajectory.  Tolerances scale with (1 + data magnitude) so the verdicts
stay meaningful across problem scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fluxes import TwoPointFlux
from .kernels import QuadratureWeights
from .solver import GridState, _check_pair, _flux_sum, _stencil_sum

# The entropy audit works over blocks of B = max(1, _BLOCK_VALUES // (n + 2R))
# steps (n cells, R = n_terms): about 64 KiB of u^n values per block.
_BLOCK_VALUES = 8192

__all__ = [
    "AuditStream",
    "InvariantReport",
    "audit_stream",
    "audit_trajectory",
    "check_conservation",
    "check_entropy",
    "check_l1_contraction",
    "check_max_principle",
    "check_ordering",
    "check_tvd",
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


def _nonfinite(n, *states) -> tuple | None:
    """(n, the first non-finite cell of any of ``states``), or None if all are finite."""
    finite = [np.isfinite(s.values) for s in states]
    if all(f.all() for f in finite):
        return None
    return n, min(int(np.argmin(f)) for f in finite if not f.all())


def _first_nonfinite(*trajectories) -> tuple | None:
    for n, states in enumerate(zip(*trajectories)):
        bad = _nonfinite(n, *states)
        if bad is not None:
            return bad
    return None


def _first(*trajectories: Sequence[GridState]) -> GridState:
    """u^0 of the first trajectory.  The trajectories must be equally long and,
    like a streamed audit, hold at least one state."""
    if len({len(t) for t in trajectories}) > 1:
        raise ValueError("trajectories have different lengths")
    if len(trajectories[0]) == 0:
        raise ValueError("the audit saw no state")
    return trajectories[0][0]


def _report(name, violation, tolerance, location, bad=None) -> InvariantReport:
    """The verdict; ``bad``, the first non-finite (step, cell), fails it outright."""
    if bad is not None:
        violation, location = np.inf, bad
    violation = max(float(violation), 0.0)
    return InvariantReport(
        name=name,
        passed=violation <= tolerance and violation < np.inf,
        violation=violation,
        tolerance=float(tolerance),
        location=location,
    )


# -- norms -------------------------------------------------------------------


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


def _same_grid(a: GridState, b: GridState) -> None:
    if a.n_cells != b.n_cells or abs(a.dx - b.dx) > 1e-12 * a.dx:
        raise ValueError("states live on different grids")


def l1_distance(a: GridState, b: GridState) -> float:
    """dx * sum_j |a_j - b_j| for two states on the same grid."""
    _same_grid(a, b)
    return a.dx * float(np.sum(np.abs(a.values - b.values)))


# -- trajectory checks ---------------------------------------------------------
#
# Each check is a running reduction over the steps: it takes its bounds and
# tolerance from u^0, then sees u^1, u^2, ... one at a time, so the same code
# audits a stored list and a run in progress (see :class:`AuditStream`).


class _Check:
    """A running reduction: the worst excess so far and where it happened."""

    worst, where = 0.0, None

    def result(self) -> tuple:
        return self.name, self.worst, self.tol, self.where


class _MaxPrinciple(_Check):
    name = "max_principle"

    def __init__(self, u0: GridState):
        self.lo, self.hi = float(np.min(u0.values)), float(np.max(u0.values))
        self.tol = 1e-12 * (1.0 + max(abs(self.lo), abs(self.hi)))

    def observe(self, n: int, state: GridState) -> None:
        excess = np.maximum(state.values - self.hi, self.lo - state.values)
        j = int(np.argmax(excess))
        if excess[j] > self.worst:
            self.worst, self.where = float(excess[j]), (n, j)


class _TotalVariation(_Check):
    name = "tvd"

    def __init__(self, u0: GridState):
        self.last = total_variation(u0)
        self.tol = 1e-12 * (1.0 + self.last)

    def observe(self, n: int, state: GridState) -> None:
        tv = total_variation(state)
        if tv - self.last > self.worst:
            self.worst, self.where = tv - self.last, (n,)
        self.last = tv


class _Conservation(_Check):
    name = "conservation"

    def __init__(self, u0: GridState):
        if u0.boundary != "periodic":
            raise ValueError("conservation check requires a periodic grid")
        self.dx = u0.dx
        self.mass0 = self.dx * float(np.sum(u0.values))
        self.tol = 1e-13 * (1.0 + self.dx * float(np.sum(np.abs(u0.values))))

    def observe(self, n: int, state: GridState) -> None:
        drift = abs(self.dx * float(np.sum(state.values)) - self.mass0) / n
        if drift > self.worst:
            self.worst, self.where = drift, (n,)


class AuditStream:
    """Trajectory checks fed one state at a time, u^0 first; a ``run`` observer.

    Nothing but the checks' running reductions (and the entropy audit's block
    of at most B + 1 states) is kept, so a run audits in O(B n) memory.
    :meth:`finish` returns the reports; the first non-finite (step, cell)
    seen fails every one of them.  Built by :func:`audit_stream`.
    """

    def __init__(self, make_checks):
        self._make_checks = make_checks  # u^0 -> the checks
        self._checks = None
        self._n, self._bad = -1, None

    def __call__(self, state: GridState) -> None:
        self._n += 1
        self._bad = self._bad or _nonfinite(self._n, state)
        if self._checks is None:  # a non-finite u^0 fails every check, whatever its tolerance
            with np.errstate(invalid="ignore" if self._bad else None):
                self._checks = self._make_checks(state)
        elif self._bad is None:  # no check observes from the first non-finite state on
            for check in self._checks:
                check.observe(self._n, state)

    def finish(self) -> list[InvariantReport]:
        if self._checks is None:
            raise ValueError("the audit saw no state")
        return [_report(*check.result(), self._bad) for check in self._checks]


def _fed(stream: AuditStream, trajectory: Sequence[GridState]) -> list[InvariantReport]:
    for state in trajectory:
        stream(state)
    return stream.finish()


def check_max_principle(trajectory: Sequence[GridState]) -> InvariantReport:
    """Values must stay inside the initial data range at every step."""
    return _fed(AuditStream(lambda u0: [_MaxPrinciple(u0)]), trajectory)[0]


def check_tvd(trajectory: Sequence[GridState]) -> InvariantReport:
    """Total variation must not increase from one step to the next."""
    return _fed(AuditStream(lambda u0: [_TotalVariation(u0)]), trajectory)[0]


def check_conservation(trajectory: Sequence[GridState]) -> InvariantReport:
    """Total mass dx * sum_j u_j is constant on periodic grids.

    The per-step round-off budget is 1e-13 * scale, so the reported violation
    is the worst mass drift divided by the step count at which it occurred.
    """
    return _fed(AuditStream(lambda u0: [_Conservation(u0)]), trajectory)[0]


def check_l1_contraction(
    traj_a: Sequence[GridState], traj_b: Sequence[GridState]
) -> InvariantReport:
    """The discrete L1 distance of two runs must be non-increasing in time."""
    _first(traj_a, traj_b)
    bad = _first_nonfinite(traj_a, traj_b)
    if bad is not None:  # fails outright, before any inf - inf
        return _report("l1_contraction", np.inf, np.inf, None, bad)
    dists = [l1_distance(a, b) for a, b in zip(traj_a, traj_b)]
    tol = 1e-12 * (1.0 + dists[0])
    worst, where = 0.0, None
    for n in range(len(dists) - 1):
        growth = dists[n + 1] - dists[n]
        if growth > worst:
            worst, where = growth, (n + 1,)
    return _report("l1_contraction", worst, tol, where)


def check_ordering(
    traj_a: Sequence[GridState], traj_b: Sequence[GridState]
) -> InvariantReport:
    """If u0 <= v0 componentwise, the ordering must persist at every step."""
    u0, v0 = _first(traj_a, traj_b).values, traj_b[0].values
    tol = 1e-12 * (1.0 + max(float(np.max(np.abs(u0))), float(np.max(np.abs(v0)))))
    bad = _first_nonfinite(traj_a, traj_b)
    if bad is not None:  # fails outright, before any inf - inf
        return _report("monotone_ordering", np.inf, tol, None, bad)
    if np.any(u0 > v0 + tol):
        raise ValueError("initial data not ordered: need u0 <= v0")
    worst, where = 0.0, None
    for n, (a, b) in enumerate(zip(traj_a, traj_b)):
        excess = a.values - b.values
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst, where = float(excess[j]), (n, j)
    return _report("monotone_ordering", worst, tol, where)


# -- cell entropy inequality ---------------------------------------------------


def kruzhkov_constants(state: GridState) -> np.ndarray:
    """17 uniform Kruzhkov constants spanning the data range plus a 0.1 margin.

    A sample: for nonlinear f the per-cell entropy residual curves in c between
    data values, so its maximum can fall between two of these constants.
    """
    return np.linspace(float(np.min(state.values)) - 0.1, float(np.max(state.values)) + 0.1, 17)


def _entropy_tolerance(u0: GridState) -> float:
    return 1e-10 * (1.0 + float(np.max(np.abs(u0.values))))


def _as_constants(constants) -> np.ndarray:
    cs = np.atleast_1d(np.asarray(constants, dtype=float))
    if cs.ndim != 1 or cs.size == 0 or not np.all(np.isfinite(cs)):
        raise ValueError(f"constants must be a non-empty 1-D array of finite values, got {cs!r}")
    return cs


def _step_dt(state_n: GridState, state_np1: GridState, weights: QuadratureWeights) -> float:
    _check_pair(state_n, weights)
    _same_grid(state_n, state_np1)
    dt = state_np1.time - state_n.time
    if not dt > 0.0:
        raise ValueError("states are not one step apart (need increasing times)")
    return dt


def _window_extrema(ext: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Min and max over every run of ``size`` consecutive entries (last axis), by doubling."""
    lo, hi, width = ext, ext, 1
    while 2 * width <= size:
        lo = np.minimum(lo[..., :-width], lo[..., width:])
        hi = np.maximum(hi[..., :-width], hi[..., width:])
        width *= 2
    n, shift = ext.shape[-1] - size + 1, size - width
    return (
        np.minimum(lo[..., :n], lo[..., shift : shift + n]),
        np.maximum(hi[..., :n], hi[..., shift : shift + n]),
    )


def _residual(u0, u1, c, dt, flux_sum):
    """|u^{n+1}_j - c| - |u^n_j - c| + dt * (the q-sum of cell j)."""
    return np.abs(u1 - c) - np.abs(u0 - c) + dt * flux_sum


def _block_steps(n_cells: int, pad: int) -> int:
    return max(1, _BLOCK_VALUES // (n_cells + 2 * pad))


def _stencil_runs(keys: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions that the stencils k..k+2R of the sorted ``keys`` cover, in
    order, and where each stencil starts among them.

    Stencils less than one stencil width apart share a run, so a stencil sum
    over the gathered positions reads every stencil whole and no position twice.
    """
    width = 2 * pad + 1
    new_run = np.ones(keys.size, dtype=bool)
    new_run[1:] = np.diff(keys) > width
    first = keys[new_run]
    length = np.append(keys[np.flatnonzero(new_run)[1:] - 1], keys[-1]) + width - first
    start = np.cumsum(length) - length  # where each run begins among the positions
    run = np.cumsum(new_run) - 1
    positions = np.repeat(first - start, length) + np.arange(start[-1] + length[-1])
    return positions, keys - first[run] + start[run]


def _q_sums(vals: np.ndarray, c, weights: QuadratureWeights, flux: TwoPointFlux) -> np.ndarray:
    """sum_k W_k [q(v_j, v_{j+k}; c) - q(v_{j-k}, v_j; c)] over the 1-D ``vals``,
    whose R = n_terms entries at each end are ghosts.

    q(a, b; c) = g(a v c, b v c) - g(a ^ c, b ^ c), ``c`` per entry of ``vals``.
    Where g = A + B on the pairs of v v c and of v ^ c, q(a, b; c) = α(a) + β(b)
    with α = A(v v c) - A(v ^ c), β = B(v v c) - B(v ^ c); else the k-loop.
    """
    pad = weights.n_terms
    a_hi, b_hi, op_hi = flux.additive_halves(np.maximum(vals, c), pad)
    a_lo, b_lo, op_lo = flux.additive_halves(np.minimum(vals, c), pad)
    if op_hi is np.add and op_lo is np.add:
        return _flux_sum(a_hi - a_lo, b_hi - b_lo, np.add, weights)
    pair = lambda k: op_hi(a_hi[:-k], b_hi[k:]) - op_lo(a_lo[:-k], b_lo[k:])
    return _stencil_sum(pair, weights, vals.size - 2 * pad)


def check_entropy(
    trajectory: Sequence[GridState],
    weights: QuadratureWeights,
    flux: TwoPointFlux,
    constants=None,
) -> InvariantReport:
    """Cell entropy inequality over every step and every Kruzhkov constant.

    residual_j(c) = |u^{n+1}_j - c| - |u^n_j - c|
                    + dt * sum_k [q(u_j, u_{j+k}; c) - q(u_{j-k}, u_j; c)] W_k

    and entropy satisfaction means residual_j(c) <= 0 up to round-off for
    every step, cell j and c.  ``constants`` defaults to
    :func:`kruzhkov_constants` of the first state; given ones must form a
    non-empty 1-D array of finite values.  A non-finite state fails the audit
    at its first (step, cell) before any residual is computed.

    Lattice identity: if c >= max of u^n over cell j's stencil j-R..j+R
    (R = n_terms), every pair there has q(a, b; c) = g(c, c) - g(a, b), so the
    q-sum is exactly -S_j, where S_j = sum_k W_k [g(u_j, u_{j+k}) - g(u_{j-k}, u_j)]
    is the flux sum of ``step``; if c <= the stencil min it is +S_j.  Neither
    case reads u^{n+1}.  Only the straddle set, min < c < max, takes the q-sum.

    Only a few constants can therefore hold cell j's largest residual.  At or
    above the stencil max M_j the identity gives
    residual_j(c) = |u^{n+1}_j - c| - (c - u^n_j) - dt S_j, nonincreasing in c;
    at or below the stencil min m_j, |u^{n+1}_j - c| - (u^n_j - c) + dt S_j,
    nondecreasing in c.  So in real arithmetic cell j's maximum is at the
    smallest constant >= M_j, the largest constant <= m_j, or a straddling
    constant m_j < c < M_j, which takes the q-sum.  The two side constants
    come from a ``searchsorted`` on the sorted constants, and no constants x
    cells matrix is built.  A cell whose stencil is flat and whose value the
    step left unchanged has residual exactly 0 at every c (S_j = 0), so only
    the other cells are probed.

    Steps go in blocks of B = max(1, 8192 // (n + 2R)) (n cells, R = n_terms),
    so a block's dozen or so B x (n + 2R) arrays stay near 64 KiB each
    whatever the grid, and small grids pay the per-block numpy calls once
    for many steps.  One gather serves S_j and the q-sums: the stencils that
    need a sum are keyed by where they start in the block's extended rows (one
    copy of the rows per constant for the q-sums), the runs of positions they
    cover are gathered into one 1-D array, and one flux sum runs over it: two
    correlations of split halves as in ``step``, or the k-loop for Godunov
    with a transonic pair in reach (see :func:`_q_sums`).  S_j is taken only
    on non-flat stencils, and the q-sum only on straddling (constant, step,
    cell) triples, so a block's gathered arrays hold at most C x B x (n + 2R)
    values (C constants), no more than C x 8192 unless a single extended row
    is longer.  In floating point the reduction may miss the full matrix's
    maximum by round-off.  Ties go to the earliest step, then the lowest
    cell, then the smallest constant.
    """
    tol = _entropy_tolerance(_first(trajectory))
    cs = None if constants is None else _as_constants(constants)
    dts = [_step_dt(a, b, weights) for a, b in zip(trajectory[:-1], trajectory[1:])]
    bad = _first_nonfinite(trajectory)
    if bad is not None:  # fails outright, before any inf - inf
        return _report("cell_entropy", np.inf, tol, None, bad)
    cs = np.sort(kruzhkov_constants(trajectory[0]) if cs is None else cs)
    cs = cs[np.append(True, cs[1:] > cs[:-1])]  # distinct
    last = cs.size - 1
    n, pad = trajectory[0].n_cells, weights.n_terms
    block = _block_steps(n, pad)
    worst, where = 0.0, None
    for b0 in range(0, len(trajectory) - 1, block):
        states = trajectory[b0 : b0 + block + 1]
        dt = np.array(dts[b0 : b0 + block])[:, None]
        ext = np.stack([state.extended(pad) for state in states[:-1]])
        flat, width = ext.ravel(), ext.shape[1]  # stencil k reads flat[k : k + 2R + 1]
        u0, u1 = ext[:, pad : pad + n], np.stack([state.values for state in states[1:]])
        lo, hi = _window_extrema(ext, 2 * pad + 1)
        # a flat stencil that the step left unchanged has residual 0 at every c
        cols = np.flatnonzero(~((lo == hi) & (u0 == u1)).all(axis=0))
        if cols.size == 0:
            continue
        u0, u1, lo, hi = (a[:, cols] for a in (u0, u1, lo, hi))
        s = np.zeros(lo.shape)  # S_j, exactly 0 on a flat stencil
        rows, cells = np.nonzero(lo != hi)
        if rows.size:
            pos, at = _stencil_runs(rows * width + cols[cells], pad)
            s[rows, cells] = _flux_sum(*flux.additive_halves(flat[pos], pad), weights)[at]
        above = np.searchsorted(cs, hi)  # the smallest constant >= the stencil max
        below = np.searchsorted(cs, lo, side="right") - 1  # the largest one <= the stencil min
        c_below, c_above = cs[np.maximum(below, 0)], cs[np.minimum(above, last)]
        sides = (  # each cell's residual at its two side constants
            np.where(below >= 0, _residual(u0, u1, c_below, dt, s), -np.inf),
            np.where(above <= last, _residual(u0, u1, c_above, dt, -s), -np.inf),
        )
        best = np.maximum(*sides)
        # the straddling (constant, row, cell) triples, constant i = cs[ic[i]]
        # keyed into its own copy of ext, which starts at flat position i * ext.size
        ic = np.arange(below.min() + 1, above.max())
        i, rows, cells = np.nonzero((below < ic[:, None, None]) & (ic[:, None, None] < above))
        c, res = cs[ic[i]], np.empty(0)
        if i.size:
            pos, at = _stencil_runs(i * ext.size + rows * width + cols[cells], pad)
            q = _q_sums(flat[pos % ext.size], cs[ic[pos // ext.size]], weights, flux)
            res = _residual(u0[rows, cells], u1[rows, cells], c, dt[rows, 0], q[at])
            np.maximum.at(best, (rows, cells), res)
        b, j = np.unravel_index(int(np.argmax(best)), best.shape)
        if best[b, j] > worst:
            worst = float(best[b, j])
            at_sides = ((c_below[b, j], sides[0][b, j]), (c_above[b, j], sides[1][b, j]))
            reached = [cb for cb, rb in at_sides if rb == worst]
            reached += list(c[(res == worst) & (rows == b) & (cells == j)])
            where = (b0 + int(b) + 1, int(cols[j]), float(min(reached)))
    return _report("cell_entropy", worst, tol, where)


class _CellEntropy(_Check):
    """:func:`check_entropy` on blocks of B + 1 states, with u^0's constants."""

    name = "cell_entropy"

    def __init__(self, u0: GridState, weights: QuadratureWeights, flux: TwoPointFlux):
        self.weights, self.flux = weights, flux
        self.tol = _entropy_tolerance(u0)
        finite = np.all(np.isfinite(u0.values))  # if not, the stream fails it
        self.constants = kruzhkov_constants(u0) if finite else None
        self.size = _block_steps(u0.n_cells, weights.n_terms) + 1
        self.block, self.start = [u0], 0

    def observe(self, n: int, state: GridState) -> None:
        self.block.append(state)
        if len(self.block) == self.size:
            self._flush()

    def _flush(self) -> None:
        if len(self.block) > 1 and self.constants is not None:
            rep = check_entropy(self.block, self.weights, self.flux, self.constants)
            if rep.violation > self.worst:  # strict: the earliest step keeps a tie
                step, *rest = rep.location
                self.worst, self.where = rep.violation, (self.start + step, *rest)
        self.start += len(self.block) - 1
        self.block = self.block[-1:]

    def result(self) -> tuple:
        self._flush()
        return super().result()


def _bundle(u0: GridState, weights: QuadratureWeights, flux: TwoPointFlux) -> list:
    checks = [_MaxPrinciple(u0), _TotalVariation(u0)]
    if u0.boundary == "periodic":
        checks.append(_Conservation(u0))
    return checks + [_CellEntropy(u0, weights, flux)]


def audit_stream(weights: QuadratureWeights, flux: TwoPointFlux) -> AuditStream:
    """The audit bundle of :func:`audit_trajectory` as a ``run`` observer.

    Pass it as ``run(..., observer=audit)``, then ``audit.finish()`` returns the
    reports that ``audit_trajectory`` gives on the stored trajectory.
    """
    return AuditStream(lambda u0: _bundle(u0, weights, flux))


def audit_trajectory(
    trajectory: Sequence[GridState], weights: QuadratureWeights, flux: TwoPointFlux
) -> list[InvariantReport]:
    """Max principle, TVD, conservation (periodic grids only) and cell entropy."""
    return _fed(audit_stream(weights, flux), trajectory)
