"""Discrete norms and invariant checks, each producing a serializable verdict.

Every check is pure: it reads a trajectory (a list of states ordered in time)
and returns an :class:`InvariantReport` with the worst violation magnitude and
where it happened.  The audit bundle also runs as a ``run`` observer
(:func:`audit_stream`), which writes each state once into a block of rows and
stores no trajectory; a list is fed through the same stream.  Tolerances scale
with (1 + data magnitude) so the verdicts stay meaningful across problem scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fluxes import TwoPointFlux
from .kernels import QuadratureWeights
from .solver import GridState, _cfl_number, _check_pair

# The audit stream works over blocks of B = max(1, _BLOCK_VALUES // (n + 2R))
# steps (n cells, R = n_terms): about 64 KiB of u^n values per block.
_BLOCK_VALUES = 8192

__all__ = [
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
    "total_variation",
]


@dataclass(frozen=True)
class InvariantReport:
    """Verdict of one invariant check.

    ``violation`` is the worst observed excess over the invariant (clamped at
    zero), ``location`` identifies where it occurred: (step,), (step, cell),
    or (step, cell, c) for entropy checks with a Kruzhkov constant.  A
    non-finite value fails a trajectory check: inf at its first (step, cell),
    in either run for the two-run checks.  ``counts`` holds the entropy
    audit's work counters (see :func:`audit_stream`), None on every other
    check; it is left out of :meth:`as_dict` and of equality.
    """

    name: str
    passed: bool
    violation: float
    tolerance: float
    location: tuple | None = None
    counts: dict | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "violation": float(self.violation),
            "tolerance": float(self.tolerance),
            "location": None if self.location is None else list(self.location),
        }


def _worst(excess: np.ndarray, first: int) -> tuple[float, tuple | None]:
    """The largest entry of ``excess`` (one row per step, from step ``first`` on;
    2-D if by cell), clamped at 0, and its (step, *cell), or None if no entry is
    positive.  Its first occurrence counts, so a tie keeps the earliest step,
    then the lowest cell."""
    i = int(np.argmax(excess))
    if not excess.flat[i] > 0.0:
        return 0.0, None
    step, *cell = np.unravel_index(i, excess.shape)
    return float(excess.flat[i]), (first + int(step), *(int(j) for j in cell))


def _first_bad(finite: np.ndarray, first: int) -> tuple | None:
    """The first (step, cell) where the rows ``finite`` (one per step, from step
    ``first`` on) are False, or None if they are all True."""
    return _worst(~finite, first)[1]


def _report(name, violation, tolerance, location, bad=None, counts=None) -> InvariantReport:
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
        counts=None if counts is None else dict(counts),
    )


# -- norms -------------------------------------------------------------------


def _tv_rows(u: np.ndarray, periodic: bool) -> np.ndarray:
    """sum_j |u_{j+1} - u_j| along the last axis, plus |u_0 - u_{n-1}| if periodic."""
    tv = np.abs(np.diff(u, axis=-1)).sum(axis=-1)
    if periodic:
        tv += np.abs(u[..., 0] - u[..., -1])
    return tv


def total_variation(state: GridState) -> float:
    """sum_j |u_{j+1} - u_j| (no dx factor); wraps around on periodic grids.

    With constant extension the ghost differences vanish, so only interior
    jumps contribute.
    """
    return float(_tv_rows(state.values, state.boundary == "periodic"))


def _same_grid(a: GridState, b: GridState) -> None:
    """Same cells, spacing, left edge and boundary mode, or a ValueError."""
    if (a.n_cells != b.n_cells or a.boundary != b.boundary
            or abs(a.dx - b.dx) > 1e-12 * a.dx or abs(a.x0 - b.x0) > 1e-12 * a.dx):
        raise ValueError("states live on different grids")


# -- trajectory checks ---------------------------------------------------------
#
# Each check is a running reduction over the steps: it takes its bounds and
# tolerance from u^0, then sees the later states a block at a time, so the same
# code audits a stored list and a run in progress (see :class:`AuditStream`).
# ``observe(first, values, ext, times)`` gets B + 1 consecutive states, u^first
# to u^{first+B}: their values as rows, the same rows with R ghost cells per
# side, and their times; u^first was the last state of the previous block.


class _Check:
    """A running reduction: the worst excess so far and where it happened."""

    worst, where, counts = 0.0, None, None

    def _fold(self, first: int, excess: np.ndarray) -> None:
        """Keep the :func:`_worst` of ``excess`` if it beats the worst so far."""
        worst, where = _worst(excess, first)
        if worst > self.worst:
            self.worst, self.where = worst, where

    def result(self) -> tuple:
        return self.name, self.worst, self.tol, self.where


class _MaxPrinciple(_Check):
    name = "max_principle"

    def __init__(self, u0: GridState):
        self.lo, self.hi = float(np.min(u0.values)), float(np.max(u0.values))
        self.tol = 1e-12 * (1.0 + max(abs(self.lo), abs(self.hi)))

    def observe(self, first: int, values: np.ndarray, *_) -> None:
        u = values[1:]
        self._fold(first + 1, np.maximum(u - self.hi, self.lo - u))


class _TotalVariation(_Check):
    name = "tvd"

    def __init__(self, u0: GridState):
        self.last = total_variation(u0)
        self.tol = 1e-12 * (1.0 + self.last)
        self.periodic = u0.boundary == "periodic"

    def observe(self, first: int, values: np.ndarray, *_) -> None:
        tv = _tv_rows(values[1:], self.periodic)  # row by row, as total_variation sums
        self._fold(first + 1, np.diff(tv, prepend=self.last))
        self.last = tv[-1]


class _Conservation(_Check):
    name = "conservation"

    def __init__(self, u0: GridState):
        if u0.boundary != "periodic":
            raise ValueError("conservation check requires a periodic grid")
        self.dx = u0.dx
        self.mass0 = self.dx * float(np.sum(u0.values))
        self.tol = 1e-13 * (1.0 + self.dx * float(np.sum(np.abs(u0.values))))

    def observe(self, first: int, values: np.ndarray, *_) -> None:
        steps = np.arange(first + 1, first + len(values))
        self._fold(first + 1, np.abs(self.dx * values[1:].sum(axis=1) - self.mass0) / steps)


class AuditStream:
    """Trajectory checks fed one state at a time, u^0 first; a ``run`` observer.

    Each state is written once, with ``pad`` ghost cells per side, into a
    preallocated block of B + 1 rows (B = max(1, 8192 // (n + 2 pad)) steps);
    when the block is full every check reduces it at once, and its last row
    starts the next block.  Nothing else is kept but the checks' running
    reductions, so a run audits in O(B n) memory.  :meth:`finish` returns the
    reports; the first non-finite (step, cell) seen fails every one of them,
    and the entropy report carries its audit's work counters.  Built by
    :func:`audit_stream`.
    """

    def __init__(self, make_checks, pad: int = 0):
        self._make_checks = make_checks  # u^0 -> the checks
        self._pad = pad
        self._checks = None
        self._bad = None

    def __call__(self, state: GridState) -> None:
        if self._checks is None:
            self._start(state)
        elif self._bad is None:  # no check observes from the first non-finite state on
            _same_grid(self._u0, state)
            state.extended(self._pad, out=self._ext[self._rows])
            self._times[self._rows] = state.time
            self._rows += 1
            if self._rows == len(self._ext):
                self._flush()

    def _start(self, u0: GridState) -> None:
        self._bad = _first_bad(np.isfinite(u0.values[None]), 0)
        with np.errstate(invalid="ignore" if self._bad else None):  # a non-finite u^0
            self._checks = self._make_checks(u0)  # fails every check, whatever its tolerance
        n, pad = u0.n_cells, self._pad
        self._u0, self._first, self._rows = u0, 0, 1
        self._ext = np.empty((_block_steps(n, pad) + 1, n + 2 * pad))
        u0.extended(pad, out=self._ext[0])
        self._times = np.full(len(self._ext), u0.time)

    def _flush(self) -> None:
        """Reduce the states of the block, then start the next one from its last."""
        rows, pad, n = self._rows, self._pad, self._u0.n_cells
        ext = self._ext[:rows]
        values = ext[:, pad : pad + n]
        self._bad = _first_bad(np.isfinite(values[1:]), self._first + 1)
        if self._bad is not None:
            return
        for check in self._checks:
            check.observe(self._first, values, ext, self._times[:rows])
        self._ext[0], self._times[0] = ext[-1], self._times[rows - 1]
        self._first, self._rows = self._first + rows - 1, 1

    def finish(self) -> list[InvariantReport]:
        if self._checks is None:
            raise ValueError("the audit saw no state")
        if self._bad is None and self._rows > 1:
            self._flush()
        return [_report(*check.result(), self._bad, check.counts) for check in self._checks]


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


def _paired(
    traj_a: Sequence[GridState], traj_b: Sequence[GridState]
) -> tuple[np.ndarray, np.ndarray]:
    """The two runs' values as rows, one per step.  The runs must be equally
    long and hold at least one state, each on the grid of the first run's u^0."""
    if len(traj_a) != len(traj_b):
        raise ValueError("trajectories have different lengths")
    if len(traj_a) == 0:
        raise ValueError("the audit saw no state")
    for state in (*traj_a, *traj_b):
        _same_grid(traj_a[0], state)
    return np.stack([s.values for s in traj_a]), np.stack([s.values for s in traj_b])


def check_l1_contraction(
    traj_a: Sequence[GridState], traj_b: Sequence[GridState]
) -> InvariantReport:
    """The discrete L1 distance of two runs must be non-increasing in time."""
    u, v = _paired(traj_a, traj_b)
    bad = _first_bad(np.isfinite(u) & np.isfinite(v), 0)
    if bad is not None:  # fails outright, before any inf - inf
        return _report("l1_contraction", np.inf, np.inf, None, bad)
    # dx * sum_j |u_j - v_j| row by row, each row with its own dx
    dists = np.array([a.dx for a in traj_a]) * np.abs(u - v).sum(axis=-1)
    worst, where = _worst(np.diff(dists, prepend=dists[0]), 0)
    return _report("l1_contraction", worst, 1e-12 * (1.0 + dists[0]), where)


def check_ordering(
    traj_a: Sequence[GridState], traj_b: Sequence[GridState]
) -> InvariantReport:
    """If u0 <= v0 componentwise, the ordering must persist at every step."""
    u, v = _paired(traj_a, traj_b)
    tol = 1e-12 * (1.0 + max(float(np.max(np.abs(u[0]))), float(np.max(np.abs(v[0])))))
    bad = _first_bad(np.isfinite(u) & np.isfinite(v), 0)
    if bad is not None:  # fails outright, before any inf - inf
        return _report("monotone_ordering", np.inf, tol, None, bad)
    if np.any(u[0] > v[0] + tol):
        raise ValueError("initial data not ordered: need u0 <= v0")
    worst, where = _worst(u - v, 0)
    return _report("monotone_ordering", worst, tol, where)


# -- cell entropy inequality ---------------------------------------------------


def kruzhkov_constants(state: GridState) -> np.ndarray:
    """17 uniform Kruzhkov constants spanning the data range plus a 0.1 margin.

    A sample: for nonlinear f the per-cell entropy residual curves in c between
    data values, so its maximum can fall between two of these constants.
    :func:`check_entropy` probes them only strictly inside the stencil range of
    a cell the step is not certified monotone on; it is exact in c everywhere
    else.
    """
    return np.linspace(float(np.min(state.values)) - 0.1, float(np.max(state.values)) + 0.1, 17)


def _as_constants(constants) -> np.ndarray:
    cs = np.atleast_1d(np.asarray(constants, dtype=float))
    if cs.ndim != 1 or cs.size == 0 or not np.all(np.isfinite(cs)):
        raise ValueError(f"constants must be a non-empty 1-D array of finite values, got {cs!r}")
    return cs


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


def _excess(u0, u1, c):
    """|u^{n+1}_j - c| - |u^n_j - c|: the residual less its dt * q-sum term."""
    return np.abs(u1 - c) - np.abs(u0 - c)


def _block_steps(n_cells: int, pad: int) -> int:
    return max(1, _BLOCK_VALUES // (n_cells + 2 * pad))


def _stencil_sums(flux: TwoPointFlux, rows: np.ndarray, keys: np.ndarray, w: np.ndarray,
                  cs=None) -> tuple[np.ndarray, int]:
    """The stencil sums of g, or with ``cs`` of q, at the sorted ``keys`` and how
    many values they read.

    Stencil k reads positions k..k+2R, where position p holds rows[p % rows.size],
    and with ``cs`` it takes the constant c = cs[k // rows.size] (each stencil lies
    in one copy of the rows).  Each stencil gathers its positions up to the next
    one's start, at most its 2R + 1, into the values v, so one
    :meth:`TwoPointFlux.stencil_sum` over v reads every stencil whole and no
    position twice.  As q(a, b; c) = g(a ∨ c, b ∨ c) - g(a ∧ c, b ∧ c) defines
    them, the q-sums are the g-sum over v ∨ c less the g-sum over v ∧ c.
    """
    if keys.size == 0:
        return np.empty(0), 0
    width = 2 * w.size + 1
    length = np.full(keys.size, width)
    np.minimum(keys[1:] - keys[:-1], width, out=length[:-1])
    start = np.cumsum(length) - length  # where each stencil starts among the positions
    pos = np.repeat(keys - start, length) + np.arange(start[-1] + width)
    v = rows.take(pos, mode="wrap")
    if cs is None:
        return flux.stencil_sum(v, w)[start], pos.size
    c = np.repeat(cs[keys // rows.size], length)
    hi, lo = flux.stencil_sum(np.maximum(v, c), w), flux.stencil_sum(np.minimum(v, c), w)
    return hi[start] - lo[start], pos.size


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
    every step, cell j and real c.  A non-finite state fails the audit at its
    first (step, cell) before any residual is computed.

    Lattice identity: if c >= M_j, the max of u^n over cell j's stencil j-R..j+R
    (R = n_terms), every pair there has q(a, b; c) = g(c, c) - g(a, b), so the
    q-sum is exactly -S_j, where S_j = sum_k W_k [g(u_j, u_{j+k}) - g(u_{j-k}, u_j)]
    is the flux sum of ``step``; if c <= the stencil min m_j it is +S_j.  So at or
    above M_j, residual_j(c) = |u^{n+1}_j - c| - (c - u^n_j) - dt S_j, nonincreasing
    in c, and at or below m_j, |u^{n+1}_j - c| - (u^n_j - c) + dt S_j,
    nondecreasing in c.  One rule follows for every active (step, cell) item
    (a cell whose stencil is flat and whose value the step left unchanged has
    residual exactly 0 at every c, S_j = 0, and is not probed):

    * each item is probed at c = m_j and c = M_j, its own stencil extrema, which
      is exact for every c outside (m_j, M_j), monotone step or not;
    * an item where the step H(u)_j = u_j - dt S_j is certified monotone on the
      stencil box, dt sum_k W_k :meth:`TwoPointFlux.step_speed`(m_j, M_j) <= 1,
      takes no other c: there (Crandall & Majda 1980) the sup over every real c
      is |u^{n+1}_j - H(u^n)_j|, which the two sides reach;
    * every other item is also probed at the constants strictly inside
      (m_j, M_j), the straddling ones, with the full q-sum.

    So ``constants`` is only the sample taken inside uncertified stencils: it
    defaults to :func:`kruzhkov_constants` of the first state, and given ones
    must form a non-empty 1-D array of finite values.

    The trajectory is fed through :class:`AuditStream`, as ``run`` feeds
    :func:`audit_stream`, so both paths run the same stage, once per block of
    B = max(1, 8192 // (n + 2R)) steps (n cells): the stencil extrema of the
    block's extended rows, the active items and their certificate; then the
    straddling (constant, item) triples, from one mask of the constants
    against the uncertified items alone (it has no column on an enforced run).
    One gathered-sum path takes S_j on every active item (a flat stencil sums
    to exactly 0) and the triples' q-sums (one copy of the rows per constant):
    the stencil values each reads, gathered into one array and read at the
    stencils' starts after :meth:`TwoPointFlux.stencil_sum` of g, the sum that
    ``step`` takes.  S_j takes one such sum of the gathered values; each q-sum
    is, as q is defined, the sum over the values clipped from below at the
    stencil's constant less the sum over them clipped from above.  Every
    probe is one entry of one candidate list of (item, c): each item at its
    stencil min, then at its stencil max, then each triple.  Its residuals'
    maximum is folded into the running one, and its location is read from
    the same list.  The report's ``counts`` tally this work (see
    :func:`audit_stream`).  In floating point the reduction may miss the full
    matrix's maximum by round-off.  Ties go to the earliest step, then the
    lowest cell, then the smallest c probed there; a later block must be
    strictly worse.
    """
    cs = None if constants is None else _as_constants(constants)
    audit = AuditStream(lambda u0: [_CellEntropy(u0, weights, flux, cs)], weights.n_terms)
    return _fed(audit, trajectory)[0]


class _CellEntropy(_Check):
    """:func:`check_entropy` over the stream's blocks, one block per
    :meth:`observe`: every active item at its stencil min and max, and an
    uncertified one also at the constants inside (u^0's unless given) that
    straddle its stencil; ``counts`` tallies the audit's work."""

    name = "cell_entropy"

    def __init__(self, u0: GridState, weights: QuadratureWeights, flux: TwoPointFlux,
                 constants=None):
        _check_pair(u0, weights)
        self.weights, self.flux, self.n = weights, flux, u0.n_cells
        self.tol = 1e-10 * (1.0 + float(np.max(np.abs(u0.values))))
        cs = np.sort(kruzhkov_constants(u0) if constants is None else constants)
        self.cs = cs[np.append(True, cs[1:] > cs[:-1])]  # distinct
        self.counts = dict.fromkeys(("entropy_blocks", "side_residuals", "straddle_residuals",
                                     "certified_items", "stencil_values"), 0)

    def observe(self, first: int, values: np.ndarray, ext: np.ndarray, times: np.ndarray):
        dt = np.diff(times)
        if not np.all(dt > 0.0):
            raise ValueError("states are not one step apart (need increasing times)")
        self.counts["entropy_blocks"] += 1
        n, cs, flux, w = self.n, self.cs, self.flux, self.weights.weights
        pad = w.size
        flat, width = ext.ravel(), ext.shape[1]
        # stencil k reads flat[k : k + 2R + 1]; step first + i + 1 reads the stencils
        # that start at columns 0..n-1 of row i, and the others straddle two rows
        span = flat.size - width  # the rows u^first .. u^{first+B-1}
        size = span - 2 * pad
        lo, hi = _window_extrema(flat[:span], 2 * pad + 1)
        u0, u1 = flat[pad : pad + size], flat[pad + width : pad + width + size]
        # a flat stencil that the step left unchanged has residual 0 at every c
        key = np.flatnonzero((lo != hi) | (u0 != u1))
        row, cell = np.divmod(key, width)
        inside = cell < n
        if not inside.any():
            return
        key, row = key[inside], row[inside]
        ids = (first + 1 + row) * n + cell[inside]  # step * n + cell of each active item
        dt, u0, u1, lo, hi = dt[row], u0[key], u1[key], lo[key], hi[key]
        sure = _cfl_number(flux, self.weights, dt, lo, hi) <= 1.0
        s, read_s = _stencil_sums(flux, flat[:span], key, w)  # exactly 0 on a flat stencil
        # the straddling (constant, item) triples, lo < cs[i] < hi on the uncertified
        # items alone, ordered by constant, then item
        unsure = np.flatnonzero(~sure)
        i, it = np.nonzero((cs[:, None] > lo[unsure]) & (cs[:, None] < hi[unsure]))
        it = unsure[it]
        # each keyed into a copy of the rows per constant, constant i's at i * span
        q, read_q = _stencil_sums(flux, flat[:span], i * span + key[it], w, cs)
        # one candidate list: each item at its stencil min, then at its stencil max,
        # then each straddle triple, as (item, c) with the residual's dt * q-sum
        every = np.arange(ids.size)
        at, cc = np.concatenate((every, every, it)), np.concatenate((lo, hi, cs[i]))
        res = _excess(u0[at], u1[at], cc) + dt[at] * np.concatenate((s, -s, q))
        counts = self.counts
        counts["side_residuals"] += 2 * ids.size
        counts["certified_items"] += int(sure.sum())
        counts["straddle_residuals"] += it.size
        counts["stencil_values"] += read_s + read_q
        top = float(res.max())
        if top > self.worst:  # strict: an earlier block keeps a tie
            self.worst = top
            # the earliest (step, cell) that reaches it, and the smallest c probed there
            best = res == top
            reached = ids[at[best]]
            hit = reached.min()
            self.where = (*divmod(int(hit), n), float(cc[best][reached == hit].min()))


def _bundle(u0: GridState, weights: QuadratureWeights, flux: TwoPointFlux) -> list:
    checks = [_MaxPrinciple(u0), _TotalVariation(u0)]
    if u0.boundary == "periodic":
        checks.append(_Conservation(u0))
    return checks + [_CellEntropy(u0, weights, flux)]


def audit_stream(weights: QuadratureWeights, flux: TwoPointFlux) -> AuditStream:
    """The audit bundle of :func:`audit_trajectory` as a ``run`` observer.

    Pass it as ``run(..., observer=audit)``, then ``audit.finish()`` returns the
    reports that ``audit_trajectory`` gives on the stored trajectory.  The
    stream keeps one block of B + 1 extended rows.  The last report, the
    ``cell_entropy`` one, has ``counts``: the entropy audit's work, blocks
    run, side residuals (two per active item, at its stencil min and max) and
    straddle residuals evaluated (only on items not certified), the active
    items certified monotone, and the stencil values its sums read (S_j on
    every active item, and each straddle q-sum).
    """
    return AuditStream(lambda u0: _bundle(u0, weights, flux), weights.n_terms)


def audit_trajectory(
    trajectory: Sequence[GridState], weights: QuadratureWeights, flux: TwoPointFlux
) -> list[InvariantReport]:
    """Max principle, TVD, conservation (periodic grids only) and cell entropy."""
    return _fed(audit_stream(weights, flux), trajectory)
