"""Grid-refinement studies for the two limit regimes, with invariant audits.

One driver runs both regimes; they differ only in the horizon rule, the
measure and their labels.  Regime ``fixed_delta`` keeps the horizon fixed
while the grid refines and measures Cauchy distances between consecutive
levels (there is no closed-form nonlocal solution to compare against).
Regime ``joint_limit`` shrinks the horizon proportionally to the grid,
delta = coupling * dx, and measures the windowed L1 error against the exact
local entropy solution.  Every level, and the CLI's ``run`` and ``check``,
goes through one level runner that sets up the grid and calls ``solver.run``.

Levels refine by halving dx with a shared left edge, so consecutive grids
nest and the coarse field maps onto the fine grid exactly; the Cauchy
distances carry no interpolation error.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import InvariantReport, audit_stream
from .fluxes import make_flux, make_local_flux
from .kernels import Kernel, _fits, compute_weights
from .reference import Problem, _checked_window, l1_error
from .solver import GridState, SchemeConfig, _integer, run

__all__ = [
    "LevelRecord",
    "StudyReport",
    "eoc",
    "nested_l1_distance",
    "refine_fixed_delta",
    "refine_joint_limit",
]

DEFAULT_OUTPUT_TIMES = 9


def eoc(errors) -> list[float]:
    """Experimental orders of convergence, log2 of consecutive error ratios.

    Nonpositive entries (exactly converged levels) yield nan.
    """
    e = np.asarray(list(errors), dtype=float)
    out = []
    for m in range(len(e) - 1):
        if e[m] > 0.0 and e[m + 1] > 0.0:
            out.append(float(np.log2(e[m] / e[m + 1])))
        else:
            out.append(float("nan"))
    return out


def nested_l1_distance(
    coarse: GridState, fine: GridState, window: tuple[float, float]
) -> float:
    """Windowed L1 distance between nested piecewise-constant fields.

    The coarse grid must refine onto the fine one by an integer factor with a
    shared left edge; the coarse field is replicated cellwise, so the distance
    is the exact integral of |difference| over the window.
    """
    ratio = coarse.dx / fine.dx
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ValueError(f"grids do not nest: dx ratio {ratio} is not an integer")
    if abs(coarse.x0 - fine.x0) > 1e-9 * fine.dx:
        raise ValueError("grids do not nest: left edges differ")
    if coarse.n_cells * factor != fine.n_cells:
        raise ValueError("grids do not nest: spans differ")
    a, b = _checked_window(fine, window)
    refined = np.repeat(coarse.values, factor)
    edges = fine.x0 + fine.dx * np.arange(fine.n_cells + 1)
    overlap = np.clip(np.minimum(edges[1:], b) - np.maximum(edges[:-1], a), 0.0, None)
    return float(np.sum(overlap * np.abs(refined - fine.values)))


@dataclass
class LevelRecord:
    """One refinement level: geometry, measured quantity, and its audit."""

    level: int
    dx: float
    delta: float
    dt: float
    n_cells: int
    measure: float | None  # Cauchy distance or error; None when not applicable
    wall_time: float
    invariants: list[InvariantReport] = field(default_factory=list)

    def invariants_pass(self) -> bool:
        return all(rep.passed for rep in self.invariants)

    def as_dict(self) -> dict:
        # wall_time deliberately omitted: serialized studies must be
        # byte-stable across reruns.
        return {
            "level": self.level,
            "dx": self.dx,
            "delta": self.delta,
            "dt": self.dt,
            "n_cells": self.n_cells,
            "measure": self.measure,
            "invariants": [rep.as_dict() for rep in self.invariants],
        }


@dataclass
class StudyReport:
    """Outcome of a refinement study: per-level records plus EOC sequence."""

    regime: str
    problem: str
    measure_name: str
    levels: list[LevelRecord]
    eoc: list[float]
    config_echo: dict

    def measures(self) -> list[float]:
        return [rec.measure for rec in self.levels if rec.measure is not None]

    def invariants_pass(self) -> bool:
        return all(rec.invariants_pass() for rec in self.levels)

    def measures_decrease(self) -> bool:
        ms = self.measures()
        return all(ms[i + 1] < ms[i] for i in range(len(ms) - 1))

    def passed(self) -> bool:
        return self.invariants_pass() and self.measures_decrease()

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "problem": self.problem,
            "measure": self.measure_name,
            "config": self.config_echo,
            "levels": [rec.as_dict() for rec in self.levels],
            "eoc": self.eoc,
            "passed": self.passed(),
        }


def _build_flux(problem: Problem, family: str, lf_lambda: float | None):
    local = make_local_flux(problem.local_flux)
    return make_flux(family, local, lf_lambda=lf_lambda)


def _levels(problem: Problem, dx0: float, n_levels: int, delta_of, n_output_times: int):
    """Level m's ``(dx, x0, n_cells)``, dx = dx0 / 2**m, each checked before the next is
    made: it must tile the domain, and its r + 1 kernel edges, n + 2R extended cells and
    ``n_output_times`` x n snapshot values must each fit in memory (:func:`kernels._fits`)."""
    a, b = problem.domain
    ladder = []
    for m in range(n_levels):
        dx = math.ldexp(dx0, -m)
        cells = (b - a) / dx if dx > 0.0 else math.inf
        n = int(round(cells)) if math.isfinite(cells) else 0
        if n < 1 or abs(cells - n) > 1e-9:
            raise ValueError(f"level {m}: dx={dx} does not tile the domain [{a}, {b}]")
        ratio = delta_of(dx) / dx
        _fits(ratio + 1.0, f"level {m}: r = floor({ratio:.6g}) needs r + 1 edges")
        ghosts = 2 * max(math.floor(ratio), 1)
        _fits(n + ghosts, f"level {m}: n = {n} cells with 2R = {ghosts} ghosts")
        _fits(n_output_times * n, f"level {m}: {n_output_times} output times x n = {n} cells")
        ladder.append((dx, a, n))
    return ladder


def _run_level(
    problem: Problem,
    flux,
    profile: str,
    delta: float,
    dx: float,
    mesh_ratio: float,
    n_output_times: int,
    audit: bool,
    enforce_cfl: bool = True,
) -> tuple[list[GridState], float, list[InvariantReport]]:
    """Run one grid to ``problem.final_time``; return its snapshots at
    ``n_output_times`` evenly spaced times from 0 to it, wall time and audits.

    Every study level and the CLI's run and check reach ``run`` through here.
    ``run`` keeps only the snapshots; an audited run streams every state
    through :func:`~horizonflux.diagnostics.audit_stream` as it is made.
    """
    [(_, x0, n_cells)] = _levels(problem, dx, 1, lambda _: delta, n_output_times)
    kernel = Kernel(delta=delta, profile=profile)
    config = SchemeConfig(
        kernel=kernel, flux=flux, mesh_ratio=mesh_ratio, final_time=problem.final_time
    )
    started = time.perf_counter()
    stream = audit_stream(compute_weights(kernel, dx), flux) if audit else None
    states = run(
        config, problem.u0, x0=x0, dx=dx, n_cells=n_cells, boundary=problem.boundary,
        output_times=np.linspace(0.0, problem.final_time, n_output_times),
        enforce_cfl=enforce_cfl, observer=stream,
    )
    reports = stream.finish() if audit else []
    return states, time.perf_counter() - started, reports


def _cauchy_distances(snapshots, problem: Problem, window) -> list[float | None]:
    """Level m's sup distance to level m + 1; the finest level has none."""
    return [
        max(nested_l1_distance(cs, fs, window) for cs, fs in zip(coarse, fine))
        for coarse, fine in zip(snapshots, snapshots[1:])
    ] + [None]


def _exact_errors(snapshots, problem: Problem, window) -> list[float]:
    return [max(l1_error(s, problem.exact, window) for s in level) for level in snapshots]


def _refine(
    problem: Problem, flux_family: str, dx0: float, n_levels: int, mesh_ratio: float, *,
    regime: str, measure_name: str, measure, delta_of, echo: dict, profile: str = "uniform",
    lf_lambda: float | None = None, n_output_times: int = DEFAULT_OUTPUT_TIMES,
    workers: int = 1,
) -> StudyReport:
    """The driver of both regimes: level m has dx0 / 2**m and horizon ``delta_of(dx)``.

    ``measure`` maps the levels' snapshot lists to one measure per level.  The
    keyword defaults are those of both public studies, which forward their
    options here; every level is audited.
    """
    if _integer(workers, "workers") < 1:
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    if not isinstance(n_output_times, (int, np.integer)) or n_output_times < 2:
        raise ValueError(f"n_output_times must be at least 2, got {n_output_times}")
    flux = _build_flux(problem, flux_family, lf_lambda)
    ladder = _levels(problem, dx0, n_levels, delta_of, n_output_times)
    args = [
        (problem, flux, profile, delta_of(dx), dx, mesh_ratio, n_output_times, True)
        for dx, *_ in ladder
    ]
    if workers <= 1:
        results = [_run_level(*a) for a in args]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda a: _run_level(*a), args))
    measures = measure([snaps for snaps, *_ in results], problem, problem.window)
    records = [
        LevelRecord(
            level=m,
            dx=dx,
            delta=delta_of(dx),
            dt=mesh_ratio * dx,
            n_cells=n,
            measure=value,
            wall_time=wall,
            invariants=reports,
        )
        for m, ((dx, _, n), value, (_, wall, reports)) in enumerate(zip(ladder, measures, results))
    ]
    echo = dict(
        flux_family=flux_family, lf_lambda=lf_lambda, profile=profile, **echo, dx0=dx0,
        n_levels=n_levels, mesh_ratio=mesh_ratio, final_time=problem.final_time,
        window=list(problem.window), n_output_times=n_output_times,
    )
    measured = [v for v in measures if v is not None]
    return StudyReport(regime, problem.name, measure_name, records, eoc(measured), echo)


def refine_fixed_delta(
    problem: Problem,
    flux_family: str,
    delta: float,
    dx0: float,
    n_levels: int,
    mesh_ratio: float,
    **options,
) -> StudyReport:
    """Fixed-horizon refinement: dx halves, delta stays put.

    The measure attached to level m is the Cauchy distance to level m + 1,
    the sup over stored output times of the windowed L1 distance between the
    two nested fields; a convergent scheme drives it down monotonically.
    ``options`` are the keyword options of :func:`_refine` (profile, lf_lambda,
    n_output_times, workers); the final time and the measuring window are the
    problem's own.
    """
    if _integer(n_levels, "n_levels") < 2:
        raise ValueError("fixed-delta study needs at least 2 levels")
    Kernel(delta)  # the horizon rule, checked before any level is laid out
    return _refine(
        problem, flux_family, dx0, n_levels, mesh_ratio,
        regime="fixed_delta", measure_name="cauchy_l1_distance",
        measure=_cauchy_distances, delta_of=lambda dx: delta, echo={"delta": delta}, **options,
    )


def refine_joint_limit(
    problem: Problem,
    flux_family: str,
    coupling: float,
    dx0: float,
    n_levels: int,
    mesh_ratio: float,
    **options,
) -> StudyReport:
    """Joint local limit: dx halves and the horizon follows, delta = coupling * dx.

    Each level's measure is the sup over stored output times of the windowed
    L1 error against the problem's exact local entropy solution.  ``options``
    are those of :func:`refine_fixed_delta`.
    """
    if _integer(n_levels, "n_levels") < 1:
        raise ValueError("joint-limit study needs at least 1 level")
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact local solution")
    if not (math.isfinite(coupling) and coupling > 0.0):
        raise ValueError(f"coupling must be positive and finite, got {coupling}")
    return _refine(
        problem, flux_family, dx0, n_levels, mesh_ratio,
        regime="joint_limit", measure_name="l1_error_vs_exact",
        measure=_exact_errors, delta_of=lambda dx: coupling * dx, echo={"coupling": coupling},
        **options,
    )
