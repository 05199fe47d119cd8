"""Grid-refinement studies for the two limit regimes, with invariant audits.

Regime ``fixed_delta`` keeps the horizon fixed while the grid refines and
measures Cauchy distances between consecutive levels (there is no closed-form
nonlocal solution to compare against).  Regime ``joint_limit`` shrinks the
horizon proportionally to the grid, delta = coupling * dx, and measures the
windowed L1 error against the exact local entropy solution.

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

from .diagnostics import InvariantReport, audit_trajectory
from .fluxes import make_flux, make_local_flux
from .kernels import Kernel, compute_weights
from .reference import Problem, l1_error
from .solver import GridState, SchemeConfig, run, state_at

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
    refined = np.repeat(coarse.values, factor)
    a, b = window
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
    local = make_local_flux(problem.local_flux, speed=problem.speed)
    return make_flux(family, local, lf_lambda=lf_lambda)


def _level_geometry(problem: Problem, dx: float) -> tuple[float, int]:
    a, b = problem.domain
    cells = (b - a) / dx
    n = int(round(cells))
    if n < 1 or abs(cells - n) > 1e-9:
        raise ValueError(f"dx={dx} does not tile the domain [{a}, {b}]")
    return a, n


def _run_level(
    problem: Problem,
    flux,
    profile: str,
    delta: float,
    dx: float,
    mesh_ratio: float,
    final_time: float,
    targets: np.ndarray,
    run_checks: bool,
) -> tuple[list[GridState], float, list[InvariantReport]]:
    x0, n_cells = _level_geometry(problem, dx)
    kernel = Kernel(delta=delta, profile=profile)
    config = SchemeConfig(
        kernel=kernel, flux=flux, mesh_ratio=mesh_ratio, final_time=final_time
    )
    started = time.perf_counter()
    trajectory = run(
        config,
        problem.u0,
        x0=x0,
        dx=dx,
        n_cells=n_cells,
        boundary=problem.boundary,
        store="all",
        breakpoints=problem.u0_breakpoints or None,
    )
    reports: list[InvariantReport] = []
    if run_checks:
        reports = audit_trajectory(trajectory, compute_weights(kernel, dx), flux)
    wall = time.perf_counter() - started
    snapshots = [state_at(trajectory, t) for t in targets]
    return snapshots, wall, reports


def _run_levels(level_args, workers: int):
    if workers <= 1:
        return [_run_level(*args) for args in level_args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_level, *args) for args in level_args]
        return [f.result() for f in futures]


def refine_fixed_delta(
    problem: Problem,
    flux_family: str,
    delta: float,
    dx0: float,
    n_levels: int,
    mesh_ratio: float,
    *,
    profile: str = "uniform",
    lf_lambda: float | None = None,
    final_time: float | None = None,
    window: tuple[float, float] | None = None,
    n_output_times: int = DEFAULT_OUTPUT_TIMES,
    run_checks: bool = True,
    workers: int = 1,
) -> StudyReport:
    """Fixed-horizon refinement: dx halves, delta stays put.

    The measure attached to level m is the Cauchy distance to level m + 1,
    the sup over stored output times of the windowed L1 distance between the
    two nested fields; a convergent scheme drives it down monotonically.
    """
    if n_levels < 2:
        raise ValueError("fixed-delta study needs at least 2 levels")
    flux = _build_flux(problem, flux_family, lf_lambda)
    t_end = problem.final_time if final_time is None else float(final_time)
    win = problem.window if window is None else window
    targets = np.linspace(0.0, t_end, n_output_times)
    dxs = [dx0 / 2**m for m in range(n_levels)]
    args = [
        (problem, flux, profile, delta, dx, mesh_ratio, t_end, targets, run_checks)
        for dx in dxs
    ]
    results = _run_levels(args, workers)

    records = []
    for m, (dx, (snaps, wall, reports)) in enumerate(zip(dxs, results)):
        measure = None
        if m + 1 < n_levels:
            finer = results[m + 1][0]
            measure = max(
                nested_l1_distance(cs, fs, win) for cs, fs in zip(snaps, finer)
            )
        records.append(
            LevelRecord(
                level=m,
                dx=dx,
                delta=delta,
                dt=mesh_ratio * dx,
                n_cells=_level_geometry(problem, dx)[1],
                measure=measure,
                wall_time=wall,
                invariants=reports,
            )
        )
    distances = [rec.measure for rec in records if rec.measure is not None]
    echo = {
        "flux_family": flux_family,
        "lf_lambda": lf_lambda,
        "profile": profile,
        "delta": delta,
        "dx0": dx0,
        "n_levels": n_levels,
        "mesh_ratio": mesh_ratio,
        "final_time": t_end,
        "window": list(win),
        "n_output_times": n_output_times,
    }
    return StudyReport(
        regime="fixed_delta",
        problem=problem.name,
        measure_name="cauchy_l1_distance",
        levels=records,
        eoc=eoc(distances),
        config_echo=echo,
    )


def refine_joint_limit(
    problem: Problem,
    flux_family: str,
    coupling: float,
    dx0: float,
    n_levels: int,
    mesh_ratio: float,
    *,
    profile: str = "uniform",
    lf_lambda: float | None = None,
    final_time: float | None = None,
    window: tuple[float, float] | None = None,
    n_output_times: int = DEFAULT_OUTPUT_TIMES,
    run_checks: bool = True,
    workers: int = 1,
) -> StudyReport:
    """Joint local limit: dx halves and the horizon follows, delta = coupling * dx.

    Each level's measure is the sup over stored output times of the windowed
    L1 error against the problem's exact local entropy solution.
    """
    if n_levels < 1:
        raise ValueError("joint-limit study needs at least 1 level")
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact local solution")
    if coupling <= 0.0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    flux = _build_flux(problem, flux_family, lf_lambda)
    t_end = problem.final_time if final_time is None else float(final_time)
    win = problem.window if window is None else window
    targets = np.linspace(0.0, t_end, n_output_times)
    dxs = [dx0 / 2**m for m in range(n_levels)]
    args = [
        (problem, flux, profile, coupling * dx, dx, mesh_ratio, t_end, targets, run_checks)
        for dx in dxs
    ]
    results = _run_levels(args, workers)

    records = []
    for m, (dx, (snaps, wall, reports)) in enumerate(zip(dxs, results)):
        error = max(l1_error(s, problem.exact, win) for s in snaps)
        records.append(
            LevelRecord(
                level=m,
                dx=dx,
                delta=coupling * dx,
                dt=mesh_ratio * dx,
                n_cells=_level_geometry(problem, dx)[1],
                measure=error,
                wall_time=wall,
                invariants=reports,
            )
        )
    errors = [rec.measure for rec in records]
    echo = {
        "flux_family": flux_family,
        "lf_lambda": lf_lambda,
        "profile": profile,
        "coupling": coupling,
        "dx0": dx0,
        "n_levels": n_levels,
        "mesh_ratio": mesh_ratio,
        "final_time": t_end,
        "window": list(win),
        "n_output_times": n_output_times,
    }
    return StudyReport(
        regime="joint_limit",
        problem=problem.name,
        measure_name="l1_error_vs_exact",
        levels=records,
        eoc=eoc(errors),
        config_echo=echo,
    )
