import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horizonflux import (
    GridState,
    InvariantReport,
    Kernel,
    SchemeConfig,
    compute_weights,
    eoc,
    get_problem,
    nested_l1_distance,
    refine_fixed_delta,
    refine_joint_limit,
    run,
)
from horizonflux.harness import _build_flux, _levels
from flux_oracles import assert_entropy_matches_oracle


# -- eoc ---------------------------------------------------------------------


def test_eoc_halving_errors():
    assert eoc([0.4, 0.2, 0.1]) == pytest.approx([1.0, 1.0])


def test_eoc_stagnant_errors():
    assert eoc([0.3, 0.3, 0.3]) == pytest.approx([0.0, 0.0])


def test_eoc_zero_errors_give_nan():
    rates = eoc([0.1, 0.0])
    assert len(rates) == 1 and np.isnan(rates[0])


# -- nested grid distances ------------------------------------------------------


def test_nested_distance_identical_fields():
    coarse = GridState(dx=0.5, x0=0.0, values=np.array([1.0, 0.0]))
    fine = GridState(dx=0.25, x0=0.0, values=np.array([1.0, 1.0, 0.0, 0.0]))
    assert nested_l1_distance(coarse, fine, (0.0, 1.0)) == 0.0


def test_nested_distance_hand_value():
    coarse = GridState(dx=0.5, x0=0.0, values=np.array([1.0, 0.0]))
    fine = GridState(dx=0.25, x0=0.0, values=np.array([1.0, 0.5, 0.0, 0.0]))
    # only the second fine cell differs: 0.25 * |1 - 0.5|
    assert nested_l1_distance(coarse, fine, (0.0, 1.0)) == pytest.approx(0.125)
    # window clipping halves the overlap of that cell
    assert nested_l1_distance(coarse, fine, (0.375, 1.0)) == pytest.approx(0.0625)


def test_nested_distance_rejects_non_nesting():
    coarse = GridState(dx=0.5, x0=0.0, values=np.array([1.0, 0.0]))
    off = GridState(dx=0.3, x0=0.0, values=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="nest"):
        nested_l1_distance(coarse, off, (0.0, 1.0))
    shifted = GridState(dx=0.25, x0=0.1, values=np.zeros(4))
    with pytest.raises(ValueError, match="nest"):
        nested_l1_distance(coarse, shifted, (0.0, 1.0))


# -- fixed-horizon refinement -----------------------------------------------------


@pytest.mark.parametrize("delta", [0.2, 0.1, 0.05])
def test_fixed_delta_cauchy_distances_decrease(delta):
    report = refine_fixed_delta(
        get_problem("burgers_shock"), "godunov", delta, 1 / 16, 4, 0.9
    )
    distances = report.measures()
    assert len(distances) == 3
    assert all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))
    assert report.invariants_pass()
    assert len(report.eoc) == 2  # levels - 2 Cauchy ratios
    assert report.levels[-1].measure is None


def test_fixed_delta_constant_data_collapses_to_zero():
    from dataclasses import replace

    constant = replace(get_problem("burgers_shock"),
                       u0=lambda x: np.full_like(x, 0.3), exact=None)
    report = refine_fixed_delta(constant, "godunov", 0.1, 1 / 8, 3, 0.9)
    assert report.measures() == [0.0, 0.0]


def test_fixed_delta_linear_advection():
    problem = dataclasses.replace(get_problem("advect_bump"), final_time=0.5)
    report = refine_fixed_delta(problem, "upwind_linear", 0.05, 1 / 16, 3, 0.9)
    distances = report.measures()
    assert distances[1] < distances[0]
    assert report.invariants_pass()


# -- joint local limit -------------------------------------------------------------


def test_joint_limit_shock_errors_decrease():
    report = refine_joint_limit(
        get_problem("burgers_shock"), "godunov", 2.0, 1 / 16, 4, 0.9
    )
    errors = report.measures()
    assert len(errors) == 4
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert len(report.eoc) == 3
    assert report.invariants_pass()
    assert report.passed()
    for level in report.levels:  # an enforced run: every active entropy item is certified
        counts = level.invariants[-1].counts
        assert counts["straddle_residuals"] == 0
        assert counts["side_residuals"] == 2 * counts["certified_items"] > 0


def test_joint_limit_smooth_advection_first_order():
    report = refine_joint_limit(
        get_problem("advect_bump"), "upwind_linear", 2.0, 1 / 32, 4, 0.9
    )
    errors = report.measures()
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert report.eoc[-1] == pytest.approx(1.0, abs=0.3)


def test_joint_limit_requires_exact_solution():
    from dataclasses import replace

    stripped = replace(get_problem("burgers_shock"), exact=None)
    with pytest.raises(ValueError, match="exact"):
        refine_joint_limit(stripped, "godunov", 2.0, 1 / 8, 2, 0.9)


def test_workers_do_not_change_results():
    for refine, problem, horizon, mesh_ratio in (
        (refine_fixed_delta, "burgers_shock", 0.1, 0.9),
        (refine_joint_limit, "burgers_rarefaction", 2.0, 0.45),
    ):
        args = (get_problem(problem), "godunov", horizon, 1 / 16, 3, mesh_ratio)
        serial = refine(*args)
        threaded = refine(*args, workers=3)
        assert serial.as_dict() == threaded.as_dict(), serial.regime


@pytest.mark.parametrize("workers", [0, -3, 2.5, True])
def test_workers_must_be_a_positive_integer(workers):
    with pytest.raises(ValueError, match="workers"):
        refine_joint_limit(get_problem("burgers_shock"), "godunov", 2.0, 1 / 8, 2, 0.9,
                           workers=workers)


# -- pinned study outputs ------------------------------------------------------------
# Recorded from the two per-regime study loops before they became one driver;
# a refactor that moves any bit of a study's output fails here.  The
# cell_entropy violations and locations are round-off-level maxima: they were
# re-recorded when check_entropy began probing only the nearest constant on
# each side of a stencil's range plus the straddling ones (pinned to the full
# matrix oracle in test_entropy_audit.py).  The measures, eoc, TV and entropy
# round-off maxima were re-recorded again when ``step`` began summing split
# fluxes as two correlations (pinned to the oracle's loop over k in
# test_solver.py).


def _level(level, dx, delta, dt, n_cells, measure, tol, audits):
    names = ("max_principle", "tvd", "cell_entropy")
    return {
        "level": level, "dx": dx, "delta": delta, "dt": dt, "n_cells": n_cells,
        "measure": measure,
        "invariants": [
            {"name": name, "passed": True, "violation": violation, "tolerance": t,
             "location": location}
            for name, t, (violation, location) in zip(names, tol, audits)
        ],
    }


def _echo(key, value, mesh_ratio, window):
    return {
        "flux_family": "godunov", "lf_lambda": None, "profile": "uniform", key: value,
        "dx0": 0.25, "n_levels": 3, "mesh_ratio": mesh_ratio, "final_time": 0.5,
        "window": window, "n_output_times": 9,
    }


def assert_levels_match_the_entropy_oracle(report, problem, delta_of, mesh_ratio):
    """Each level's cell_entropy report against the default-constant oracle on
    that level's stored run."""
    flux = _build_flux(problem, "godunov", None)
    for level in report.as_dict()["levels"]:
        dx = level["dx"]
        [(_, x0, n)] = _levels(problem, dx, 1, delta_of, 2)
        kernel = Kernel(delta=delta_of(dx))
        trajectory = []
        run(SchemeConfig(kernel, flux, mesh_ratio, problem.final_time), problem.u0, x0=x0,
            dx=dx, n_cells=n, boundary=problem.boundary, observer=trajectory.append)
        entropy = InvariantReport(**{**level["invariants"][-1], "location": tuple(
            level["invariants"][-1]["location"])})
        assert_entropy_matches_oracle(entropy, trajectory, compute_weights(kernel, dx), flux)


def test_fixed_delta_study_is_pinned():
    report = refine_fixed_delta(get_problem("burgers_shock"), "godunov", 0.5, 0.25, 3, 0.9)
    assert_levels_match_the_entropy_oracle(report, get_problem("burgers_shock"),
                                           lambda _: 0.5, 0.9)
    tol = (2e-12, 2e-12, 2e-10)
    assert report.as_dict() == {
        "regime": "fixed_delta",
        "problem": "burgers_shock",
        "measure": "cauchy_l1_distance",
        "config": _echo("delta", 0.5, 0.9, [-0.5, 1.5]),
        "levels": [
            _level(0, 0.25, 0.5, 0.225, 20, 0.059374625690227764, tol, [
                (0.0, None), (1.1102230246251565e-16, [3]),
                (4.163336342344337e-17, [1, 9, 0.9999999999999999])]),
            _level(1, 0.125, 0.5, 0.1125, 40, 0.030281119172853373, tol, [
                (0.0, None), (2.220446049250313e-16, [3]),
                (1.1102230246251565e-16, [4, 17, 0.0032147694755008424])]),
            _level(2, 0.0625, 0.5, 0.05625, 80, None, tol, [
                (0.0, None), (2.220446049250313e-16, [4]),
                (1.1796119636642288e-16, [4, 36, 0.9999999999999999])]),
        ],
        "eoc": [0.9714279858223224],
        "passed": True,
    }


def test_joint_limit_study_is_pinned():
    report = refine_joint_limit(
        get_problem("burgers_rarefaction"), "godunov", 2.0, 0.25, 3, 0.45
    )
    assert_levels_match_the_entropy_oracle(report, get_problem("burgers_rarefaction"),
                                           lambda h: 2.0 * h, 0.45)
    tol = (2e-12, 3e-12, 2e-10)
    assert report.as_dict() == {
        "regime": "joint_limit",
        "problem": "burgers_rarefaction",
        "measure": "l1_error_vs_exact",
        "config": _echo("coupling", 2.0, 0.45, [-1.0, 1.0]),
        "levels": [
            _level(0, 0.25, 0.5, 0.1125, 20, 0.3155413982735149, tol, [
                (0.0, None), (2.220446049250313e-16, [1]),
                (1.700029006457271e-16, [5, 8, 0.5618129080237959])]),
            _level(1, 0.125, 0.25, 0.05625, 40, 0.21903534899951477, tol, [
                (0.0, None), (2.220446049250313e-16, [3]),
                (1.6653345369377348e-16, [5, 18, 0.5618129080237959])]),
            _level(2, 0.0625, 0.125, 0.028125, 80, 0.14789365754249084, tol, [
                (0.0, None), (2.220446049250313e-16, [3]),
                (1.6653345369377348e-16, [5, 38, 0.5618129080237959])]),
        ],
        "eoc": [0.526665577927697, 0.5666035344055691],
        "passed": True,
    }


def test_study_report_serializes():
    report = refine_joint_limit(
        get_problem("burgers_shock"), "godunov", 2.0, 1 / 8, 2, 0.9
    )
    payload = report.as_dict()
    assert payload["regime"] == "joint_limit"
    assert len(payload["levels"]) == 2
    assert "wall_time" not in payload["levels"][0]
    assert payload["levels"][0]["invariants"]


# -- the study scripts -------------------------------------------------------------


@pytest.mark.parametrize("script, args, stem", [
    ("fixed_horizon_study.py", ["--deltas", "0.1"], "delta_0p1"),
    ("local_limit_study.py", ["--problems", "burgers_shock"], "burgers_shock"),
])
def test_study_script_writes_tables(tmp_path, script, args, stem):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / script), *args,
         "--levels", "2", "--dx0", "0.0625", "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 0, result.stderr
    written = sorted(p.name for p in out.iterdir())
    assert written == [f"{stem}.{ext}" for ext in ("csv", "dat", "json")]
    study = json.loads((out / f"{stem}.json").read_text())
    assert study["passed"] and [level["level"] for level in study["levels"]] == [0, 1]
    assert len((out / f"{stem}.csv").read_text().splitlines()) == 3  # header + 2 levels
    head, *rows = (out / f"{stem}.dat").read_text().splitlines()
    assert head == "# dx measure" and rows


def test_cli_outputs_script_writes_the_fifteen_byte_stable_files(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "cli_outputs.py"), str(out)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 0, result.stderr
    names = ("invariants.json", "single.cfg", "solution.csv", "study.cfg", "study.csv",
             "study.json", "study_plot.dat")
    problems = ("advect_bump", "burgers_rarefaction", "burgers_shock")
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == [f"{problem}/{name}" for problem in problems for name in names]
    for problem in problems:
        assert json.loads((out / problem / "study.json").read_text())["passed"]
        checks = json.loads((out / problem / "invariants.json").read_text())["checks"]
        assert all(check["passed"] for check in checks)
