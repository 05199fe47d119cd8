"""The streamed audit bundle against whole-list loops.

``run(..., observer=audit_stream(weights, flux))`` audits a run as it goes and
keeps no trajectory; the entropy audit sees blocks of B + 1 states.  Its
reports must equal ``audit_trajectory`` on the stored run and a plain oracle:
the max-principle, TVD and conservation loops over the whole list, and the
entropy audit taken one step at a time with u^0's constants and tolerance.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from horizonflux import (
    BOUNDARY_MODES,
    PROFILE_NAMES,
    GridState,
    InvariantReport,
    Kernel,
    SchemeConfig,
    audit_stream,
    audit_trajectory,
    check_entropy,
    get_problem,
    kruzhkov_constants,
    make_flux,
    make_local_flux,
    run,
    step,
    total_variation,
)
from horizonflux.diagnostics import _block_steps
from horizonflux.harness import _build_flux, _run_level
from flux_oracles import reference_entropy_matrix
from testutil import every_flux, weights_for_r

GODUNOV = make_flux("godunov", make_local_flux("burgers"))


def _verdict(name, worst, tol, where):
    return InvariantReport(name, worst <= tol, worst, tol, where)


def reference_audit(trajectory, weights, flux):
    """Max principle, TVD and conservation by loops over the list; the entropy
    audit on each pair of steps, merged by strict > (earliest step keeps a tie)."""
    u0 = trajectory[0].values
    lo, hi = float(np.min(u0)), float(np.max(u0))
    worst, where = 0.0, None
    for n, state in enumerate(trajectory):
        excess = np.maximum(state.values - hi, lo - state.values)
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst, where = float(excess[j]), (n, j)
    reports = [_verdict("max_principle", worst, 1e-12 * (1.0 + max(abs(lo), abs(hi))), where)]
    tvs = [total_variation(s) for s in trajectory]
    worst, where = 0.0, None
    for n in range(len(tvs) - 1):
        if tvs[n + 1] - tvs[n] > worst:
            worst, where = tvs[n + 1] - tvs[n], (n + 1,)
    reports.append(_verdict("tvd", worst, 1e-12 * (1.0 + tvs[0]), where))
    if trajectory[0].boundary == "periodic":
        dx = trajectory[0].dx
        mass0 = dx * float(np.sum(u0))
        worst, where = 0.0, None
        for n, state in enumerate(trajectory[1:], start=1):
            drift = abs(dx * float(np.sum(state.values)) - mass0) / n
            if drift > worst:
                worst, where = drift, (n,)
        scale = 1.0 + dx * float(np.sum(np.abs(u0)))
        reports.append(_verdict("conservation", worst, 1e-13 * scale, where))
    constants = kruzhkov_constants(trajectory[0])
    worst, where = 0.0, None
    for n in range(len(trajectory) - 1):
        rep = check_entropy(trajectory[n : n + 2], weights, flux, constants)
        if rep.violation > worst:
            worst, where = rep.violation, (n + rep.location[0], *rep.location[1:])
    tol = 1e-10 * (1.0 + float(np.max(np.abs(u0))))
    return reports + [_verdict("cell_entropy", worst, tol, where)]


def bumpy_shock(x):
    """A jump across Burgers' sonic point plus ripples, so constants straddle."""
    return np.where(x < 0.5, 0.8, -0.4) + 0.2 * np.sin(6 * np.pi * x)


def three_jumps(x):
    """Flat pieces (S_j = 0), a rarefaction and a shock across the sonic point."""
    return np.where(x < 0.3, -0.5, np.where(x < 0.6, 0.9, np.where(x < 0.8, -0.3, 0.2)))


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64])
def test_streamed_audit_matches_the_stored_run(r, boundary):
    blocks = 3
    n = 8192 // blocks - 2 * r  # B = 3 steps per entropy block
    dx = 1.0 / n
    assert _block_steps(n, r) == blocks
    dt = 0.2 * dx
    # 1, B and B + 1 steps, and B + 1 with a shortened last step, taken in turn
    step_counts = itertools.cycle((1, blocks, blocks + 1, blocks + 0.5))
    for profile in PROFILE_NAMES:
        weights = weights_for_r(r, dx, profile)
        kernel = Kernel(delta=weights.delta, profile=profile)
        for flux, steps in zip(every_flux(), step_counts):
            config = SchemeConfig(kernel, flux, mesh_ratio=0.2, final_time=steps * dt)
            audit = audit_stream(weights, flux)
            trajectory = run(config, three_jumps, x0=0.0, dx=dx, n_cells=n,
                             boundary=boundary, store="all", enforce_cfl=False,
                             observer=audit)
            assert len(trajectory) == int(np.ceil(steps)) + 1
            streamed = audit.finish()
            label = f"{flux.family}/{flux.local.name} {profile} {steps}"
            assert streamed == audit_trajectory(trajectory, weights, flux), label
            assert streamed == reference_audit(trajectory, weights, flux), label


def test_streamed_audit_keeps_its_failures():
    """A non-monotone run fails the max principle and TVD; the stream still agrees."""
    n, r = 200, 3
    dx = 1.0 / n
    weights = weights_for_r(r, dx)
    config = SchemeConfig(Kernel(delta=weights.delta), GODUNOV, mesh_ratio=4.0,
                          final_time=5 * 4.0 * dx)
    audit = audit_stream(weights, GODUNOV)
    trajectory = run(config, bumpy_shock, x0=0.0, dx=dx, n_cells=n, store="all",
                     enforce_cfl=False, observer=audit)
    streamed = audit.finish()
    assert not streamed[0].passed and not streamed[1].passed
    assert streamed == reference_audit(trajectory, weights, GODUNOV)


def test_ties_keep_the_earliest_step_across_blocks():
    """Every odd step bumps a flat state by the same amount, so its max-principle
    excess, TV growth and entropy residual tie exactly; the reports keep step 1."""
    n = 500
    dx = 1.0 / n
    weights = weights_for_r(3, dx)
    blocks = _block_steps(n, 3)
    dt = 1e-3 * dx
    bumped = np.zeros(n)
    bumped[7] = 0.25
    trajectory = [GridState(dx=dx, x0=0.0, values=bumped if k % 2 else np.zeros(n), time=k * dt)
                  for k in range(2 * blocks + 3)]
    audit = audit_stream(weights, GODUNOV)
    for state in trajectory:
        audit(state)
    reports = audit.finish()
    assert [rep.location[0] for rep in reports] == [1, 1, 1, 1]
    assert reports == reference_audit(trajectory, weights, GODUNOV)


def test_observer_sees_u0_then_every_step():
    n = 64
    dx = 1.0 / n
    config = SchemeConfig(Kernel(delta=2 * dx), GODUNOV, mesh_ratio=0.4, final_time=0.33)
    seen = []
    stored = run(config, bumpy_shock, x0=0.0, dx=dx, n_cells=n, store="all",
                 observer=seen.append)
    assert len(seen) == len(stored) and all(a is b for a, b in zip(seen, stored))
    assert seen[-1].time == 0.33
    seen.clear()
    snaps = run(config, bumpy_shock, x0=0.0, dx=dx, n_cells=n, observer=seen.append)
    assert [s.time for s in seen] == [s.time for s in stored]
    assert snaps[0] is seen[0] and snaps[-1] is seen[-1]


def test_an_unfed_stream_has_nothing_to_report():
    with pytest.raises(ValueError, match="no state"):
        audit_stream(weights_for_r(2, 0.1), GODUNOV).finish()


def _oracle_location(trajectory, weights, flux, constants):
    worst, where = 0.0, None
    for n in range(len(trajectory) - 1):
        matrix = reference_entropy_matrix(trajectory[n], trajectory[n + 1], weights, flux,
                                          constants)
        ic, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
        if matrix[ic, j] > worst:
            worst, where = float(matrix[ic, j]), (n + 1, int(j), float(constants[ic]))
    return worst, where


@pytest.mark.parametrize("offset", [0, 1])  # the last step of block 1, the first of block 2
@pytest.mark.parametrize("default_constants", [True, False])
def test_violation_planted_at_a_block_boundary(offset, default_constants):
    n, r = 500, 3
    dx = 1.0 / n
    weights = weights_for_r(r, dx)
    blocks = _block_steps(n, r)
    u0 = GridState(dx=dx, x0=0.0, values=bumpy_shock((np.arange(n) + 0.5) * dx),
                   boundary="constant_extension")
    trajectory = [u0]
    for _ in range(2 * blocks + 1):
        trajectory.append(step(trajectory[-1], weights, GODUNOV, 0.3 * dx))
    planted = blocks + offset
    trajectory[planted].values[123] += 0.05
    audit = audit_stream(weights, GODUNOV)
    for state in trajectory:
        audit(state)
    report = audit.finish()[-1]
    # The stream probes u^0's default constants; those below cell 123's stencil all
    # reach its residual in real arithmetic, so c is pinned only up to round-off.
    # check_entropy's own blocks with one constant below the data and one above
    # pin c exactly.
    constants = kruzhkov_constants(u0) if default_constants else np.array([-0.7, 1.1])
    if not default_constants:
        report = check_entropy(trajectory, weights, GODUNOV, constants)
    worst, where = _oracle_location(trajectory, weights, GODUNOV, constants)
    tol = 16 * np.finfo(float).eps * 2.0
    assert not report.passed
    assert where[:2] == report.location[:2] == (planted, 123)
    assert abs(report.violation - worst) <= tol
    if default_constants:
        step_n, j, c = report.location
        at = reference_entropy_matrix(trajectory[step_n - 1], trajectory[step_n], weights,
                                      GODUNOV, [c])[0, j]
        assert abs(at - worst) <= tol
    else:
        assert report.location == where


def test_audited_level_does_not_hold_its_trajectory():
    """The audit's transient memory stays far below the trajectory it no longer stores."""
    problem = get_problem("burgers_shock")
    dx = 1 / 512
    flux = _build_flux(problem, "godunov", None)
    n = round((problem.domain[1] - problem.domain[0]) / dx)
    steps = int(np.ceil(problem.final_time / (0.9 * dx)))
    trajectory_bytes = (steps + 1) * n * 8
    assert trajectory_bytes >= 4 * 2**20
    targets = np.linspace(0.0, problem.final_time, 9)
    tracemalloc.start()
    try:
        snaps, _, reports, _ = _run_level(problem, flux, "uniform", 2 * dx, dx, 0.9,
                                          problem.final_time, targets, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snaps) == 9 and all(rep.passed for rep in reports)
    assert peak < 0.5 * trajectory_bytes, (peak, trajectory_bytes)
