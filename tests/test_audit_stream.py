"""The streamed audit bundle against whole-list loops.

``run(..., observer=audit_stream(weights, flux))`` audits a run as it goes and
keeps no trajectory; the entropy audit sees blocks of B + 1 states.  Its
reports must equal ``audit_trajectory`` on the stored run and a plain oracle:
the max-principle, TVD and conservation loops over the whole list, and the
entropy audit taken one step at a time with u^0's constants and tolerance (exact
in c on the items the step is certified monotone on, sampled inside the stencil
range elsewhere).
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
from horizonflux import diagnostics
from horizonflux.diagnostics import _block_steps
from horizonflux.harness import _build_flux, _run_level
from horizonflux.solver import _cfl_number
from flux_oracles import reference_entropy_matrix, stencil_boxes
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
    worst, where = 0.0, None
    constants = kruzhkov_constants(trajectory[0])
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
    n = diagnostics._BLOCK_VALUES // blocks - 2 * r  # B = 3 steps per block
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
            audit, trajectory = audit_stream(weights, flux), []
            run(config, three_jumps, x0=0.0, dx=dx, n_cells=n, boundary=boundary,
                enforce_cfl=False, observer=lambda s: (audit(s), trajectory.append(s)))
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
    audit, trajectory = audit_stream(weights, GODUNOV), []
    run(config, bumpy_shock, x0=0.0, dx=dx, n_cells=n, enforce_cfl=False,
        observer=lambda s: (audit(s), trajectory.append(s)))
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
    dt = 0.4 * dx
    config = SchemeConfig(Kernel(delta=2 * dx), GODUNOV, mesh_ratio=0.4, final_time=0.33)
    seen = []
    snaps = run(config, bumpy_shock, x0=0.0, dx=dx, n_cells=n, observer=seen.append)
    full = int(0.33 // dt)  # full steps; a shortened one lands on T
    assert [s.time for s in seen] == [k * dt for k in range(full + 1)] + [0.33]
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
    # The stream probes u^0's default constants, check_entropy one constant below
    # the data and one above.  Either probes cell 123 at its stencil min and max,
    # and the residual at its min is the one every constant below the stencil
    # reaches, so both report c = the stencil min.
    constants = kruzhkov_constants(u0) if default_constants else np.array([-0.7, 1.1])
    if not default_constants:
        report = check_entropy(trajectory, weights, GODUNOV, constants)
    worst, where = _oracle_location(trajectory, weights, GODUNOV, constants)
    tol = 16 * np.finfo(float).eps * 2.0
    assert not report.passed
    assert where[:2] == report.location[:2] == (planted, 123)
    assert abs(report.violation - worst) <= tol
    lo, _ = stencil_boxes(trajectory[planted - 1], r)
    assert report.location[2] == lo[123]
    at = reference_entropy_matrix(trajectory[planted - 1], trajectory[planted], weights,
                                  GODUNOV, [lo[123]])[0, 123]
    assert abs(at - worst) <= tol


def test_audited_level_does_not_hold_its_trajectory():
    """The audit's transient memory stays far below the trajectory it no longer stores."""
    problem = get_problem("burgers_shock")
    dx = 1 / 512
    flux = _build_flux(problem, "godunov", None)
    n = round((problem.domain[1] - problem.domain[0]) / dx)
    steps = int(np.ceil(problem.final_time / (0.9 * dx)))
    trajectory_bytes = (steps + 1) * n * 8
    assert trajectory_bytes >= 4 * 2**20
    tracemalloc.start()
    try:
        snaps, _, reports = _run_level(problem, flux, "uniform", 2 * dx, dx, 0.9, 9, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snaps) == 9 and all(rep.passed for rep in reports)
    assert peak < 0.5 * trajectory_bytes, (peak, trajectory_bytes)


@pytest.mark.parametrize("pad", [0, 1, 51])
def test_row_sums_match_the_one_dimensional_sums(pad):
    """The stream's TVD and conservation checks sum the rows of its block buffer at
    once; numpy sums each contiguous row pairwise as ``np.sum`` does a 1-D array,
    so the reports keep the per-state floats bit for bit."""
    rng = np.random.default_rng(pad)
    for n in (1, 7, 128, 1000, 4099):
        ext = rng.standard_normal((5, n + 2 * pad)) * 10.0 ** rng.uniform(-3, 3, (5, 1))
        rows = ext[:, pad : pad + n]
        variation = np.abs(np.diff(rows, axis=1)).sum(axis=1)
        for row, mass, tv in zip(rows, rows.sum(axis=1), variation):
            assert mass == np.sum(row)
            assert tv == np.sum(np.abs(np.diff(row)))


# unsorted, with duplicates, and at the min 0 and max 1 of the stencils around cell 3
AT_THE_EXTREMA = [1.0, 0.5, 0.0, 0.25, 0.5, -0.3, 0.75, 1.0]


@pytest.mark.parametrize("constants, straddling", [(None, 13), (AT_THE_EXTREMA, 3)],
                         ids=["default", "unsorted_duplicates_at_the_extrema"])
@pytest.mark.parametrize("budget, blocks", [(8192, 1), (400, 4)])
def test_entropy_work_counters(budget, blocks, constants, straddling, monkeypatch):
    """Five copies of one state, n = 300 zeros with a 1 at cell 3 and a 0.5 at cell
    150, with R = 1.  Each step has six active items: cells 2, 3 and 4, whose
    stencils span [0, 1], and cells 149, 150 and 151, whose stencils span [0, 0.5].
    At dt = 0.1 dx (dt W_1 max|f'| = 0.1) the step is certified monotone on all six:
    each takes its two data sides and no straddling constant, and S_j reads their
    stencils, two runs of 5 values.  At dt = 1.5 dx it is certified on the three
    around cell 150 (0.75) but not on the three around cell 3 (1.5), in the same
    block: only those take the distinct constants strictly inside (0, 1), 13 of
    the 17 defaults (0.05 ... 0.95) or 0.25, 0.5 and 0.75 of the given ones, and
    their run of 5 is read once more per straddling constant.  Either count is also
    the brute-force sum over the uncertified items of #{c : m_j < c < M_j}.  At a
    budget of 400, B = 400 // 302 = 1 step per block, so the four steps take four
    blocks; the work does not depend on the blocks."""
    monkeypatch.setattr(diagnostics, "_BLOCK_VALUES", budget)
    n = 300
    dx = 1.0 / n
    weights = weights_for_r(1, dx)
    values = np.zeros(n)
    values[3], values[150] = 1.0, 0.5
    state = GridState(dx=dx, x0=0.0, values=values, boundary="constant_extension")
    cs = np.unique(kruzhkov_constants(state) if constants is None else constants)
    lo, hi = stencil_boxes(state, 1)
    for mesh_ratio, certified in ((0.1, 6), (1.5, 3)):
        unsure = (lo < hi) & (_cfl_number(GODUNOV, weights, mesh_ratio * dx, lo, hi) > 1.0)
        brute = sum(int(np.sum((cs > lo[j]) & (cs < hi[j]))) for j in np.flatnonzero(unsure))
        assert brute == (0 if certified == 6 else 3 * straddling)
        states = [GridState(dx=dx, x0=0.0, values=values, boundary="constant_extension",
                            time=k * mesh_ratio * dx) for k in range(5)]
        report = check_entropy(states, weights, GODUNOV, constants)
        assert report.counts == {"entropy_blocks": blocks, "side_residuals": 4 * 12,
                                 "straddle_residuals": 4 * brute,
                                 "certified_items": 4 * certified,
                                 "stencil_values": 4 * (10 + 5 * (brute // 3))}


def narrow_bump_run(n=2000, r=2, steps=101):
    """Godunov over Burgers from a flat state with one narrow bump (u > 0): about 40
    of the 2,000 cells per step are active, in blocks of B = 4 steps, and the last
    block is a part block.  Constant extension keeps the far cells flat."""
    dx = 1.0 / n
    weights = weights_for_r(r, dx)
    values = np.full(n, 0.2)
    values[40:43] = 0.8
    trajectory = [GridState(dx=dx, x0=0.0, values=values, boundary="constant_extension")]
    for _ in range(steps):
        trajectory.append(step(trajectory[-1], weights, GODUNOV, 0.3 * dx))
    return trajectory, weights


def streamed_audit(trajectory, weights):
    audit = audit_stream(weights, GODUNOV)
    for state in trajectory:
        audit(state)
    reports = audit.finish()
    return reports, reports[-1].counts["entropy_blocks"]


@pytest.mark.parametrize("where", ["first_block", "last_block"])
def test_violation_planted_in_the_first_or_last_block(where):
    """A violation in the first block, and in the last, a part block that only
    ``finish`` flushes: the stream reports what the stored run's audits and the
    oracle do, at the oracle's location."""
    trajectory, weights = narrow_bump_run()
    blocks = _block_steps(trajectory[0].n_cells, weights.n_terms)
    clean, _ = streamed_audit(trajectory, weights)
    assert all(rep.passed for rep in clean)
    planted = {"first_block": 1, "last_block": len(trajectory) - 1}[where]
    if where == "last_block":
        assert (len(trajectory) - 1) % blocks != 0  # a part block, flushed by finish
    cell = 1500  # flat in every state
    trajectory[planted].values[cell] += 0.05
    streamed, _ = streamed_audit(trajectory, weights)
    assert streamed == audit_trajectory(trajectory, weights, GODUNOV)
    assert streamed == reference_audit(trajectory, weights, GODUNOV)
    report = streamed[-1]
    constants = kruzhkov_constants(trajectory[0])
    worst, at = _oracle_location(trajectory, weights, GODUNOV, constants)
    tol = 16 * np.finfo(float).eps * 2.0
    assert not report.passed
    assert report.location[:2] == at[:2] == (planted, cell)
    assert abs(report.violation - worst) <= tol
    # every constant at or below the flat 0.2 reaches 0.05 in real arithmetic, so
    # the oracle's own argmax pins c only up to round-off
    step_n, j, c = report.location
    residual = reference_entropy_matrix(trajectory[step_n - 1], trajectory[step_n], weights,
                                        GODUNOV, [c])[0, j]
    assert abs(residual - worst) <= tol


def test_a_nonfinite_state_inside_the_third_block():
    """A NaN inside the third block fails every audit at its (step, cell); the
    entropy audit has run the two blocks before it and no other."""
    trajectory, weights = narrow_bump_run()
    blocks = _block_steps(trajectory[0].n_cells, weights.n_terms)
    bad = 2 * blocks + 2  # the third block holds steps 2B + 1 .. 3B
    trajectory[bad].values[1500] = np.nan
    streamed, entropy_blocks = streamed_audit(trajectory, weights)
    assert entropy_blocks == 2
    assert streamed == audit_trajectory(trajectory, weights, GODUNOV)
    for report in streamed:
        assert not report.passed and report.violation == np.inf
        assert report.location == (bad, 1500)
