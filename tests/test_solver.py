import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonflux import (
    CflViolationError,
    GridState,
    Kernel,
    RiemannData,
    SchemeConfig,
    cell_average_init,
    compute_weights,
    make_flux,
    make_local_flux,
    run,
    step,
    step_conservative_form,
    validate_cfl,
    wide_numerical_flux,
)
from testutil import random_state, weights_for_r

GODUNOV = make_flux("godunov", make_local_flux("burgers"))


def classical_three_point(state, flux, dt):
    """Independent reference: the standard three-point conservative update."""
    u = state.values
    if state.boundary == "periodic":
        ext = np.concatenate([u[-1:], u, u[:1]])
    else:
        ext = np.concatenate([u[:1], u, u[-1:]])
    g = flux.g(ext[:-1], ext[1:])
    return u - (dt / state.dx) * (g[1:] - g[:-1])


# -- initialization -----------------------------------------------------------


def test_cell_average_constant():
    state = cell_average_init(lambda x: np.full_like(x, 3.0), dx=0.25, x0=0.0, n_cells=8)
    np.testing.assert_array_equal(state.values, np.full(8, 3.0))


def test_cell_average_riemann_subcell():
    # indicator of x < 0.25 averaged over the single cell [0, 1)
    data = RiemannData(1.0, 0.0, x_jump=0.25)
    state = cell_average_init(data, dx=1.0, x0=0.0, n_cells=1)
    assert state.values[0] == pytest.approx(0.25, abs=1e-15)
    # two jumps in one cell: u = 1 on [0.02, 0.05) within [0, 0.1), either order
    pulse = lambda x: np.where((x >= 0.02) & (x < 0.05), 1.0, 0.0)
    for jumps in ((0.02, 0.05), (0.05, 0.02)):
        state = cell_average_init(pulse, dx=0.1, x0=0.0, n_cells=1, breakpoints=jumps)
        assert state.values[0] == pytest.approx(0.3, abs=1e-15), jumps


def test_cell_average_linear():
    state = cell_average_init(lambda x: x, dx=1.0, x0=0.0, n_cells=1)
    assert state.values[0] == pytest.approx(0.5, abs=1e-15)


def test_cell_average_scalar_only_function():
    state = cell_average_init(lambda x: 1.0 if x < 0.5 else 0.0, dx=1.0, x0=0.0,
                              n_cells=1, breakpoints=(0.5,))
    assert state.values[0] == pytest.approx(0.5, abs=1e-15)


def test_cell_average_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"), np.errstate(divide="ignore", invalid="ignore"):
        cell_average_init(lambda x: x / (x - x), dx=1.0, x0=0.0, n_cells=2)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_cell_average_rejects_non_finite_breakpoints(bad):
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        cell_average_init(lambda x: np.zeros_like(x), dx=0.5, x0=0.0, n_cells=4,
                          breakpoints=(0.2, bad))


# -- single steps --------------------------------------------------------------


@pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
def test_constant_state_is_a_fixed_point(boundary):
    state = GridState(dx=0.1, x0=0.0, values=np.full(12, 1.7), boundary=boundary)
    weights = compute_weights(Kernel(0.35, "triangular"), 0.1)
    out = step(state, weights, GODUNOV, 0.04)
    np.testing.assert_array_equal(out.values, state.values)


def test_three_cell_example():
    # hand evaluation: g(0,1)=0, g(1,0)=0.5, g(0,0)=0
    state = GridState(dx=1.0, x0=0.0, values=np.array([0.0, 1.0, 0.0]), boundary="periodic")
    weights = compute_weights(Kernel(0.5, "uniform"), 1.0)
    out = step(state, weights, GODUNOV, 0.5)
    np.testing.assert_allclose(out.values, [0.0, 0.75, 0.25], atol=1e-15)
    assert out.values.sum() == pytest.approx(state.values.sum(), abs=1e-14)


def test_subgrid_horizon_reduces_to_three_point_scheme():
    rng = np.random.default_rng(2)
    fluxes = [
        GODUNOV,
        make_flux("engquist_osher", make_local_flux("burgers")),
        make_flux("lax_friedrichs", make_local_flux("burgers"), lf_lambda=1.0),
    ]
    for _ in range(40):
        n = int(rng.integers(8, 65))
        dx = 1.0 / n
        state = random_state(rng, n=n, dx=dx, boundary=rng.choice(["periodic", "constant_extension"]))
        weights = compute_weights(Kernel(0.4 * dx, "uniform"), dx)
        flux = fluxes[rng.integers(len(fluxes))]
        dt = 0.4 * dx / 2.0
        out = step(state, weights, flux, dt)
        ref = classical_three_point(state, flux, dt)
        assert np.max(np.abs(out.values - ref)) <= 1e-13


def test_step_rejects_mismatched_weights():
    state = random_state(np.random.default_rng(0), n=16, dx=0.5)
    weights = compute_weights(Kernel(1.0, "uniform"), 0.25)
    with pytest.raises(ValueError, match="dx"):
        step(state, weights, GODUNOV, 0.1)


def test_conservative_form_matches_step():
    rng = np.random.default_rng(9)
    for _ in range(30):
        r = int(rng.integers(1, 65))
        n = 128
        dx = 1.0 / n
        state = random_state(rng, n=n, dx=dx, boundary=rng.choice(["periodic", "constant_extension"]))
        weights = weights_for_r(r, dx, rng.choice(["uniform", "triangular", "quadratic"]))
        dt = 0.2 * dx
        a = step(state, weights, GODUNOV, dt)
        b = step_conservative_form(state, weights, GODUNOV, dt)
        scale = 1.0 + np.max(np.abs(state.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


def test_wide_flux_is_consistent_on_constants():
    state = GridState(dx=0.125, x0=-1.0, values=np.full(16, -0.6), boundary="periodic")
    weights = weights_for_r(5, 0.125)
    edges = wide_numerical_flux(state, weights, GODUNOV)
    np.testing.assert_allclose(edges, GODUNOV.f(-0.6), atol=1e-14)
    out = step_conservative_form(state, weights, GODUNOV, 0.05)
    np.testing.assert_allclose(out.values, state.values, atol=1e-15)


# -- CFL ------------------------------------------------------------------------


def test_validate_cfl_names_the_bound():
    with pytest.raises(CflViolationError, match="dt/dx <= 0.5"):
        validate_cfl(GODUNOV, 0.8, -1.0, 1.0)
    validate_cfl(GODUNOV, 0.45, -1.0, 1.0)
    lf = make_flux("lax_friedrichs", make_local_flux("burgers"), lf_lambda=2.0)
    with pytest.raises(CflViolationError, match="lf_lambda"):
        validate_cfl(lf, 0.1, -1.0, 1.0)


# -- run orchestration ------------------------------------------------------------


def _shock_config(delta, dx, mesh_ratio=0.9, T=0.5):
    return SchemeConfig(
        kernel=Kernel(delta, "uniform"),
        flux=GODUNOV,
        mesh_ratio=mesh_ratio,
        final_time=T,
    )


def test_run_zero_time_returns_initial_state():
    cfg = _shock_config(0.05, 1 / 32, T=0.0)
    traj = run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=1 / 32, n_cells=64,
               boundary="constant_extension")
    assert len(traj) == 1
    assert traj[0].time == 0.0


def test_run_lands_exactly_on_final_time():
    # T is not a multiple of dt, so the last step must shorten
    cfg = _shock_config(0.05, 1 / 32, mesh_ratio=0.9, T=0.33)
    traj = []
    run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=1 / 32, n_cells=64,
        boundary="constant_extension", observer=traj.append)
    assert traj[-1].time == pytest.approx(0.33, abs=1e-14)
    dts = np.diff([s.time for s in traj])
    assert np.all(dts[:-1] == pytest.approx(0.9 / 32))
    assert dts[-1] < 0.9 / 32


def test_run_snapshots_select_time_cells():
    cfg = _shock_config(0.05, 1 / 32, mesh_ratio=0.5, T=0.5)
    dt = 0.5 / 32
    targets = [0.0, 0.2, 0.5]
    snaps = run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=1 / 32, n_cells=64,
                boundary="constant_extension", output_times=targets)
    assert len(snaps) == 3
    assert snaps[0].time == 0.0
    # 0.2 lies in the time cell starting at floor(0.2/dt)*dt
    assert snaps[1].time == pytest.approx(math.floor(0.2 / dt) * dt, abs=1e-12)
    assert snaps[2].time == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("store", ["snapshots", "all"])
@pytest.mark.parametrize("times", [[99.0], [0.5, -0.1], [np.nan]])
def test_run_rejects_output_times_outside_the_run(store, times):
    # "all" keeps every state through the observer; the times are rejected
    # before the observer sees u^0.
    cfg = _shock_config(0.05, 1 / 32, T=1.0)
    traj = []
    observer = traj.append if store == "all" else None
    with pytest.raises(ValueError, match="outside"):
        run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=1 / 32, n_cells=64,
            boundary="constant_extension", output_times=times, observer=observer)
    assert traj == []


def test_run_enforces_cfl_by_default():
    cfg = _shock_config(0.05, 1 / 32, mesh_ratio=1.7)
    with pytest.raises(CflViolationError):
        run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=1 / 32, n_cells=64,
            boundary="constant_extension")


def test_run_aborts_on_blowup_with_step_index():
    cfg = _shock_config(0.05, 1 / 32, mesh_ratio=40.0, T=20.0)
    with pytest.raises(RuntimeError, match=r"step \d+"), np.errstate(over="ignore", invalid="ignore"):
        run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=1 / 32, n_cells=64,
            boundary="constant_extension", enforce_cfl=False)


def test_shock_front_moves_at_rankine_hugoniot_speed():
    dx = 1 / 128
    cfg = _shock_config(2 * dx, dx)
    traj = run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=dx, n_cells=256,
               boundary="constant_extension")
    final = traj[-1]
    crossings = np.where((final.values[:-1] >= 0.5) & (final.values[1:] < 0.5))[0]
    front = final.centers[crossings[0]]
    assert front == pytest.approx(0.25, abs=3 * dx)  # s = (1 + 0) / 2


def test_advection_error_first_order_and_shrinking():
    up = make_flux("upwind_linear", make_local_flux("linear_advection", speed=1.0))
    u0 = lambda x: np.sin(np.pi * x) ** 2
    errors = []
    for n in (64, 128):
        cfg = SchemeConfig(kernel=Kernel(1.5 / n, "uniform"), flux=up,
                           mesh_ratio=0.9, final_time=1.0)
        traj = run(cfg, u0, x0=0.0, dx=1 / n, n_cells=n, boundary="periodic")
        # after one period the exact solution equals the initial data
        err = np.sum(np.abs(traj[-1].values - traj[0].values)) / n
        errors.append(err)
    assert errors[1] < errors[0]
    assert 0.5 < np.log2(errors[0] / errors[1]) < 1.5


# -- reconstruction ---------------------------------------------------------------


def test_reconstruct_cells_and_edges():
    state = GridState(dx=0.5, x0=0.0, values=np.array([1.0, 2.0, 3.0]),
                      boundary="constant_extension")
    assert state.reconstruct(0.25) == 1.0  # midpoint of cell 0
    assert state.reconstruct(0.5) == 2.0  # edge belongs to the right cell
    assert state.reconstruct(5.0) == 3.0  # beyond the domain: edge value
    assert state.reconstruct(-3.0) == 1.0
    periodic = GridState(dx=0.5, x0=0.0, values=np.array([1.0, 2.0, 3.0]))
    assert periodic.reconstruct(1.75) == 1.0  # wraps past the right end


def test_reconstruct_is_bounded_by_initial_range():
    rng = np.random.default_rng(12)
    state = random_state(rng, n=64, dx=1 / 64)
    weights = weights_for_r(3, 1 / 64)
    out = step(state, weights, GODUNOV, 0.2 / 64)
    x = rng.uniform(-1.0, 2.0, 500)
    vals = out.reconstruct(x)
    assert np.all(vals <= np.max(state.values) + 1e-12)
    assert np.all(vals >= np.min(state.values) - 1e-12)


def test_extended_ghost_reads():
    state = GridState(dx=1.0, x0=0.0, values=np.array([1.0, 2.0, 3.0]),
                      boundary="constant_extension")
    np.testing.assert_array_equal(state.extended(2), [1, 1, 1, 2, 3, 3, 3])
    wrap = GridState(dx=1.0, x0=0.0, values=np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(wrap.extended(4), [3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1])


# -- discrete invariants under stepping --------------------------------------------


@given(seed=st.integers(0, 10_000), r=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_step_obeys_max_principle_tvd_conservation(seed, r):
    rng = np.random.default_rng(seed)
    n = 64
    dx = 1.0 / n
    state = random_state(rng, n=n, dx=dx, boundary="periodic")
    weights = weights_for_r(r, dx)
    dt = 0.45 * dx  # L1 + L2 = 2 on [-1, 1]
    lo, hi = state.values.min(), state.values.max()
    tv0 = np.sum(np.abs(np.diff(state.values))) + abs(state.values[0] - state.values[-1])
    mass0 = state.values.sum()
    for _ in range(10):
        state = step(state, weights, GODUNOV, dt)
    assert np.all(state.values <= hi + 1e-12)
    assert np.all(state.values >= lo - 1e-12)
    tv = np.sum(np.abs(np.diff(state.values))) + abs(state.values[0] - state.values[-1])
    assert tv <= tv0 + 1e-12
    assert state.values.sum() == pytest.approx(mass0, abs=1e-11)


def test_step_preserves_ordering_and_contracts_l1():
    rng = np.random.default_rng(77)
    n = 64
    dx = 1.0 / n
    u = random_state(rng, n=n, dx=dx, box=(-0.9, 0.4))
    v = GridState(dx=dx, x0=0.0, values=u.values + rng.uniform(0.0, 0.5, n))
    weights = weights_for_r(4, dx)
    dt = 0.4 * dx
    dist = dx * np.sum(np.abs(u.values - v.values))
    for _ in range(25):
        u = step(u, weights, GODUNOV, dt)
        v = step(v, weights, GODUNOV, dt)
        assert np.all(u.values <= v.values + 1e-12)
        new_dist = dx * np.sum(np.abs(u.values - v.values))
        assert new_dist <= dist + 1e-13
        dist = new_dist
