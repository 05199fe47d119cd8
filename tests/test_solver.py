import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonflux import (
    BOUNDARY_MODES,
    PROFILE_NAMES,
    CflViolationError,
    GridState,
    Kernel,
    RiemannData,
    SchemeConfig,
    TwoPointFlux,
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
from flux_oracles import entropy_bound, reference_rate
from testutil import (every_flux, random_state, random_step_profile, reconstruct,
                      weights_for_r)

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


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
def test_constant_state_is_a_fixed_point(boundary):
    """Bit for bit, for every flux, profile and r <= 256 (check_entropy skips the
    cells of a flat stencil that the step left unchanged)."""
    state = GridState(dx=0.1, x0=0.0, values=np.full(12, 1.7), boundary=boundary)
    weights = compute_weights(Kernel(0.35, "triangular"), 0.1)
    out = step(state, weights, GODUNOV, 0.04)
    np.testing.assert_array_equal(out.values, state.values)
    n = 64
    dx = 1.0 / n
    for r in (1, 4, 16, 64, 256):
        for profile in PROFILE_NAMES:
            weights = weights_for_r(r, dx, profile)
            for flux in every_flux():
                for c in (-0.7, -0.0, 0.0, 0.3, 1.0):
                    state = GridState(dx=dx, x0=0.0, values=np.full(n, c), boundary=boundary)
                    out = step(state, weights, flux, 0.3 * dx)
                    np.testing.assert_array_equal(
                        out.values, state.values,
                        err_msg=f"{flux.family} over {flux.local.name}, r={r}, {profile}, c={c}")


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
    np.testing.assert_allclose(edges, GODUNOV.local.f(-0.6), atol=1e-14)
    out = step_conservative_form(state, weights, GODUNOV, 0.05)
    np.testing.assert_allclose(out.values, state.values, atol=1e-15)


# -- the correlation path of step against the k-loop oracle -------------------------
# ``step`` sums split fluxes as two correlations, which group the terms
# differently from the loop over k; on data in [-1, 1] the two agree to
# STEP_ATOL (the worst case measured over these inputs is eps).

STEP_ATOL = 8 * np.finfo(float).eps


def assert_matches_oracle(state, weights, flux, dt):
    got = step(state, weights, flux, dt).values
    want = state.values - dt * reference_rate(state, weights, flux)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=STEP_ATOL,
                               err_msg=f"{flux.family} over {flux.local.name}")


def _step_data(rng, n, dx, boundary):
    """Rough and stepped data with sonic zeros, a rising profile (no transonic pair
    but across the periodic wrap) and nonnegative data (none at all)."""
    rough = random_state(rng, n=n, dx=dx, boundary=boundary)
    steps = random_step_profile(rng, n=n, dx=dx, boundary=boundary)
    for data in (rough, steps):
        data.values[rng.choice(n, 4, replace=False)] = 0.0
    rising = GridState(dx=dx, x0=0.0, values=np.sort(rough.values), boundary=boundary)
    positive = GridState(dx=dx, x0=0.0, values=np.abs(rough.values), boundary=boundary)
    return rough, steps, rising, positive


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64, 256])
def test_step_matches_the_k_loop_oracle(r, boundary):
    n = 256
    dx = 1.0 / n
    rng = np.random.default_rng(1000 + r + len(boundary))
    states = _step_data(rng, n, dx, boundary)
    for profile in PROFILE_NAMES:
        weights = weights_for_r(r, dx, profile)
        for flux in every_flux():
            for state in states:
                assert_matches_oracle(state, weights, flux, 0.4 * dx)


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64, 256])
def test_godunov_loop_path_is_the_k_loop_oracle_bit_for_bit(r, boundary, monkeypatch):
    """On transonic data ``step`` sums g = max(f+, f-) over k in the oracle's order,
    and the split pair equals the interval extremum exactly."""
    n, dx = 256, 1.0 / 256
    weights = weights_for_r(r, dx)
    states = _step_data(np.random.default_rng(2000 + r), n, dx, boundary)[:2]
    for state in states:
        assert _takes_the_loop(state, weights, GODUNOV, monkeypatch)
        want = state.values - 0.4 * dx * reference_rate(state, weights, GODUNOV)
        np.testing.assert_array_equal(step(state, weights, GODUNOV, 0.4 * dx).values, want)


def _takes_the_loop(state, weights, flux, monkeypatch):
    """Whether ``step`` sums over k pair by pair: the op that ``additive_halves``
    hands ``stencil_sum``, the one thing its path turns on, is not +."""
    ops = []
    halves = TwoPointFlux.additive_halves

    def spy(self, values, reach):
        out = halves(self, values, reach)
        ops.append(out[2])
        return out

    with monkeypatch.context() as m:
        m.setattr(TwoPointFlux, "additive_halves", spy)
        step(state, weights, flux, 0.2 * state.dx)
    (op,) = ops
    return op is not np.add


@pytest.mark.parametrize("case, boundary, loop", [
    ("pair_at_R", "periodic", True),
    ("pair_at_R", "constant_extension", True),
    ("pair_at_R_plus_1", "periodic", False),
    ("pair_at_R_plus_1", "constant_extension", False),
    ("pair_across_the_wrap", "periodic", True),
    ("pair_across_the_wrap", "constant_extension", False),
    ("edge_jump_through_the_ghosts", "constant_extension", True),
])
def test_godunov_takes_the_loop_only_on_a_transonic_pair_within_reach(
        case, boundary, loop, monkeypatch):
    """A transonic pair u_i > 0 > u_j with 0 < j - i <= R makes max(f+, f-) differ
    from f+ + f-.  Constant-extension ghosts repeat the edge values, so they drop
    the pair across the wrap; an edge jump is read through them by every stencil
    that reaches past the edge."""
    n, r = 24, 4
    dx = 1.0 / n
    values = np.zeros(n)
    at = {"pair_at_R": (5, 5 + r), "pair_at_R_plus_1": (5, 6 + r),
          "pair_across_the_wrap": (n - 1, 0), "edge_jump_through_the_ghosts": (n - 2, n - 1)}
    positive, negative = at[case]
    values[positive], values[negative] = 0.5, -0.5
    state = GridState(dx=dx, x0=0.0, values=values, boundary=boundary)
    weights = weights_for_r(r, dx)
    assert _takes_the_loop(state, weights, GODUNOV, monkeypatch) == loop
    assert_matches_oracle(state, weights, GODUNOV, 0.2 * dx)


def _q_loop(flux, ext, w, c):
    """sum_k w_k [q(u_j, u_{j+k}; c) - q(u_{j-k}, u_j; c)] along the last axis of
    ``ext`` by a loop over k on ``flux.q``."""
    pad = w.size
    n = ext.shape[-1] - 2 * pad
    acc = 0.0
    for k in range(1, pad + 1):
        qk = flux.q(ext[..., :-k], ext[..., k:], c)
        acc = acc + (qk[..., pad : pad + n] - qk[..., pad - k : pad - k + n]) * w[k - 1]
    return acc


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64, 256])
def test_stencil_sum_matches_the_k_loops_of_g_and_q(r, boundary):
    """p = g is the step's rate (``==`` on the transonic loop path); p = q, with
    one c or with c per entry (constant over each gathered stencil, as the
    entropy audit hands it over), is a k-loop of ``flux.q``; a flat stencil
    sums to exactly 0 on either path.  Sums are compared as dt * sum, the term
    that ``step`` and the audit's residuals add."""
    n, dx = 64, 1.0 / 64
    dt = 0.4 * dx
    weights = weights_for_r(r, dx)
    w, pad = weights.weights, weights.n_terms
    width = 2 * pad + 1
    rng = np.random.default_rng(3000 + r + len(boundary))
    states = _step_data(rng, n, dx, boundary)
    ext = np.stack([state.extended(pad) for state in states])
    flat = [[np.ptp(row[j : j + width]) == 0.0 for j in range(n)] for row in ext]
    cs = rng.uniform(-1.1, 1.1, 2)
    # six cells' stencils per state, one after the other, each with its own constant per entry
    stencils = np.stack([row[j : j + width]
                         for row in ext for j in rng.choice(n, 6, replace=False)])
    c_cell = rng.choice(cs, (len(stencils), 1))
    c_each = np.repeat(c_cell, width, axis=1).ravel()
    q_atol = max(entropy_bound(state) for state in states)
    level = np.full(width + 2, 0.3)
    for flux in every_flux():
        label = f"{flux.family} over {flux.local.name}"
        q_want = _q_loop(flux, ext[:, None], w, cs[:, None])  # (state, c, cell)
        for state, row, q_row, flat_cells in zip(states, ext, q_want, flat):
            got = flux.stencil_sum(row, w)
            want = reference_rate(state, weights, flux)
            if flux.additive_halves(row, pad)[2] is np.add:
                np.testing.assert_allclose(dt * got, dt * want, rtol=0.0, atol=STEP_ATOL,
                                           err_msg=label)
            else:
                np.testing.assert_array_equal(got, want, err_msg=label)
            assert not got[flat_cells].any(), label
            for c, want in zip(cs, q_row):
                got = flux.stencil_sum(row, w, c)
                np.testing.assert_allclose(dt * got, dt * want, rtol=0.0, atol=q_atol,
                                           err_msg=label)
                assert not got[flat_cells].any(), label
        got = flux.stencil_sum(stencils.ravel(), w, c_each)[::width]
        want = _q_loop(flux, stencils, w, c_cell)[:, 0]
        np.testing.assert_allclose(dt * got, dt * want, rtol=0.0, atol=q_atol, err_msg=label)
        for c in (None, cs[0], np.full(level.size, cs[0])):
            assert not flux.stencil_sum(level, w, c).any(), label


def test_godunov_transonic_test_matches_a_search_over_all_pairs():
    """``additive_halves`` keeps max exactly when some A_i > 0, B_j > 0 has 0 < j - i <= reach."""
    rng = np.random.default_rng(31)
    for _ in range(2000):
        values = rng.choice([-0.5, 0.0, 0.5], int(rng.integers(1, 30)))
        reach = int(rng.integers(1, 6))
        pairs = [(i, j) for i in range(values.size) for j in range(i + 1, min(i + reach + 1, values.size))]
        transonic = any(values[i] > 0.0 > values[j] for i, j in pairs)
        a, b, op = GODUNOV.additive_halves(values, reach)
        assert (op is np.maximum) == transonic, (values, reach)
        np.testing.assert_array_equal(op(a[:-1], b[1:]), GODUNOV.g(values[:-1], values[1:]))


@pytest.mark.parametrize("reach", [1, 4, 64, 256])
def test_godunov_transonic_test_on_one_signed_and_mixed_data(reach):
    """One-signed data (u >= 0 or u <= 0) leaves one half 0 throughout and takes +
    without the run-end search; on mixed data the op still matches a search over
    every pair within reach, and the halves are A and B themselves."""
    rng = np.random.default_rng(reach)
    local = GODUNOV.local
    for _ in range(50):
        values = rng.uniform(-1.0, 1.0, int(rng.integers(1, 600)))
        values[rng.random(values.size) < 0.2] = 0.0
        for data in (np.abs(values), -np.abs(values), values):
            a, b, op = GODUNOV.additive_halves(data, reach)
            pos_a, pos_b = local.split_plus(data) > 0.0, local.split_minus(data) > 0.0
            shifts = range(1, min(reach, data.size - 1) + 1)
            transonic = any((pos_a[:-k] & pos_b[k:]).any() for k in shifts)
            assert (op is np.maximum) == transonic
            np.testing.assert_array_equal(a, local.split_plus(data))
            np.testing.assert_array_equal(b, local.split_minus(data))


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
    assert reconstruct(state, 0.25) == 1.0  # midpoint of cell 0
    assert reconstruct(state, 0.5) == 2.0  # edge belongs to the right cell
    assert reconstruct(state, 5.0) == 3.0  # beyond the domain: edge value
    assert reconstruct(state, -3.0) == 1.0
    periodic = GridState(dx=0.5, x0=0.0, values=np.array([1.0, 2.0, 3.0]))
    assert reconstruct(periodic, 1.75) == 1.0  # wraps past the right end


def test_reconstruct_is_bounded_by_initial_range():
    rng = np.random.default_rng(12)
    state = random_state(rng, n=64, dx=1 / 64)
    weights = weights_for_r(3, 1 / 64)
    out = step(state, weights, GODUNOV, 0.2 / 64)
    x = rng.uniform(-1.0, 2.0, 500)
    vals = reconstruct(out, x)
    assert np.all(vals <= np.max(state.values) + 1e-12)
    assert np.all(vals >= np.min(state.values) - 1e-12)


def test_extended_ghost_reads():
    state = GridState(dx=1.0, x0=0.0, values=np.array([1.0, 2.0, 3.0]),
                      boundary="constant_extension")
    np.testing.assert_array_equal(state.extended(2), [1, 1, 1, 2, 3, 3, 3])
    wrap = GridState(dx=1.0, x0=0.0, values=np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(wrap.extended(4), [3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1])
    for grid in (state, wrap):
        plain = grid.extended(0)  # a copy, not a view of the values
        np.testing.assert_array_equal(plain, grid.values)
        assert not np.shares_memory(plain, grid.values)
        rows = np.zeros((2, 7))
        row = rows[1]
        assert grid.extended(2, out=row) is row
        np.testing.assert_array_equal(rows, [np.zeros(7), grid.extended(2)])


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
