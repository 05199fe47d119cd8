import dataclasses

import numpy as np
import pytest

from horizonflux import (
    GridState,
    Kernel,
    RiemannData,
    SchemeConfig,
    audit_stream,
    audit_trajectory,
    check_conservation,
    check_entropy,
    check_l1_contraction,
    check_max_principle,
    check_ordering,
    check_tvd,
    compute_weights,
    kruzhkov_constants,
    make_flux,
    make_local_flux,
    run,
    step,
    total_variation,
)
from horizonflux import diagnostics
from testutil import every_flux, random_state, weights_for_r

GODUNOV = make_flux("godunov", make_local_flux("burgers"))


def shock_trajectory(mesh_ratio=0.9, n=128, T=0.3, r=2):
    dx = 2.0 / n
    cfg = SchemeConfig(kernel=Kernel(r * dx, "uniform"),
                       flux=GODUNOV, mesh_ratio=mesh_ratio, final_time=T)
    trajectory = []
    run(cfg, RiemannData(1.0, 0.0), x0=-1.0, dx=dx, n_cells=n, boundary="constant_extension",
        enforce_cfl=False, breakpoints=(0.0,), observer=trajectory.append)
    return trajectory


# -- norms ---------------------------------------------------------------------


def test_norms_hand_values():
    state = GridState(dx=0.5, x0=0.0, values=np.array([1.0, -2.0, 3.0]))
    assert total_variation(state) == pytest.approx(10.0)  # |−3| + |5| + |−2| wrap
    clamped = GridState(dx=0.5, x0=0.0, values=np.array([1.0, -2.0, 3.0]),
                        boundary="constant_extension")
    assert total_variation(clamped) == pytest.approx(8.0)  # ghosts add nothing


def test_norms_constant_state():
    state = GridState(dx=0.1, x0=0.0, values=np.full(7, 4.2))
    assert total_variation(state) == 0.0


# -- max principle and TVD -------------------------------------------------------


def test_constant_trajectory_passes_cleanly():
    states = [GridState(dx=0.1, x0=0.0, values=np.full(9, 2.0), time=0.1 * i)
              for i in range(4)]
    for check in (check_max_principle, check_tvd):
        rep = check(states)
        assert rep.passed and rep.violation == 0.0


def test_compliant_riemann_run_passes():
    traj = shock_trajectory()
    assert check_max_principle(traj).passed
    assert check_tvd(traj).passed


def test_cfl_violation_is_detected():
    # mesh ratio 2 on the data box [0, 1]: 1.5x the sharp bound 1 / (dx sum_k W_k) = 4/3 at r = 2
    traj = shock_trajectory(mesh_ratio=2.0)
    mp = check_max_principle(traj)
    tvd = check_tvd(traj)
    assert not mp.passed or not tvd.passed
    bad = mp if not mp.passed else tvd
    assert bad.violation > bad.tolerance
    assert bad.location is not None


def test_conservation_on_periodic_run():
    rng = np.random.default_rng(3)
    state = random_state(rng, n=64, dx=1 / 64)
    weights = weights_for_r(3, 1 / 64)
    traj = [state]
    for _ in range(40):
        traj.append(step(traj[-1], weights, GODUNOV, 0.4 / 64))
    rep = check_conservation(traj)
    assert rep.passed


def test_conservation_requires_periodic():
    state = GridState(dx=1.0, x0=0.0, values=np.zeros(3), boundary="constant_extension")
    with pytest.raises(ValueError, match="periodic"):
        check_conservation([state])


# -- contraction and ordering ------------------------------------------------------


def test_identical_trajectories_have_zero_distance_forever():
    traj = shock_trajectory(n=64, T=0.2)
    rep = check_l1_contraction(traj, traj)
    assert rep.passed and rep.violation == 0.0


def test_perturbed_riemann_distances_non_increasing():
    n, r = 128, 3
    dx = 2.0 / n
    weights = weights_for_r(r, dx)
    dt = 0.45 * dx
    rng = np.random.default_rng(5)
    u = GridState(dx=dx, x0=-1.0, values=RiemannData(1.0, 0.0)(np.linspace(-1 + dx / 2, 1 - dx / 2, n)),
                  boundary="constant_extension")
    v = GridState(dx=dx, x0=-1.0, values=np.clip(u.values + rng.uniform(-0.1, 0.1, n), 0, 1),
                  boundary="constant_extension")
    traj_u, traj_v = [u], [v]
    for _ in range(60):
        traj_u.append(step(traj_u[-1], weights, GODUNOV, dt))
        traj_v.append(step(traj_v[-1], weights, GODUNOV, dt))
    assert check_l1_contraction(traj_u, traj_v).passed


def test_ordering_preserved_and_validated():
    n = 96
    dx = 1.0 / n
    rng = np.random.default_rng(8)
    lo = random_state(rng, n=n, dx=dx, box=(-0.5, 0.2))
    hi = GridState(dx=dx, x0=0.0, values=lo.values + rng.uniform(0.0, 0.6, n))
    weights = weights_for_r(2, dx)
    traj_lo, traj_hi = [lo], [hi]
    for _ in range(30):
        traj_lo.append(step(traj_lo[-1], weights, GODUNOV, 0.4 * dx))
        traj_hi.append(step(traj_hi[-1], weights, GODUNOV, 0.4 * dx))
    assert check_ordering(traj_lo, traj_hi).passed
    with pytest.raises(ValueError, match="ordered"):
        check_ordering(traj_hi, traj_lo)


def _run(rows, dx=0.5, x0=0.0, boundary="periodic"):
    return [GridState(dx=dx, x0=x0, values=np.array(v, dtype=float), boundary=boundary,
                      time=0.1 * i) for i, v in enumerate(rows)]


TWO_RUN_CHECKS = {"l1_contraction": check_l1_contraction, "ordering": check_ordering}


@pytest.mark.parametrize("check", TWO_RUN_CHECKS.values(), ids=TWO_RUN_CHECKS.keys())
def test_two_run_checks_share_one_input_rule_and_tie_rule(check):
    zeros = _run([[0.0] * 4] * 2)
    for other in (_run([[0.0]] * 2), _run([[0.0] * 4] * 2, dx=0.25),
                  _run([[0.0] * 4] * 2, x0=0.5),
                  _run([[0.0] * 4] * 2, boundary="constant_extension")):
        for pair in ((zeros, other), (other, zeros)):
            with pytest.raises(ValueError, match="states live on different grids"):
                check(*pair)
        # the streamed checks hold every later state to u^0's grid alike
        for streamed in (check_tvd, check_conservation):
            with pytest.raises(ValueError, match="states live on different grids"):
                streamed(zeros[:1] + other[1:])
    with pytest.raises(ValueError, match="different grids"):  # a later state off the grid
        check(zeros, zeros[:1] + _run([[0.0] * 4], dx=0.25))
    with pytest.raises(ValueError, match="different lengths"):
        check(zeros, zeros[:1])
    # distances 0, 1, 0, 1 and the excess 1 at (1, 1), (1, 3), (3, 0) and (3, 1):
    # a tie keeps the earliest step, then the lowest cell
    a = _run([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 0]])
    report = check(a, _run([[0.0] * 4] * 4))
    assert not report.passed and report.violation == 1.0
    assert report.location == {check_l1_contraction: (1,), check_ordering: (1, 1)}[check]


@pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
@pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129, 2560])
def test_row_reductions_equal_the_one_state_norms(n, boundary):
    """The block and two-run checks sum rows; each row is the float that
    total_variation or dx * sum_j |a_j - b_j| gives for its states, bit for bit."""
    rng = np.random.default_rng(n)
    dx = 1.0 / n
    zero = GridState(dx=dx, x0=0.0, values=np.zeros(n), boundary=boundary)
    weights = weights_for_r(3, dx)
    # the first of each pair sits within round-off of the grid: each distance takes its dx
    states = [GridState(dx=dx * (1.0 + 1e-13 * (k % 2 == 0)), x0=0.0,
                        values=rng.uniform(-1.0, 1.0, n), boundary=boundary, time=0.1)
              for k in range(6)]
    block = np.stack([s.extended(3) for s in states])[:, 3 : 3 + n]  # rows as the stream holds them
    rows = diagnostics._tv_rows(block, boundary == "periodic")
    assert list(rows) == [total_variation(s) for s in states]
    for a, b in zip(states[::2], states[1::2]):
        # from a zero state each violation is the later state's norm itself
        assert check_tvd([zero, a]).violation == total_variation(a)
        assert audit_trajectory([zero, a], weights, GODUNOV)[1].violation == total_variation(a)
        distance = a.dx * float(np.sum(np.abs(a.values - b.values)))
        assert check_l1_contraction([zero, a], [zero, b]).violation == distance
        assert check_l1_contraction([a, zero], [b, zero]).tolerance == 1e-12 * (1.0 + distance)


# -- cell entropy -------------------------------------------------------------------


def test_entropy_residual_zero_for_constants():
    state = GridState(dx=0.1, x0=0.0, values=np.full(9, 1.3), time=0.0)
    after = GridState(dx=0.1, x0=0.0, values=np.full(9, 1.3), time=0.05)
    weights = weights_for_r(2, 0.1)
    for c in (-1.0, 0.0, 1.3, 7.0):
        rep = check_entropy([state, after], weights, GODUNOV, [c])
        assert rep.violation == 0.0 and rep.location is None


def test_entropy_residual_outside_range_reduces_to_update_identity():
    rng = np.random.default_rng(13)
    state = random_state(rng, n=64, dx=1 / 64)
    weights = weights_for_r(4, 1 / 64)
    after = step(state, weights, GODUNOV, 0.4 / 64)
    for c in (-5.0, 5.0):
        assert check_entropy([state, after], weights, GODUNOV, [c]).violation <= 1e-13


def test_entropy_residuals_nonpositive_for_riemann_step():
    traj = shock_trajectory(n=128, T=0.05)
    weights = compute_weights(Kernel(2 * (2.0 / 128), "uniform"), 2.0 / 128)
    constants = kruzhkov_constants(traj[0])
    assert len(constants) == 17
    scale = 1.0 + np.max(np.abs(traj[0].values))
    for n in range(len(traj) - 1):
        rep = check_entropy(traj[n : n + 2], weights, GODUNOV, constants)
        assert rep.violation <= 1e-10 * scale


def test_check_entropy_report():
    traj = shock_trajectory(n=64, T=0.1)
    weights = compute_weights(Kernel(2 * (2.0 / 64), "uniform"), 2.0 / 64)
    rep = check_entropy(traj, weights, GODUNOV)
    assert rep.passed
    payload = rep.as_dict()
    assert set(payload) == {"name", "passed", "violation", "tolerance", "location"}


def test_entropy_residual_rejects_bad_pairs():
    state = GridState(dx=0.1, x0=0.0, values=np.zeros(5), time=0.1)
    earlier = GridState(dx=0.1, x0=0.0, values=np.zeros(5), time=0.0)
    weights = weights_for_r(1, 0.1)
    with pytest.raises(ValueError, match="one step"):
        check_entropy([state, earlier], weights, GODUNOV, [0.0])
    other = GridState(dx=0.2, x0=0.0, values=np.zeros(5), time=0.2)
    with pytest.raises(ValueError, match="grids"):
        check_entropy([earlier, other], weights, GODUNOV, [0.0])


# -- non-finite states and the audit bundle ------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at, cells, states", [
    pytest.param((0, 3), (3, 8), (0,), id="at0"),
    pytest.param((2, 7), (7, 12), (2,), id="at1"),
    # the same value at adjacent cells of u^0 and u^1
    pytest.param((0, 10), (10, 11), (0, 1), id="same_in_u0_and_u1"),
])
def test_nonfinite_state_fails_every_audit(bad, at, cells, states):
    """No inf - inf reaches the streamed reductions: tier-1 turns RuntimeWarnings into errors."""
    rng = np.random.default_rng(21)
    dx = 1 / 32
    weights = weights_for_r(2, dx)
    traj = [random_state(rng, n=32, dx=dx)]
    for _ in range(4):
        traj.append(step(traj[-1], weights, GODUNOV, 0.3 * dx))
    clean = [GridState(dx=s.dx, x0=s.x0, values=s.values.copy(), boundary=s.boundary,
                       time=s.time) for s in traj]
    for n in states:
        traj[n].values[list(cells)] = bad
    for report in (check_max_principle(traj), check_tvd(traj), check_conservation(traj),
                   check_entropy(traj, weights, GODUNOV),
                   check_l1_contraction(traj, clean), check_l1_contraction(clean, traj),
                   check_ordering(traj, traj)):
        assert not report.passed, report.name
        assert report.violation == np.inf
        assert report.location == at


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 1])
def test_the_same_infinity_in_both_runs_fails_the_two_run_audits(bad, at):
    """Both runs hold one infinity at one cell: no inf - inf (or -inf + inf in the
    ordering bound) reaches the arithmetic, since tier-1 turns RuntimeWarnings
    into errors."""
    dx = 1 / 32
    u0 = random_state(np.random.default_rng(8), n=32, dx=dx)
    traj = [u0, step(u0, weights_for_r(2, dx), GODUNOV, 0.3 * dx)]
    traj[at].values[10] = bad
    for report in (check_l1_contraction(traj, traj), check_ordering(traj, traj)):
        assert not report.passed, report.name
        assert report.violation == np.inf
        assert report.location == (at, 10)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["u0", "u1", "both"])
def test_nonfinite_step_fails_the_entropy_audit_without_warning(bad, where):
    """No inf - inf reaches the audit's arithmetic: tier-1 turns RuntimeWarnings into errors."""
    dx = 1 / 32
    weights = weights_for_r(2, dx)
    for flux in every_flux():
        u0 = random_state(np.random.default_rng(5), n=32, dx=dx)
        u1 = step(u0, weights, flux, 0.2 * dx)
        for state in {"u0": [u0], "u1": [u1], "both": [u0, u1]}[where]:
            state.values[10] = bad
        for constants in (None, [-0.5, 0.0, 0.5]):
            report = check_entropy([u0, u1], weights, flux, constants)
            assert not report.passed
            assert report.violation == np.inf
            assert report.location == ((0, 10) if where != "u1" else (1, 10))


@pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
def test_audit_trajectory_bundles_the_four_checks(boundary):
    traj = shock_trajectory(n=64, T=0.1)
    if boundary == "periodic":
        traj = [GridState(dx=s.dx, x0=s.x0, values=s.values, time=s.time) for s in traj]
    weights = compute_weights(Kernel(2 * (2.0 / 64), "uniform"), 2.0 / 64)
    want = [check_max_principle(traj), check_tvd(traj)]
    if boundary == "periodic":
        want.append(check_conservation(traj))
    want.append(check_entropy(traj, weights, GODUNOV))
    reports = audit_trajectory(traj, weights, GODUNOV)
    assert reports == want
    # the entropy report carries its audit's work counters, and no other report does
    audit = audit_stream(weights, GODUNOV)
    for state in traj:
        audit(state)
    entropy = reports[-1]
    assert set(entropy.counts) == {"entropy_blocks", "side_residuals", "straddle_residuals",
                                   "certified_items", "stencil_values"}
    assert entropy.counts == audit.finish()[-1].counts == want[-1].counts
    assert all(rep.counts is None for rep in reports[:-1])
    # they are not part of the verdict: not serialized, compared or hashed
    assert "counts" not in entropy.as_dict()
    other = dataclasses.replace(entropy, counts={})
    assert other == entropy and hash(other) == hash(entropy)


EMPTY_AUDITS = {
    "max_principle": check_max_principle,
    "tvd": check_tvd,
    "conservation": check_conservation,
    "entropy": lambda t: check_entropy(t, weights_for_r(1, 0.1), GODUNOV),
    "l1_contraction": lambda t: check_l1_contraction(t, t),
    "ordering": lambda t: check_ordering(t, t),
    "audit_trajectory": lambda t: audit_trajectory(t, weights_for_r(1, 0.1), GODUNOV),
}


@pytest.mark.parametrize("audit", EMPTY_AUDITS.values(), ids=EMPTY_AUDITS.keys())
def test_an_empty_trajectory_fails_every_audit_alike(audit):
    with pytest.raises(ValueError, match="the audit saw no state"):
        audit([])
