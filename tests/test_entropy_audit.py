"""The straddle-confined cell entropy audit against the full q-sum oracle.

Off the straddle set the audit replaces the q-sum of cell j by -S_j or +S_j,
the step's own flux sum, which is exact in real arithmetic.  In floating point
the two forms group the same terms differently, so the audit is pinned to the
oracle within ENTROPY_ULPS eps * (1 + max|u|).  ``check_entropy`` also probes
only the nearest constant on each side of a cell's stencil range plus the
straddling ones, which holds the cell's maximum in real arithmetic; its
verdict, violation and location are pinned to the full oracle matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonflux import (
    BOUNDARY_MODES,
    FLUX_FAMILIES,
    PROFILE_NAMES,
    GridState,
    TwoPointFlux,
    audit_stream,
    cfl_dt,
    check_conservation,
    check_entropy,
    check_max_principle,
    check_tvd,
    kruzhkov_constants,
    make_flux,
    make_local_flux,
    step,
)
from flux_oracles import reference_entropy_matrix
from testutil import every_flux, random_state, random_step_profile, weights_for_r

ENTROPY_ULPS = 16
GODUNOV = make_flux("godunov", make_local_flux("burgers"))


def bound(state):
    return ENTROPY_ULPS * np.finfo(float).eps * (1.0 + float(np.max(np.abs(state.values))))


def data_sets(rng, n, dx, boundary):
    """Rough, stepped with planted sonic zeros, constant, and smooth data."""
    steps = random_step_profile(rng, n=n, dx=dx, boundary=boundary)
    steps.values[rng.choice(n, 4, replace=False)] = 0.0
    x = (np.arange(n) + 0.5) * dx
    return {
        "rough": random_state(rng, n=n, dx=dx, boundary=boundary),
        "steps": steps,
        "constant": GridState(dx=dx, x0=0.0, values=np.full(n, 0.3), boundary=boundary),
        "sine": GridState(dx=dx, x0=0.0, values=np.sin(2 * np.pi * x), boundary=boundary),
    }


def user_constants(state):
    """Unsorted, repeated, equal to data values, and outside the data range."""
    u = state.values
    lo, hi = float(np.min(u)), float(np.max(u))
    return np.array([hi + 0.5, u[3], lo - 2.0, u[3], 0.0, u[-1], lo, hi, 0.5 * (lo + hi), u[3]])


def assert_matches_oracle(report, trajectory, weights, flux, constants=None):
    """Verdict, violation and location of ``check_entropy`` against the full matrices."""
    cs = kruzhkov_constants(trajectory[0]) if constants is None else np.asarray(constants)
    want = max(0.0, *(
        float(reference_entropy_matrix(a, b, weights, flux, cs).max())
        for a, b in zip(trajectory, trajectory[1:])
    ))
    tol = bound(trajectory[0])
    assert report.passed == (want <= report.tolerance)
    assert abs(report.violation - want) <= tol, (report.violation, want)
    if report.location is None:
        assert want <= tol
    else:
        n, j, c = report.location
        assert c in cs
        at = reference_entropy_matrix(trajectory[n - 1], trajectory[n], weights, flux, [c])[0, j]
        assert abs(at - want) <= tol, (report.location, at, want)


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64])
def test_check_entropy_matches_the_full_matrix_oracle(r, boundary):
    n = 48
    dx = 1.0 / n
    rng = np.random.default_rng(11 * r + len(boundary))
    for name, state in data_sets(rng, n, dx, boundary).items():
        for profile in PROFILE_NAMES:
            weights = weights_for_r(r, dx, profile)
            for flux in every_flux():
                trajectory = [state]
                for _ in range(2):
                    trajectory.append(step(trajectory[-1], weights, flux, 0.2 * dx))
                for constants in (None, user_constants(state)):
                    report = check_entropy(trajectory, weights, flux, constants)
                    assert_matches_oracle(report, trajectory, weights, flux, constants)


def shock_run(n=64, r=3, steps=3, boundary="constant_extension"):
    dx = 1.0 / n
    values = np.where(np.arange(n) < n // 2, 0.8, -0.4)
    trajectory = [GridState(dx=dx, x0=0.0, values=values, boundary=boundary)]
    weights = weights_for_r(r, dx)
    for _ in range(steps):
        trajectory.append(step(trajectory[-1], weights, GODUNOV, 0.3 * dx))
    return trajectory, weights


def reference_check(trajectory, weights, flux, constants):
    worst, where = 0.0, None
    for n in range(len(trajectory) - 1):
        matrix = reference_entropy_matrix(trajectory[n], trajectory[n + 1], weights, flux, constants)
        ic, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
        if matrix[ic, j] > worst:
            worst, where = float(matrix[ic, j]), (n + 1, int(j))
    return worst, where


@pytest.mark.parametrize("cell, constants, shift, path", [
    (5, None, 0.05, "flat"),          # S_j = 0 on a flat stencil
    (32, [1.5], -0.05, "identity"),   # c above a stencil that holds the jump: -S_j
    (32, [-1.5], 0.05, "identity"),   # c below it: +S_j
    (32, None, 0.05, "straddle"),     # c between: the q-sum itself
])
def test_planted_violation_found_at_oracle_location(cell, constants, shift, path):
    trajectory, weights = shock_run()
    r = weights.n_terms
    cs = kruzhkov_constants(trajectory[0]) if constants is None else np.array(constants)
    stencil = trajectory[-2].extended(r)[cell : cell + 2 * r + 1]
    straddles = np.any((cs > stencil.min()) & (cs < stencil.max()))
    kind = "straddle" if straddles else "flat" if stencil.min() == stencil.max() else "identity"
    assert kind == path
    assert check_entropy(trajectory, weights, GODUNOV, cs).passed
    trajectory[-1].values[cell] += shift
    report = check_entropy(trajectory, weights, GODUNOV, cs)
    worst, where = reference_check(trajectory, weights, GODUNOV, cs)
    assert not report.passed
    assert report.location[:2] == where == (len(trajectory) - 1, cell)
    assert abs(report.violation - worst) <= bound(trajectory[0])


def test_audit_takes_the_q_sum_only_on_the_straddle_block(monkeypatch):
    trajectory, weights = shock_run(n=256, r=8, steps=1, boundary="periodic")
    constants = kruzhkov_constants(trajectory[0])
    largest = constants.size * (256 + 2 * weights.n_terms)
    inputs, elements = [], []
    evaluator = TwoPointFlux.shifted_pair_evaluator

    def counted(flux, values):
        ev = evaluator(flux, values)
        inputs.append(values.size)

        def tally(k):
            out = ev(k)
            elements.append(out.size)
            return out

        return tally

    monkeypatch.setattr(TwoPointFlux, "shifted_pair_evaluator", counted)
    report = check_entropy(trajectory, weights, GODUNOV, constants)
    audit = sum(elements)
    assert max(inputs) <= largest
    elements.clear()
    reference_entropy_matrix(*trajectory, weights, GODUNOV, constants)
    oracle = sum(elements)
    assert_matches_oracle(report, trajectory, weights, GODUNOV, constants)
    assert audit < 0.25 * oracle


def test_audit_rejects_weights_for_another_dx():
    trajectory, weights = shock_run(n=32, r=2, steps=1)
    wrong = weights_for_r(2, 2.0 / 32)
    with pytest.raises(ValueError, match="weights built for"):
        step(trajectory[0], wrong, GODUNOV, 0.01)
    with pytest.raises(ValueError, match="weights built for"):
        check_entropy(trajectory, wrong, GODUNOV)


BAD_CONSTANTS = {
    "nan": [np.nan], "inf": [np.inf], "minus_inf": [0.1, -np.inf], "empty": [], "2d": [[0.1, 0.2]],
}


@pytest.mark.parametrize("bad", BAD_CONSTANTS.values(), ids=BAD_CONSTANTS.keys())
def test_bad_constants_are_rejected(bad):
    trajectory, weights = shock_run(n=32, r=2, steps=1)
    with pytest.raises(ValueError, match="constants"):
        check_entropy(trajectory, weights, GODUNOV, bad)


@pytest.mark.parametrize("n", [0, -3])
def test_kruzhkov_constants_need_a_positive_count(n):
    trajectory, _ = shock_run(n=32, r=2, steps=1)
    with pytest.raises(ValueError, match="n must be"):
        kruzhkov_constants(trajectory[0], n=n)


def _local_for(family, draw):
    names = ("burgers", "cubic", "linear_advection")
    if family == "upwind_linear":
        names = ("linear_advection",)
    return make_local_flux(draw(st.sampled_from(names)), speed=draw(st.sampled_from([0.7, -0.7])))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_monotone_runs_satisfy_the_cell_entropy_inequality(data):
    """Crandall & Majda: a monotone, consistent, conservative scheme satisfies the
    cell entropy inequalities, for every family, profile, boundary and r, up to
    the CFL bound (Lax-Friedrichs up to its monotonicity edge).  It also keeps
    the maximum principle, is TVD and, on periodic grids, conserves mass; the
    audit streamed step by step reports exactly what the list checks do."""
    family = data.draw(st.sampled_from(FLUX_FAMILIES), label="family")
    local = _local_for(family, data.draw)
    boundary = data.draw(st.sampled_from(BOUNDARY_MODES), label="boundary")
    profile = data.draw(st.sampled_from(PROFILE_NAMES), label="profile")
    r = data.draw(st.integers(1, 64), label="r")
    n = data.draw(st.integers(8, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dx = 1.0 / n
    if data.draw(st.booleans(), label="stepped"):
        state = random_step_profile(rng, n=n, dx=dx, boundary=boundary, n_jumps=3)
    else:
        state = random_state(rng, n=n, dx=dx, boundary=boundary)
    lf_lambda = None
    if family == "lax_friedrichs":
        dmin, dmax = local.df_bounds(float(state.values.min()), float(state.values.max()))
        edge = 1.0 / max(abs(dmin), abs(dmax))
        lf_lambda = edge * data.draw(st.sampled_from([1.0, 0.9, 0.5]), label="lf_fraction")
    flux = make_flux(family, local, lf_lambda=lf_lambda)
    ratio = data.draw(st.sampled_from([1.0, 0.9, 0.5, 0.1]), label="cfl_fraction")
    weights = weights_for_r(r, dx, profile)
    dt = cfl_dt(state, flux, safety=ratio)
    audit = audit_stream(weights, flux)
    trajectory = [state]
    audit(state)
    for _ in range(3):
        trajectory.append(step(trajectory[-1], weights, flux, dt))
        audit(trajectory[-1])
    reports = [check_max_principle(trajectory), check_tvd(trajectory)]
    if boundary == "periodic":
        reports.append(check_conservation(trajectory))
    reports.append(check_entropy(trajectory, weights, flux))
    assert all(rep.passed for rep in reports), reports
    assert audit.finish() == reports
    assert_matches_oracle(reports[-1], trajectory, weights, flux)
