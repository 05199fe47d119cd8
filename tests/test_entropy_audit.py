"""The straddle-confined cell entropy audit against the full q-sum oracle.

Off the straddle set the audit replaces the q-sum of cell j by -S_j or +S_j,
the step's own flux sum, which is exact in real arithmetic.  In floating point
the two forms group the same terms differently, so the audit is pinned to the
oracle within ENTROPY_ULPS eps * (1 + max|u|).
"""

import numpy as np
import pytest

from horizonflux import (
    BOUNDARY_MODES,
    PROFILE_NAMES,
    GridState,
    TwoPointFlux,
    check_entropy,
    cell_entropy_residual,
    entropy_residuals,
    kruzhkov_constants,
    make_flux,
    make_local_flux,
    step,
)
from horizonflux.diagnostics import _entropy_residual_matrix
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


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64])
def test_audit_matrix_matches_full_q_sum(r, boundary):
    n = 48  # r = 64 on a periodic grid is a horizon longer than the domain
    dx = 1.0 / n
    rng = np.random.default_rng(7 * r + len(boundary))
    for name, state in data_sets(rng, n, dx, boundary).items():
        tol = bound(state)
        for constants in (kruzhkov_constants(state, n=9), user_constants(state)):
            for profile in PROFILE_NAMES:
                weights = weights_for_r(r, dx, profile)
                for flux in every_flux():
                    after = step(state, weights, flux, 0.2 * dx)
                    got = _entropy_residual_matrix(state, after, weights, flux, constants)
                    want = reference_entropy_matrix(state, after, weights, flux, constants)
                    np.testing.assert_allclose(
                        got, want, rtol=0.0, atol=tol,
                        err_msg=f"{flux.family}/{flux.local.name} {name} {profile}",
                    )


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
    elements = []
    evaluator = TwoPointFlux.shifted_pair_evaluator

    def counted(flux, values):
        ev = evaluator(flux, values)

        def tally(k):
            out = ev(k)
            elements.append(out.size)
            return out

        return tally

    monkeypatch.setattr(TwoPointFlux, "shifted_pair_evaluator", counted)
    got = _entropy_residual_matrix(*trajectory, weights, GODUNOV, constants)
    fast = sum(elements)
    elements.clear()
    want = reference_entropy_matrix(*trajectory, weights, GODUNOV, constants)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=bound(trajectory[0]))
    assert fast < 0.25 * sum(elements)


def test_nonfinite_stencils_take_the_q_sum():
    trajectory, weights = shock_run(n=64, r=4, steps=1, boundary="periodic")
    before, after = trajectory
    before.values[30] = np.nan  # two cells left of the jump, so S_j != 0 nearby
    constants = kruzhkov_constants(after)
    hit = np.zeros(64, dtype=bool)
    hit[30 - 4 : 30 + 5] = True
    for flux in every_flux():
        got = _entropy_residual_matrix(before, after, weights, flux, constants)
        want = reference_entropy_matrix(before, after, weights, flux, constants)
        if (flux.family, flux.local.name) == ("godunov", "burgers"):
            assert np.array_equal(np.isnan(got), np.broadcast_to(hit, got.shape))
        # a zero half drops one side's value, so some of those q-sums stay finite
        np.testing.assert_allclose(got, want, rtol=0.0, atol=bound(after),
                                   err_msg=f"{flux.family}/{flux.local.name}")


def test_audit_rejects_weights_for_another_dx():
    trajectory, weights = shock_run(n=32, r=2, steps=1)
    wrong = weights_for_r(2, 2.0 / 32)
    with pytest.raises(ValueError, match="weights built for"):
        step(trajectory[0], wrong, GODUNOV, 0.01)
    with pytest.raises(ValueError, match="weights built for"):
        check_entropy(trajectory, wrong, GODUNOV)
    with pytest.raises(ValueError, match="weights built for"):
        entropy_residuals(*trajectory, wrong, GODUNOV, [0.1])
    with pytest.raises(ValueError, match="weights built for"):
        cell_entropy_residual(*trajectory, wrong, GODUNOV, 0.1)
