"""Split-pair fluxes against the reference forms kept in ``flux_oracles``.

Godunov, Engquist-Osher and upwind must agree bit for bit with their
reference forms, on g itself and on everything the solver and the entropy
audit build from it.  Lax-Friedrichs groups its terms differently from its
reference form, so it agrees to a pinned round-off bound.
"""

import numpy as np
import pytest

from horizonflux import (
    BOUNDARY_MODES,
    PROFILE_NAMES,
    TwoPointFlux,
    check_entropy,
    step,
    wide_numerical_flux,
)
from flux_oracles import reference_g, reference_pair_evaluator
from testutil import every_flux, random_state, random_step_profile, weights_for_r

# |split pair - reference| for Lax-Friedrichs on data in [-1, 1]; the worst
# case measured over this module's inputs is 2 eps (wide flux, entropy).
LF_ATOL = 8 * np.finfo(float).eps


def assert_agrees(flux, got, want, what="g"):
    label = f"{flux.family} over {flux.local.name}: {what}"
    if what == "entropy" and flux.family == "lax_friedrichs":
        got, want = got["violation"], want["violation"]  # the audit's report: its worst residual
    if flux.family == "lax_friedrichs":
        np.testing.assert_allclose(got, want, rtol=0.0, atol=LF_ATOL, err_msg=label)
    elif what == "entropy":
        assert got == want, label
    else:
        np.testing.assert_array_equal(got, want, err_msg=label)


def test_g_matches_reference_on_kink_sets():
    rng = np.random.default_rng(3)
    # exact zeros and repeated values put points on a = b, a = 0 and b = 0
    u = np.concatenate([[-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 5e-324, -5e-324],
                        rng.uniform(-1.0, 1.0, 40)])
    aa, bb = np.meshgrid(u, u, indexing="ij")
    for flux in every_flux():
        assert_agrees(flux, flux.g(aa, bb), reference_g(flux, aa, bb))
        for a, b in ((0.3, 0.3), (0.0, -0.4), (0.6, 0.0), (-0.2, 0.9)):
            assert_agrees(flux, flux.g(a, b), float(reference_g(flux, a, b)))


def _solver_outputs(flux, state, weights, dt, constants):
    after = step(state, weights, flux, dt)
    return {
        "step": after.values,
        "wide_flux": wide_numerical_flux(state, weights, flux),
        "entropy": check_entropy([state, after], weights, flux, constants).as_dict(),
    }


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64])
def test_solver_and_audit_match_reference(r, boundary, monkeypatch):
    n = 48
    dx = 1.0 / n
    rng = np.random.default_rng(100 * r + len(boundary))
    for make_state in (random_state, random_step_profile):
        state = make_state(rng, n=n, dx=dx, boundary=boundary)
        state.values[rng.choice(n, 4, replace=False)] = 0.0  # sonic kinks
        lo, hi = float(state.values.min()), float(state.values.max())
        constants = np.linspace(lo - 0.1, hi + 0.1, 9)
        for profile in PROFILE_NAMES:
            weights = weights_for_r(r, dx, profile)
            for flux in every_flux():
                got = _solver_outputs(flux, state, weights, 0.2 * dx, constants)
                with monkeypatch.context() as m:
                    m.setattr(TwoPointFlux, "shifted_pair_evaluator", reference_pair_evaluator)
                    want = _solver_outputs(flux, state, weights, 0.2 * dx, constants)
                for what in got:
                    assert_agrees(flux, got[what], want[what], what)
