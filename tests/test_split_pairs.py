"""Split-pair fluxes against the reference forms kept in ``flux_oracles``.

Godunov, Engquist-Osher and upwind must agree bit for bit with their
reference forms, on g itself and on the wide numerical flux.  Lax-Friedrichs
groups its terms differently from its reference form, so it agrees to a
pinned round-off bound.  ``step`` and the entropy audit read no pair
evaluator: they sum the split halves themselves.  Both paths of ``step`` (two
correlations, or blocks of shifts on Godunov's transonic stencils) are pinned
to the oracle's loop over k in test_solver.py, and the audit is pinned here to
the full entropy matrix built on the reference g.
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
from flux_oracles import (
    assert_entropy_matches_oracle,
    entropy_oracle,
    reference_g,
    reference_pair_evaluator,
)
from testutil import every_flux, random_state, random_step_profile, weights_for_r

# |split pair - reference| for Lax-Friedrichs on data in [-1, 1]; the worst
# case measured over this module's inputs is 2 eps (wide flux).
LF_ATOL = 8 * np.finfo(float).eps


def assert_agrees(flux, got, want, what="g"):
    label = f"{flux.family} over {flux.local.name}: {what}"
    if flux.family == "lax_friedrichs":
        np.testing.assert_allclose(got, want, rtol=0.0, atol=LF_ATOL, err_msg=label)
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
                trajectory = [state, step(state, weights, flux, 0.2 * dx)]
                wide = wide_numerical_flux(state, weights, flux)
                report = check_entropy(trajectory, weights, flux, constants)
                with monkeypatch.context() as m:
                    m.setattr(TwoPointFlux, "shifted_pair_evaluator", reference_pair_evaluator)
                    assert_agrees(flux, wide, wide_numerical_flux(state, weights, flux),
                                  "wide_flux")
                    steps = entropy_oracle(trajectory, weights, flux, constants, dense=False)
                    assert_entropy_matches_oracle(report, trajectory, weights, flux, constants,
                                                  steps)
