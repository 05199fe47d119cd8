from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from horizonflux import PROFILE_NAMES, Kernel, compute_weights

DELTAS = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
SPACINGS = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
PROFILES = st.sampled_from(PROFILE_NAMES)


# -- profiles and masses -------------------------------------------------------

# The profiles' densities rho on [0, 1]: the quadrature oracle for the closed
# antiderivatives that the library ships.
RHO = {
    "uniform": lambda s: np.ones_like(s),
    "triangular": lambda s: 2.0 * (1.0 - s),
    "quadratic": lambda s: 1.5 * (1.0 - s * s),
}


def density(kernel, h):
    """w(h) = rho(h/delta)/delta on [0, delta], zero outside; vectorized."""
    h = np.asarray(h, dtype=float)
    s = np.clip(h / kernel.delta, 0.0, 1.0)
    inside = (h >= 0.0) & (h <= kernel.delta)
    vals = np.where(inside, RHO[kernel.profile](s) / kernel.delta, 0.0)
    return float(vals) if vals.ndim == 0 else vals


def mass(kernel, a, b):
    """The kernel's exact mass on [a, b] from its closed-form antiderivative."""
    return kernel.cumulative(b) - kernel.cumulative(a)


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_profile_is_a_unit_mass_density(profile):
    kernel = Kernel(delta=1.7, profile=profile)
    h = np.linspace(0.0, 1.7, 2001)
    assert np.all(density(kernel, h) >= 0.0)
    assert density(kernel, -0.3) == 0.0
    assert density(kernel, 1.8) == 0.0
    assert abs(mass(kernel, 0.0, 1.7) - 1.0) <= 1e-12


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_antiderivative_matches_density(profile):
    # d/dh mass(0, h) recovered by central differences of the closed form
    kernel = Kernel(delta=2.0, profile=profile)
    hs = np.linspace(0.05, 1.95, 39)
    eps = 1e-6
    for h in hs:
        fd = (mass(kernel, 0.0, h + eps) - mass(kernel, 0.0, h - eps)) / (2 * eps)
        assert fd == pytest.approx(density(kernel, h), rel=1e-6, abs=1e-9)


def test_kernel_mass_examples():
    kernel = Kernel(delta=2.0, profile="uniform")
    assert mass(kernel, 0.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    # antiderivative h/delta evaluated at the limits
    assert mass(kernel, 1.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    for profile in PROFILE_NAMES:
        assert mass(Kernel(2.0, profile), 0.7, 0.7) == 0.0


def test_kernel_mass_against_quadrature_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        profile = rng.choice(PROFILE_NAMES)
        delta = 10 ** rng.uniform(-2, 1)
        kernel = Kernel(delta=delta, profile=profile)
        a, b = np.sort(rng.uniform(0.0, 1.5 * delta, 2))
        expected, _ = quad(partial(density, kernel), a, min(b, delta)) if a < delta else (0.0, 0.0)
        assert mass(kernel, a, b) == pytest.approx(expected, abs=1e-9)


def test_kernel_validation():
    with pytest.raises(ValueError, match="positive"):
        Kernel(delta=0.0)
    with pytest.raises(ValueError, match="valid profiles"):
        Kernel(delta=1.0, profile="gaussian")
    with pytest.raises(ValueError, match="valid profiles"):
        Kernel(delta=1.0, profile="triangular_decreasing")  # no aliases


# -- quadrature weights --------------------------------------------------------


def test_weights_uniform_two_cells():
    # delta=2, dx=1: W_1 is the first cell mass, W_2 half the second cell mass
    w = compute_weights(Kernel(2.0, "uniform"), 1.0)
    assert w.r == 2
    np.testing.assert_allclose(w.weights, [0.5, 0.25], atol=1e-15)
    assert 1 * 0.5 + 2 * 0.25 == pytest.approx(1.0)


def test_weights_tail_folds_into_last_term():
    # delta=1.5, dx=1: bulk 2/3 plus tail 1/3 all lands in W_1
    w = compute_weights(Kernel(1.5, "uniform"), 1.0)
    assert w.r == 1
    np.testing.assert_allclose(w.weights, [1.0], atol=1e-15)


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_weights_subgrid_horizon(profile):
    # delta < dx: all mass in W_1 = 1/dx, the local three-point regime
    w = compute_weights(Kernel(0.3, profile), 0.5)
    assert w.r == 0
    np.testing.assert_allclose(w.weights, [2.0], atol=1e-15)


def test_weights_match_defining_integrals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        profile = rng.choice(PROFILE_NAMES)
        delta = 10 ** rng.uniform(-1.5, 0.8)
        dx = 10 ** rng.uniform(-1.5, 0.8)
        kernel = Kernel(delta, profile)
        w = compute_weights(kernel, dx)
        r = w.r
        omega = partial(density, kernel)
        for k in range(1, w.n_terms + 1):
            cell, _ = quad(omega, (k - 1) * dx, min(k * dx, max(delta, (k - 1) * dx)))
            expected = cell / (k * dx)
            if k == r and r * dx < delta:
                tail, _ = quad(omega, r * dx, delta)
                expected += tail / (r * dx)
            assert w.weights[k - 1] == pytest.approx(expected, abs=1e-10)


@given(profile=PROFILES, delta=DELTAS, dx=SPACINGS)
@settings(max_examples=300, deadline=None)
def test_weights_normalized_and_nonnegative(profile, delta, dx):
    w = compute_weights(Kernel(delta, profile), dx)
    assert w.normalization_defect() <= 1e-12
    assert np.all(w.weights >= 0.0)


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_weights_reproduce_cell_masses_under_refinement(profile):
    # k dx W_k equals the exact cell mass except for the tail lump in the last
    # term, which is bounded by one cell of density and vanishes as dx -> 0.
    delta = 0.73
    kernel = Kernel(delta, profile)
    rho_max = float(np.max(density(kernel, np.linspace(0, delta, 1001))))
    defects = []
    for dx in (0.2, 0.1, 0.05, 0.025, 0.0125):
        w = compute_weights(kernel, dx)
        k = np.arange(1, w.n_terms + 1)
        masses = np.array([mass(kernel, (kk - 1) * dx, kk * dx) for kk in k])
        defect = float(np.sum(np.abs(k * dx * w.weights - masses)))
        assert defect <= rho_max * dx + 1e-12
        defects.append(defect)
    assert defects[-1] <= defects[0] + 1e-12
    assert defects[-1] <= 2e-2 * rho_max
