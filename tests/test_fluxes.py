import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonflux import FLUX_FAMILIES, make_flux, make_local_flux
from flux_oracles import derivative, partials

UNIT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def all_fluxes(local_name="burgers", speed=1.0):
    """One instance of every family that admits the given local flux."""
    local = make_local_flux(local_name, speed=speed)
    fluxes = [
        make_flux("godunov", local),
        make_flux("engquist_osher", local),
        make_flux("lax_friedrichs", local, lf_lambda=1.0),
    ]
    if local_name == "linear_advection":
        fluxes.append(make_flux("upwind_linear", local))
    return fluxes


def godunov_oracle(f, a, b, samples=20001):
    """Brute-force interval extremum of f between the two states."""
    u = np.linspace(min(a, b), max(a, b), samples)
    return float(np.min(f(u))) if a <= b else float(np.max(f(u)))


# -- local fluxes ---------------------------------------------------------------


@pytest.mark.parametrize("name,speed", [("burgers", 1.0), ("cubic", 1.0), ("linear_advection", -2.5)])
def test_local_flux_derivative_matches_finite_difference(name, speed):
    local = make_local_flux(name, speed=speed)
    u = np.linspace(-2.0, 2.0, 41)
    eps = 1e-6
    fd = (local.f(u + eps) - local.f(u - eps)) / (2 * eps)
    np.testing.assert_allclose(derivative(local, u), fd, rtol=1e-6, atol=1e-6)


def test_local_flux_df_bounds_are_exact():
    rng = np.random.default_rng(11)
    for name in ("burgers", "cubic", "linear_advection"):
        local = make_local_flux(name, speed=1.3)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(-3, 3, 2))
            dmin, dmax = local.df_bounds(lo, hi)
            sampled = derivative(local, np.linspace(lo, hi, 4001))
            assert dmin <= np.min(sampled) + 1e-12
            assert dmax >= np.max(sampled) - 1e-12
            assert dmin == pytest.approx(np.min(sampled), abs=1e-5)
            assert dmax == pytest.approx(np.max(sampled), abs=1e-5)


def test_unknown_names_rejected():
    with pytest.raises(ValueError, match="valid names"):
        make_local_flux("quartic")
    with pytest.raises(ValueError, match="valid families"):
        make_flux("roe", make_local_flux("burgers"))
    with pytest.raises(ValueError, match="lf_lambda"):
        make_flux("lax_friedrichs", make_local_flux("burgers"))
    with pytest.raises(ValueError, match="lf_lambda"):
        make_flux("godunov", make_local_flux("burgers"), lf_lambda=1.0)
    with pytest.raises(ValueError, match="linear_advection"):
        make_flux("upwind_linear", make_local_flux("burgers"))


# -- evaluation -----------------------------------------------------------------


def test_godunov_burgers_interval_extrema():
    god = make_flux("godunov", make_local_flux("burgers"))
    f = god.local.f
    # max of u^2/2 over [-1, 1] and min attained at the sonic point
    assert god.g(1.0, -1.0) == pytest.approx(godunov_oracle(f, 1.0, -1.0), abs=1e-7)
    assert god.g(1.0, -1.0) == 0.5
    assert god.g(-1.0, 1.0) == pytest.approx(godunov_oracle(f, -1.0, 1.0), abs=1e-7)
    assert god.g(-1.0, 1.0) == 0.0


def test_godunov_matches_oracle_randomized():
    rng = np.random.default_rng(5)
    for name in ("burgers", "cubic"):
        god = make_flux("godunov", make_local_flux(name))
        for _ in range(50):
            a, b = rng.uniform(-2, 2, 2)
            assert god.g(a, b) == pytest.approx(
                godunov_oracle(god.local.f, a, b), abs=1e-6
            )


def test_lax_friedrichs_value():
    lf = make_flux("lax_friedrichs", make_local_flux("burgers"), lf_lambda=1.0)
    # (f(0) + f(1))/2 - (1 - 0)/2
    assert lf.g(0.0, 1.0) == pytest.approx(-0.25, abs=1e-15)


def test_engquist_osher_burgers_splitting():
    eo = make_flux("engquist_osher", make_local_flux("burgers"))
    assert eo.g(2.0, -3.0) == pytest.approx(0.5 * 4.0 + 0.5 * 9.0, abs=1e-14)
    assert eo.g(-2.0, 3.0) == 0.0
    # monotone local flux: reduces to pure upwind for every family
    cub = make_flux("engquist_osher", make_local_flux("cubic"))
    assert cub.g(1.2, -0.7) == pytest.approx(cub.local.f(1.2), abs=1e-14)


def test_upwind_linear_picks_the_upwind_side():
    up = make_flux("upwind_linear", make_local_flux("linear_advection", speed=2.0))
    assert up.g(3.0, -7.0) == 6.0
    down = make_flux("upwind_linear", make_local_flux("linear_advection", speed=-2.0))
    assert down.g(3.0, -7.0) == 14.0


@given(u=UNIT)
@settings(max_examples=200, deadline=None)
def test_consistency_with_local_flux(u):
    for local_name in ("burgers", "cubic", "linear_advection"):
        for flux in all_fluxes(local_name, speed=1.5):
            assert abs(flux.g(u, u) - flux.local.f(u)) <= 1e-12


def test_monotonicity_randomized():
    rng = np.random.default_rng(17)
    for local_name in ("burgers", "cubic", "linear_advection"):
        for flux in all_fluxes(local_name):
            # lax_friedrichs is monotone on [-1,1] for lf_lambda=1; sample there
            a = rng.uniform(-1, 1, 10_000)
            b = rng.uniform(-1, 1, 10_000)
            ha = rng.uniform(0, 1 - a)
            hb = rng.uniform(0, 1 - b)
            assert np.all(flux.g(a + ha, b) >= flux.g(a, b) - 1e-12)
            assert np.all(flux.g(a, b + hb) <= flux.g(a, b) + 1e-12)


# -- entropy flux -----------------------------------------------------------------


def test_entropy_flux_examples():
    god = make_flux("godunov", make_local_flux("burgers"))
    # q(2,0;1) = g(2,1) - g(1,0); both evaluate through the extremum oracle
    g21 = godunov_oracle(god.local.f, 2.0, 1.0)
    g10 = godunov_oracle(god.local.f, 1.0, 0.0)
    assert god.q(2.0, 0.0, 1.0) == pytest.approx(g21 - g10, abs=1e-6)
    assert god.q(2.0, 0.0, 1.0) == 1.5
    # consistency with the local entropy flux: f(2) - f(1)
    assert god.q(2.0, 2.0, 1.0) == pytest.approx(2.0 - 0.5, abs=1e-14)
    for flux in all_fluxes("burgers"):
        assert flux.q(0.7, 0.7, 0.7) == 0.0


@given(u=UNIT, c=UNIT)
@settings(max_examples=200, deadline=None)
def test_entropy_flux_consistent_with_kruzhkov_form(u, c):
    # q(u, u; c) = sgn(u - c)(f(u) - f(c)) with sgn(0) = 1
    sgn = 1.0 if u >= c else -1.0
    for local_name in ("burgers", "cubic", "linear_advection"):
        for flux in all_fluxes(local_name, speed=-0.8):
            expected = sgn * (flux.local.f(u) - flux.local.f(c))
            assert abs(flux.q(u, u, c) - expected) <= 1e-12


def test_entropy_flux_lipschitz_in_both_arguments():
    rng = np.random.default_rng(23)
    for flux in all_fluxes("burgers"):
        l1, l2 = flux.lipschitz_box_bound(-1.0, 1.0)
        a, b, a2, b2, c = rng.uniform(-1, 1, (5, 2000))
        lhs = np.abs(flux.q(a, b, c) - flux.q(a2, b2, c))
        rhs = l1 * np.abs(a - a2) + l2 * np.abs(b - b2)
        assert np.all(lhs <= rhs + 1e-12)


# -- partial derivatives -----------------------------------------------------------


@pytest.mark.parametrize("family,kwargs", [
    ("godunov", {}),
    ("engquist_osher", {}),
    ("lax_friedrichs", {"lf_lambda": 1.0}),
])
def test_partials_match_finite_differences_away_from_kinks(family, kwargs):
    flux = make_flux(family, make_local_flux("burgers"), **kwargs)
    rng = np.random.default_rng(31)
    eps = 1e-7
    checked = 0
    while checked < 200:
        a, b = rng.uniform(-1, 1, 2)
        # exclude the kink sets: the diagonal and the sonic point
        if abs(a - b) < 1e-4 or abs(a) < 1e-4 or abs(b) < 1e-4:
            continue
        g1, g2 = (float(x) for x in partials(flux, a, b))
        fd1 = (flux.g(a + eps, b) - flux.g(a - eps, b)) / (2 * eps)
        fd2 = (flux.g(a, b + eps) - flux.g(a, b - eps)) / (2 * eps)
        assert g1 == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        assert g2 == pytest.approx(fd2, rel=1e-6, abs=1e-6)
        checked += 1


def test_partials_have_monotone_signs():
    rng = np.random.default_rng(37)
    a = rng.uniform(-1, 1, 5000)
    b = rng.uniform(-1, 1, 5000)
    for flux in all_fluxes("burgers"):
        g1, g2 = partials(flux, a, b)
        assert np.all(np.asarray(g1) >= -1e-12)
        assert np.all(np.asarray(g2) <= 1e-12)


# -- Lipschitz box bounds -----------------------------------------------------------


def test_box_bound_dominates_sampled_partials():
    rng = np.random.default_rng(41)
    for local_name in ("burgers", "cubic", "linear_advection"):
        for flux in all_fluxes(local_name, speed=-1.2):
            lo, hi = np.sort(rng.uniform(-2, 2, 2))
            l1, l2 = flux.lipschitz_box_bound(lo, hi)
            u = np.linspace(lo, hi, 101)
            aa, bb = np.meshgrid(u, u, indexing="ij")
            g1, g2 = partials(flux, aa, bb)
            assert np.max(np.abs(g1)) <= l1 + 1e-12
            assert np.max(np.abs(g2)) <= l2 + 1e-12


def test_box_bound_examples():
    god = make_flux("godunov", make_local_flux("burgers"))
    l1, l2 = god.lipschitz_box_bound(-1.0, 1.0)
    assert l1 <= 1.05 and l2 <= 1.05

    up = make_flux("upwind_linear", make_local_flux("linear_advection", speed=2.0))
    assert up.lipschitz_box_bound(-9.0, 9.0) == (2.0, 0.0)

    lf = make_flux("lax_friedrichs", make_local_flux("burgers"), lf_lambda=1.0)
    assert lf.lipschitz_box_bound(-1.0, 1.0) == (1.0, 1.0)


def test_box_bound_rejects_inverted_box():
    god = make_flux("godunov", make_local_flux("burgers"))
    with pytest.raises(ValueError):
        god.lipschitz_box_bound(1.0, -1.0)


def test_monotone_on_flags_bad_lax_friedrichs():
    lf = make_flux("lax_friedrichs", make_local_flux("burgers"), lf_lambda=1.0)
    assert lf.monotone_on(-1.0, 1.0)
    assert not lf.monotone_on(-3.0, 3.0)
    assert make_flux("godunov", make_local_flux("burgers")).monotone_on(-9.0, 9.0)
