import numpy as np
import pytest

from horizonflux import (
    AdvectionExact,
    BurgersRiemannExact,
    GridState,
    RiemannData,
    get_problem,
    l1_error,
)
from loop_oracles import reference_l1_error
from testutil import reconstruct


# -- exact solutions -------------------------------------------------------------


def test_shock_solution_moves_at_jump_speed():
    # Rankine-Hugoniot: s = (f(1) - f(0)) / (1 - 0) = 0.5
    assert BurgersRiemannExact(1.0, 0.0)(0.49, 1.0) == 1.0
    assert BurgersRiemannExact(1.0, 0.0)(0.51, 1.0) == 0.0


def test_rarefaction_is_a_self_similar_fan():
    assert BurgersRiemannExact(0.0, 1.0)(0.5, 1.0) == pytest.approx(0.5)
    assert BurgersRiemannExact(-1.0, 1.0)(0.0, 2.0) == 0.0
    assert BurgersRiemannExact(-1.0, 1.0)(-5.0, 1.0) == -1.0
    assert BurgersRiemannExact(-1.0, 1.0)(5.0, 1.0) == 1.0


def test_riemann_initial_time_returns_data():
    xs = np.array([-1.0, -0.01, 0.0, 0.01, 1.0])
    np.testing.assert_array_equal(
        BurgersRiemannExact(1.0, 0.0)(xs, 0.0), [1, 1, 0, 0, 0]
    )


def test_rarefaction_has_no_expansion_shock():
    # continuity in x for t > 0: adjacent samples differ at most by slope * h
    sol = BurgersRiemannExact(-1.0, 1.0)
    t = 0.5
    x = np.linspace(-2, 2, 4001)
    h = x[1] - x[0]
    jumps = np.abs(np.diff(sol(x, t)))
    assert np.max(jumps) <= (1.0 / t) * h + 1e-12


def test_shock_breakpoints():
    sol = BurgersRiemannExact(1.0, 0.0)
    assert sol.breakpoints(2.0) == (1.0,)
    fan = BurgersRiemannExact(-1.0, 1.0)
    assert fan.breakpoints(0.5) == (-0.5, 0.5)


def test_advection_exact_identity_and_shift():
    u0 = lambda x: np.sin(2 * np.pi * x)
    assert AdvectionExact(u0, 2.0)(0.3, 0.0) == pytest.approx(u0(0.3))
    # one full period on a periodic domain returns the initial data
    periodic = AdvectionExact(u0, speed=1.0, period=1.0)
    xs = np.linspace(0, 1, 17)
    np.testing.assert_allclose(periodic(xs, 1.0), u0(xs), atol=1e-12)
    # half-period shift of an indicator, checked pointwise by substitution
    ind = RiemannData(1.0, 0.0, x_jump=0.0)
    shifted = AdvectionExact(ind, 1.0)(np.array([0.3, 0.7]), 0.5)
    np.testing.assert_array_equal(shifted, [ind(0.3 - 0.5), ind(0.7 - 0.5)])


# -- exact windowed L1 error -------------------------------------------------------


def test_l1_error_zero_against_own_reconstruction():
    state = GridState(dx=0.25, x0=0.0, values=np.array([1.0, -0.5, 2.0, 0.0]),
                      boundary="constant_extension")
    same = lambda x, t: reconstruct(state, x)
    assert l1_error(state, same, (0.0, 1.0)) == 0.0


def test_l1_error_constant_mismatch():
    state = GridState(dx=0.5, x0=-1.0, values=np.zeros(4), boundary="constant_extension")
    ones = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    assert l1_error(state, ones, (-1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)


def test_l1_error_shock_inside_cell():
    # cell value 0 on [0,1); exact is 1 left of the shock at x = 0.5
    state = GridState(dx=1.0, x0=0.0, values=np.array([0.0]),
                      boundary="constant_extension", time=1.0)
    exact = BurgersRiemannExact(1.0, 0.0)  # shock position 0.5 at t = 1
    assert l1_error(state, exact, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-14)


def test_l1_error_fan_with_sign_change():
    # cell value 0.5 against the fan u = x/t on (0, 1): integral of |0.5 - x|
    state = GridState(dx=1.0, x0=0.0, values=np.array([0.5]),
                      boundary="constant_extension", time=1.0)
    exact = BurgersRiemannExact(0.0, 1.0)
    assert l1_error(state, exact, (0.0, 1.0)) == pytest.approx(0.25, abs=1e-14)


def test_l1_error_matches_dense_quadrature_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ul, ur = rng.uniform(-1, 1, 2)
        t = rng.uniform(0.1, 1.0)
        n = int(rng.integers(3, 30))
        state = GridState(dx=2.0 / n, x0=-1.0, values=rng.uniform(-1, 1, n),
                          boundary="constant_extension", time=t)
        exact = BurgersRiemannExact(ul, ur)
        window = (-0.8, 0.9)
        xs = np.linspace(window[0], window[1], 400_001)
        mids = 0.5 * (xs[:-1] + xs[1:])
        oracle = float(np.sum(np.abs(reconstruct(state, mids) - exact(mids, t))) * (xs[1] - xs[0]))
        assert l1_error(state, exact, window) == pytest.approx(oracle, abs=5e-5)


def test_l1_error_positive_when_fields_differ():
    state = GridState(dx=0.5, x0=0.0, values=np.array([1.0, 1.0]),
                      boundary="constant_extension")
    off = lambda x, t: np.where(np.asarray(x) < 0.5, 1.0, 0.0)
    assert l1_error(state, off, (0.0, 1.0)) == pytest.approx(0.5)


def test_l1_error_window_validation():
    state = GridState(dx=0.5, x0=0.0, values=np.zeros(2), boundary="constant_extension")
    flat = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(ValueError, match="window"):
        l1_error(state, flat, (0.8, 0.2))
    with pytest.raises(ValueError, match="outside"):
        l1_error(state, flat, (-1.0, 0.5))


# -- problem registry ---------------------------------------------------------------


def test_problem_registry():
    shock = get_problem("burgers_shock")
    assert shock.local_flux == "burgers"
    assert shock.exact(0.0, 1.0) == 1.0  # left of the shock at x = 0.5
    fan = get_problem("burgers_rarefaction")
    assert fan.data_box == (-1.0, 1.0)
    bump = get_problem("advect_bump")
    assert bump.boundary == "periodic"
    np.testing.assert_allclose(bump.u0(np.array([0.0, 0.5])), [0.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError, match="valid problems"):
        get_problem("sod_tube")


# -- the array pass against the cell-by-cell loop ------------------------------------


def _perturbed(problem, dx, t, noise, rng):
    """The exact solution at cell centers plus noise, as a state at time t."""
    x0, x1 = problem.domain
    n = int(round((x1 - x0) / dx))
    values = problem.exact(x0 + (np.arange(n) + 0.5) * dx, t) + noise * rng.standard_normal(n)
    return GridState(dx=dx, x0=x0, values=values, boundary=problem.boundary, time=t)


@pytest.mark.parametrize("name", ["burgers_shock", "burgers_rarefaction", "advect_bump"])
def test_l1_error_equals_the_cell_loop(name):
    """Bit for bit: the pieces, their formulas and their left-to-right sum are the
    loop's.  At t = 0 and at the final time every breakpoint sits on a cell edge;
    the random times put them inside cells, and the random windows cut cells."""
    problem = get_problem(name)
    rng = np.random.default_rng(len(name))
    for m in range(4):
        dx = 1 / 64 / 2**m
        for t in (0.0, problem.final_time, rng.uniform(0.0, problem.final_time)):
            for noise in (0.0, 1e-3, 0.3):
                state = _perturbed(problem, dx, t, noise, rng)
                cut = tuple(np.sort(rng.uniform(*problem.domain, 2)))
                for window in (problem.window, problem.domain, cut):
                    got = l1_error(state, problem.exact, window)
                    assert got == reference_l1_error(state, problem.exact, window), (dx, t, window)


def test_l1_error_equals_the_cell_loop_on_edge_and_inner_breakpoints():
    """Breakpoints on an edge, one ulp inside a cell, twice in one cell, or outside
    the window; a fan whose cells change sign inside, and a non-affine exact."""
    rng = np.random.default_rng(4)
    state = GridState(dx=0.25, x0=-1.0, values=rng.uniform(-1, 1, 8),
                      boundary="constant_extension", time=0.5)
    fan = BurgersRiemannExact(-0.5, 0.5)  # breakpoints -0.25 and 0.25, both edges
    shock = BurgersRiemannExact(1.0, 0.0, x_jump=0.25 + 2.0**-53)
    assert shock.breakpoints(0.5) == (np.nextafter(0.5, 1.0),)
    narrow = BurgersRiemannExact(-0.1, 0.1, x_jump=0.6)  # both in the cell [0.5, 0.75)
    beyond = BurgersRiemannExact(1.0, 0.0, x_jump=5.0)
    bump = AdvectionExact(lambda x: np.cos(3 * x), 0.7)
    for exact in (fan, shock, narrow, beyond, bump):
        for window in ((-1.0, 1.0), (-0.9, 0.3), (-0.25, 0.6)):
            assert l1_error(state, exact, window) == reference_l1_error(state, exact, window)


def test_l1_error_on_a_piece_of_two_ulps():
    """Both samples of a 2-ulp piece can round to one point; its slope is then 0,
    where the loop divided by zero."""
    x0 = 1.0 + 2.0**-52  # odd last bit: x0 + ulp/2 and x0 + 3 ulp/2 round alike
    state = GridState(dx=1.0, x0=x0, values=np.array([0.5]), boundary="constant_extension")
    exact = BurgersRiemannExact(1.0, 0.0, x_jump=x0 + 2 * 2.0**-52)
    assert exact.breakpoints(0.0)[0] - x0 == 2 * 2.0**-52
    with pytest.raises(ZeroDivisionError):
        reference_l1_error(state, exact, (x0, x0 + 1.0))
    assert l1_error(state, exact, (x0, x0 + 1.0)) == pytest.approx(0.5, abs=1e-15)
