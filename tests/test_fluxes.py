import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonflux import (FLUX_FAMILIES, GridState, Kernel, compute_weights, make_flux,
                         make_local_flux, step)
from horizonflux.fluxes import _CELLS
from flux_oracles import derivative, entropy_flux, lipschitz_box_bound, partials

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


def test_df_bounds_take_arrays_of_boxes():
    """Each local flux maps an array of boxes elementwise, as it maps each box of
    floats, and keeps floats for a box of floats."""
    rng = np.random.default_rng(13)
    for name in ("burgers", "cubic", "linear_advection"):
        local = make_local_flux(name, speed=-1.3)
        lo, hi = np.sort(rng.uniform(-2, 2, (2, 50)), axis=0)
        hi[:5] = lo[:5]  # flat boxes
        lo[5], hi[5] = 0.0, 0.5  # boxes with an edge at the sonic point
        lo[6], hi[6] = -0.5, 0.0
        dmin, dmax = local.df_bounds(lo, hi)
        assert dmin.shape == dmax.shape == lo.shape
        for k in range(lo.size):
            one = local.df_bounds(float(lo[k]), float(hi[k]))
            assert all(isinstance(x, float) for x in one)
            assert one == (dmin[k], dmax[k])


def test_step_speed_is_the_max_of_a_prime_minus_b_prime():
    """Over each box [lo, hi], g1(a, b) - g2(b', a) <= step_speed for a, b, b' in
    the box, with equality at some a = b = b': max|f'| for the upwind halves, 1/λ
    for Lax-Friedrichs where λ max|f'| <= 1 (+inf past that edge)."""
    rng = np.random.default_rng(17)
    for local_name in ("burgers", "cubic", "linear_advection"):
        for flux in all_fluxes(local_name, speed=-0.7):
            lo, hi = np.sort(rng.uniform(-1.5, 1.5, (2, 20)), axis=0)
            speed = flux.step_speed(lo, hi)
            assert speed.shape == lo.shape
            for k in range(lo.size):
                a = np.linspace(lo[k], hi[k], 41)
                b, b2 = rng.uniform(lo[k], hi[k], (2, 41))
                dmin, dmax = flux.local.df_bounds(lo[k], hi[k])
                if flux.family == "lax_friedrichs" and max(-dmin, dmax) > 1.0 + 1e-12:
                    assert speed[k] == np.inf
                    continue
                rate = partials(flux, a, b)[0] - partials(flux, b2, a)[1]
                reached = partials(flux, a, a)[0] - partials(flux, a, a)[1]
                assert rate.max() <= speed[k] + 1e-12
                assert reached.max() == pytest.approx(speed[k], abs=1e-12)
                assert flux.step_speed(float(lo[k]), float(hi[k])) == speed[k]


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
    assert entropy_flux(god, 2.0, 0.0, 1.0) == pytest.approx(g21 - g10, abs=1e-6)
    assert entropy_flux(god, 2.0, 0.0, 1.0) == 1.5
    # consistency with the local entropy flux: f(2) - f(1)
    assert entropy_flux(god, 2.0, 2.0, 1.0) == pytest.approx(2.0 - 0.5, abs=1e-14)
    for flux in all_fluxes("burgers"):
        assert entropy_flux(flux, 0.7, 0.7, 0.7) == 0.0


@given(u=UNIT, c=UNIT)
@settings(max_examples=200, deadline=None)
def test_entropy_flux_consistent_with_kruzhkov_form(u, c):
    # q(u, u; c) = sgn(u - c)(f(u) - f(c)) with sgn(0) = 1
    sgn = 1.0 if u >= c else -1.0
    for local_name in ("burgers", "cubic", "linear_advection"):
        for flux in all_fluxes(local_name, speed=-0.8):
            expected = sgn * (flux.local.f(u) - flux.local.f(c))
            assert abs(entropy_flux(flux, u, u, c) - expected) <= 1e-12


def test_entropy_flux_lipschitz_in_both_arguments():
    rng = np.random.default_rng(23)
    for flux in all_fluxes("burgers"):
        l1, l2 = lipschitz_box_bound(flux, -1.0, 1.0)
        a, b, a2, b2, c = rng.uniform(-1, 1, (5, 2000))
        lhs = np.abs(entropy_flux(flux, a, b, c) - entropy_flux(flux, a2, b2, c))
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


# -- Lipschitz box bounds (the oracle) ----------------------------------------------


def test_box_bound_dominates_sampled_partials():
    rng = np.random.default_rng(41)
    for local_name in ("burgers", "cubic", "linear_advection"):
        for flux in all_fluxes(local_name, speed=-1.2):
            lo, hi = np.sort(rng.uniform(-2, 2, 2))
            l1, l2 = lipschitz_box_bound(flux, lo, hi)
            u = np.linspace(lo, hi, 101)
            aa, bb = np.meshgrid(u, u, indexing="ij")
            g1, g2 = partials(flux, aa, bb)
            assert np.max(np.abs(g1)) <= l1 + 1e-12
            assert np.max(np.abs(g2)) <= l2 + 1e-12


def test_box_bound_examples():
    god = make_flux("godunov", make_local_flux("burgers"))
    l1, l2 = lipschitz_box_bound(god, -1.0, 1.0)
    assert l1 <= 1.05 and l2 <= 1.05

    up = make_flux("upwind_linear", make_local_flux("linear_advection", speed=2.0))
    assert lipschitz_box_bound(up, -9.0, 9.0) == (2.0, 0.0)

    lf = make_flux("lax_friedrichs", make_local_flux("burgers"), lf_lambda=1.0)
    assert lipschitz_box_bound(lf, -1.0, 1.0) == (1.0, 1.0)


def test_box_bound_rejects_inverted_box():
    god = make_flux("godunov", make_local_flux("burgers"))
    with pytest.raises(ValueError):
        lipschitz_box_bound(god, 1.0, -1.0)


def test_step_speed_flags_bad_lax_friedrichs():
    lf = make_flux("lax_friedrichs", make_local_flux("burgers"), lf_lambda=1.0)
    assert lf.step_speed(-1.0, 1.0) == 1.0
    assert lf.step_speed(-3.0, 3.0) == np.inf
    assert make_flux("godunov", make_local_flux("burgers")).step_speed(-9.0, 9.0) == 9.0


# -- the stencil sum's zero halves ------------------------------------------------


def _two_correlations(flux, ext, w):
    """sum_k w_k [g(u_j, u_{j+k}) - g(u_{j-k}, u_j)] as the correlations of both
    split halves, whatever their values (additive data only)."""
    pad = w.size
    n = ext.size - 2 * pad
    a, b, op = flux._halves(ext, pad)[:3]
    assert op is np.add
    tail = w[::-1].cumsum()[::-1]
    return (np.correlate(b[pad + 1:] - b[pad:-1], tail, "valid")
            + np.correlate(a[1:n + pad] - a[:n + pad - 1], tail[::-1], "valid"))


def _one_signed_rows(rng, size):
    """Burgers data >= 0 with flat runs, exact zeros and -0.0, and its negative."""
    u = np.where(rng.random(size) < 0.3, 0.0, rng.uniform(0.0, 1.0, size))
    u[: size // 4] = 0.5
    u[rng.choice(size, 3, replace=False)] = -0.0
    return u, -u


@pytest.mark.parametrize("family", ["godunov", "engquist_osher"])
@pytest.mark.parametrize("r", [1, 4, 16])
def test_stencil_sum_skips_a_zero_half_bit_for_bit(family, r):
    """On one-signed Burgers data one split half is exactly 0 (both on u = 0).
    Godunov's transonic test finds it and ``stencil_sum`` takes one correlation
    (none); the sum is the two-correlation sum bit for bit, the sign of a zero
    included.  The rows are the data and the clipped rows ext v c and ext ^ c
    whose sums the entropy audit's q-sums subtract, with a scalar c or one c
    per entry."""
    flux = make_flux(family, make_local_flux("burgers"))
    rng = np.random.default_rng(50 + r)
    w = rng.uniform(0.1, 1.0, r)
    size = 6 * r + 40
    for ext in (*_one_signed_rows(rng, size), np.zeros(size)):
        # of the data's sign, so that ext v c and ext ^ c stay one-signed
        per_entry = np.copysign(rng.choice([0.0, 0.2, 0.7], size), ext.sum())
        clipped = [clip(ext, c) for c in (0.0, 0.3, -0.3, per_entry)
                   for clip in (np.maximum, np.minimum)]
        for i, row in enumerate((ext, *clipped)):
            got, want = flux.stencil_sum(row, w), _two_correlations(flux, row, w)
            assert np.array_equal(got, want), i
            assert np.array_equal(np.signbit(got), np.signbit(want)), i


@pytest.mark.parametrize("family, nan, calls", [
    ("godunov", False, 1), ("godunov", True, 2), ("engquist_osher", False, 2),
])
def test_stencil_sum_skips_only_a_half_known_to_be_zero(family, nan, calls, monkeypatch):
    """Only Godunov's transonic test knows a half is 0, and a NaN in that half
    keeps its correlation, so every output the two correlations make NaN stays NaN."""
    flux = make_flux(family, make_local_flux("burgers"))
    rng = np.random.default_rng(7)
    w = rng.uniform(0.1, 1.0, 4)
    for ext in _one_signed_rows(rng, 60):
        if nan:
            ext[30] = np.nan
        count = []
        correlate = np.correlate

        def counted(*args):
            count.append(1)
            return correlate(*args)

        with monkeypatch.context() as m:
            m.setattr(np, "correlate", counted)
            got = flux.stencil_sum(ext, w)
        want = _two_correlations(flux, ext, w)
        assert len(count) == calls
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(want).any() == nan


# -- the transonic sum's blocks of shifts ---------------------------------------------

GODUNOV = make_flux("godunov", make_local_flux("burgers"))


def _transonic_row(rng, size):
    """Burgers data of alternating sign: every two neighbours form a transonic
    pair, so every row of three or more values takes Godunov's max path."""
    return np.where(np.arange(size) % 2 == 0, 1.0, -1.0) * rng.uniform(0.1, 1.0, size)


@pytest.mark.parametrize("r", [1, 5, 37])
def test_transonic_sum_bits_do_not_depend_on_where_the_row_starts(r):
    """Each cell's sum is the same bits at every sub-row offset 0..31 and at output
    counts that are not multiples of 16, on a row longer than one chunk of cells
    (r = 37 is two full blocks of shifts and a short one)."""
    rng = np.random.default_rng(60 + r)
    w = rng.uniform(0.1, 1.0, r)
    n = _CELLS + 45
    ext = _transonic_row(rng, n + 2 * r + 31)
    assert GODUNOV._halves(ext, r)[2] is np.maximum
    full = GODUNOV.stencil_sum(ext, w)
    for offset in range(32):
        for count in (1, 17, 100, n - 31):
            got = GODUNOV.stencil_sum(ext[offset : offset + count + 2 * r], w)
            want = full[offset : offset + count]
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (offset, count)


_HASH_SUMS = """
import hashlib, sys
import numpy as np
from horizonflux import make_flux, make_local_flux
flux = make_flux("godunov", make_local_flux("burgers"))
rng = np.random.default_rng(int(sys.argv[1]))
sums = [flux.stencil_sum(np.where(np.arange(n + 128) % 2 == 0, 1.0, -1.0)
                         * rng.uniform(0.1, 1.0, n + 128), rng.uniform(0.1, 1.0, 64))
        for n in (int(m) for m in sys.argv[2:])]
print(hashlib.sha256(b"".join(s.tobytes() for s in sums)).hexdigest())
"""


def test_transonic_sum_bits_do_not_depend_on_the_blas_thread_count():
    """The same sums hash alike in processes with one and with two BLAS threads.
    A product holds at most 16 x 4096 values: OpenBLAS 0.3.31 on x86-64 was seen
    to split a matrix-vector product between threads, and change the bits of an
    unpadded count, only from 262,144 to 524,288 values up."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SUMS, "70", "1001", "1002", str(_CELLS + 45)],
            capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        hashes.add(result.stdout.strip())
    assert len(hashes) == 1, hashes


def test_transonic_step_scratch_does_not_grow_with_the_row():
    """One transonic ``step`` at n = 2**17, R = 64 peaks below 8 arrays of its
    n + 2R extended values: the blocks' scratch is a fixed number of values,
    not shifts x cells (a 16 x n buffer alone is 16 such arrays)."""
    n, r = 2**17, 64
    dx = 1.0 / n
    state = GridState(dx=dx, x0=0.0, values=_transonic_row(np.random.default_rng(80), n))
    weights = compute_weights(Kernel(delta=r * dx), dx)
    assert GODUNOV._halves(state.extended(r), r)[2] is np.maximum
    tracemalloc.start()
    try:
        step(state, weights, GODUNOV, 0.1 * dx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * (n + 2 * r), peak
