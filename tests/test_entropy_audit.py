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
    Kernel,
    TwoPointFlux,
    audit_stream,
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
    step,
)
from horizonflux.diagnostics import _certified
from flux_oracles import (
    assert_entropy_matches_oracle,
    entropy_bound,
    entropy_matrices,
    partials,
    reference_entropy_matrix,
    reference_rate,
    stencil_boxes,
)
from testutil import every_flux, random_state, random_step_profile, weights_for_r

GODUNOV = make_flux("godunov", make_local_flux("burgers"))


def data_sets(rng, n, dx, boundary):
    """Rough, stepped with planted sonic zeros, constant and smooth data, and a
    shock across the sonic point whose second jump, on periodic grids, sits at
    the wrap (its stencils' runs then merge across the rows of a block)."""
    steps = random_step_profile(rng, n=n, dx=dx, boundary=boundary)
    steps.values[rng.choice(n, 4, replace=False)] = 0.0
    x = (np.arange(n) + 0.5) * dx
    return {
        "rough": random_state(rng, n=n, dx=dx, boundary=boundary),
        "steps": steps,
        "constant": GridState(dx=dx, x0=0.0, values=np.full(n, 0.3), boundary=boundary),
        "sine": GridState(dx=dx, x0=0.0, values=np.sin(2 * np.pi * x), boundary=boundary),
        "wrap": GridState(dx=dx, x0=0.0, values=np.where(x < 0.5, 0.8, -0.4), boundary=boundary),
    }


def user_constants(state):
    """Unsorted, repeated, equal to data values, and outside the data range."""
    u = state.values
    lo, hi = float(np.min(u)), float(np.max(u))
    return np.array([hi + 0.5, u[3], lo - 2.0, u[3], 0.0, u[-1], lo, hi, 0.5 * (lo + hi), u[3]])


def assert_audits_match_the_oracle(r, boundary, profiles, fluxes):
    n = 48
    dx = 1.0 / n
    rng = np.random.default_rng(11 * r + len(boundary))
    for name, state in data_sets(rng, n, dx, boundary).items():
        for profile in profiles:
            weights = weights_for_r(r, dx, profile)
            for flux in fluxes:
                trajectory = [state]
                for _ in range(2):
                    trajectory.append(step(trajectory[-1], weights, flux, 0.2 * dx))
                for constants in (None, user_constants(state)):
                    report = check_entropy(trajectory, weights, flux, constants)
                    assert_entropy_matches_oracle(report, trajectory, weights, flux, constants)


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("r", [1, 4, 16, 64])
def test_check_entropy_matches_the_full_matrix_oracle(r, boundary):
    assert_audits_match_the_oracle(r, boundary, PROFILE_NAMES, every_flux())


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
def test_check_entropy_matches_the_full_matrix_oracle_at_r_256(boundary):
    """The widest horizon the bench steps: a stencil spans ten grids, and both
    steps share one block.  Godunov over Burgers keeps the k-loop on transonic
    data, Engquist-Osher takes the correlations."""
    burgers = make_local_flux("burgers")
    fluxes = [GODUNOV, make_flux("engquist_osher", burgers)]
    assert_audits_match_the_oracle(256, boundary, ["quadratic"], fluxes)


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("profile", PROFILE_NAMES)
@pytest.mark.parametrize("family", FLUX_FAMILIES)
def test_scheme_steps_satisfy_the_entropy_inequality_at_every_constant(family, profile, boundary):
    """The residual is not piecewise linear in c for a nonlinear flux, so an
    interior maximum can fall between the 17 default constants.  On a dense grid
    of c (every stencil value, the sonic point 0 and 257 uniform points over the
    data range plus the default margin) a step at the CFL edge (Lax-Friedrichs at
    its monotonicity edge) has no oracle residual above the audit's tolerance,
    and ``check_entropy`` given that grid agrees with the oracle.  The local flux
    cycles with r, so Godunov meets Burgers at r = 4 and 256."""
    locals_ = [("linear_advection", 0.7)] if family == "upwind_linear" else [
        ("cubic", 1.0), ("burgers", 1.0), ("linear_advection", -0.7)]
    n = 16
    dx = 1.0 / n
    rng = np.random.default_rng(FLUX_FAMILIES.index(family) * 100 + len(profile + boundary))
    for i, r in enumerate([1, 4, 16, 64, 256]):
        local = make_local_flux(*locals_[i % len(locals_)])
        state = random_state(rng, n=n, dx=dx, boundary=boundary)
        state.values[rng.choice(n, 2, replace=False)] = 0.0
        lo, hi = float(state.values.min()), float(state.values.max())
        dmin, dmax = local.df_bounds(lo, hi)
        lf_lambda = 1.0 / max(abs(dmin), abs(dmax)) if family == "lax_friedrichs" else None
        flux = make_flux(family, local, lf_lambda=lf_lambda)
        weights = weights_for_r(r, dx, profile)
        dt = dx / sum(flux.lipschitz_box_bound(lo, hi))
        trajectory = [state, step(state, weights, flux, dt)]
        cs = np.unique(np.concatenate(
            [state.extended(r), [0.0], np.linspace(lo - 0.1, hi + 0.1, 257)]))
        matrices = entropy_matrices(trajectory, weights, flux, cs)
        report = check_entropy(trajectory, weights, flux, cs)
        assert max(float(matrix.max()) for matrix in matrices) <= report.tolerance, (r, flux)
        assert_entropy_matches_oracle(report, trajectory, weights, flux, cs, matrices)


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
    assert abs(report.violation - worst) <= entropy_bound(trajectory[0])


@pytest.mark.parametrize("shift", [0.05, -0.05], ids=["above", "below"])
def test_planted_value_outside_a_certified_stencil_box_is_caught_exactly(shift):
    """The last step of a Godunov run is certified monotone on the jump cell's
    stencil box [m_j, M_j].  Plant u^{n+1}_j past M_j (or below m_j): the default
    audit reports |u^{n+1}_j - H(u^n)_j| there, H from the k-loop oracle, at the
    data side that reaches it: c = m_j above the box, c = M_j below it."""
    trajectory, weights = shock_run()
    cell, last = 32, len(trajectory) - 1
    before, after = trajectory[-2], trajectory[-1]
    dt = after.time - before.time
    lo, hi = stencil_boxes(before, weights.n_terms)
    assert lo[cell] < hi[cell]
    assert _certified(GODUNOV, weights, dt, lo, hi)[cell]
    after.values[cell] = hi[cell] + shift if shift > 0 else lo[cell] + shift
    report = check_entropy(trajectory, weights, GODUNOV)
    h = before.values - dt * reference_rate(before, weights, GODUNOV)
    assert not report.passed
    assert report.location == (last, cell, lo[cell] if shift > 0 else hi[cell])
    assert abs(report.violation - abs(after.values[cell] - h[cell])) <= entropy_bound(before)
    assert_entropy_matches_oracle(report, trajectory, weights, GODUNOV)


def test_audit_takes_the_q_sum_only_on_the_straddle_block(monkeypatch):
    """The audit's pair work, R pairs per value it hands to ``_halves`` (the body
    of ``additive_halves``), against the oracle's pair evaluations."""
    trajectory, weights = shock_run(n=256, r=8, steps=1, boundary="periodic")
    constants = kruzhkov_constants(trajectory[0])
    largest = constants.size * (256 + 2 * weights.n_terms)
    inputs, elements = [], []
    halves = TwoPointFlux._halves

    def counted_halves(flux, values, reach):
        inputs.append(values.size)
        return halves(flux, values, reach)

    evaluator = TwoPointFlux.shifted_pair_evaluator

    def counted_evaluator(flux, values):
        ev = evaluator(flux, values)

        def tally(k):
            out = ev(k)
            elements.append(out.size)
            return out

        return tally

    with monkeypatch.context() as m:
        m.setattr(TwoPointFlux, "_halves", counted_halves)
        report = check_entropy(trajectory, weights, GODUNOV, constants)
    audit = weights.n_terms * sum(inputs)
    assert max(inputs) <= largest
    with monkeypatch.context() as m:
        m.setattr(TwoPointFlux, "shifted_pair_evaluator", counted_evaluator)
        reference_entropy_matrix(*trajectory, weights, GODUNOV, constants)
    oracle = sum(elements)
    assert_entropy_matches_oracle(report, trajectory, weights, GODUNOV, constants)
    assert audit < 0.25 * oracle, (audit, oracle)


# Dyadic upwind data (dt W_1 = 1/2), so every residual is exact and ties are real:
# at cell 3 the straddling constant 1.0 ties the side constant 1.5 above the
# stencil; at cell 4 the side constant 0.5 below the stencil ties 1.0 and 1.5.
@pytest.mark.parametrize("u0, u1, worst, location", [
    ((1.5, .5, 1, .5, 1.5, .5, 1, .5), (1.5, 1.5, 1, 0, .5, 1.5, 1.5, 1.5), 0.75, (1, 3, 1.0)),
    ((1, 1.5, 0, .5, .5, 1.5, 1.5, .5), (.5, 1, .5, .5, 0, 1.5, 1, .5), 0.5, (1, 4, 0.5)),
], ids=["straddle_ties_side", "side_ties_straddle"])
def test_tied_residuals_go_to_the_lowest_cell_then_the_smallest_constant(
        u0, u1, worst, location):
    flux = make_flux("upwind_linear", make_local_flux("linear_advection"))
    weights = compute_weights(Kernel(delta=1 / 8), 1 / 8)
    constants = np.array([-1, -0.5, 0, 0.5, 1, 1.5, 2])
    trajectory = [GridState(dx=1 / 8, x0=0.0, values=np.array(u, float), boundary="periodic",
                            time=t)
                  for u, t in ((u0, 0.0), (u1, 1 / 16))]
    report = check_entropy(trajectory, weights, flux, constants)
    assert (report.violation, report.location) == (worst, location)
    # the oracle matrix's first maximum, read cell by cell, then constant by constant
    matrix = reference_entropy_matrix(*trajectory, weights, flux, constants)
    cell, c = np.unravel_index(np.argmax(matrix.T), matrix.T.shape)
    assert (matrix.max(), (1, cell, constants[c])) == (worst, location)


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


def _local_for(family, draw):
    names = ("burgers", "cubic", "linear_advection")
    if family == "upwind_linear":
        names = ("linear_advection",)
    return make_local_flux(draw(st.sampled_from(names)), speed=draw(st.sampled_from([0.7, -0.7])))


def _draw_run(data):
    """Family, local flux, boundary, profile, r and a state of n in [8, 40] cells."""
    family = data.draw(st.sampled_from(FLUX_FAMILIES), label="family")
    local = _local_for(family, data.draw)
    boundary = data.draw(st.sampled_from(BOUNDARY_MODES), label="boundary")
    profile = data.draw(st.sampled_from(PROFILE_NAMES), label="profile")
    r = data.draw(st.integers(1, 256), label="r")
    n = data.draw(st.integers(8, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dx = 1.0 / n
    if data.draw(st.booleans(), label="stepped"):
        state = random_step_profile(rng, n=n, dx=dx, boundary=boundary, n_jumps=3)
    else:
        state = random_state(rng, n=n, dx=dx, boundary=boundary)
    return family, local, weights_for_r(r, dx, profile), state, rng


def _flux_and_dt(data, family, local, lo, hi, dx):
    """The family's flux and a dt within the CFL bound on the data box [lo, hi];
    Lax-Friedrichs takes lf_lambda up to its monotonicity edge there."""
    lf_lambda = None
    if family == "lax_friedrichs":
        dmin, dmax = local.df_bounds(lo, hi)
        edge = 1.0 / max(abs(dmin), abs(dmax))
        lf_lambda = edge * data.draw(st.sampled_from([1.0, 0.9, 0.5]), label="lf_fraction")
    flux = make_flux(family, local, lf_lambda=lf_lambda)
    ratio = data.draw(st.sampled_from([1.0, 0.9, 0.5, 0.1]), label="cfl_fraction")
    return flux, ratio * dx / sum(flux.lipschitz_box_bound(lo, hi))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_monotone_runs_satisfy_the_cell_entropy_inequality(data):
    """Crandall & Majda: a monotone, consistent, conservative scheme satisfies the
    cell entropy inequalities, for every family, profile, boundary and r, up to
    the CFL bound (Lax-Friedrichs up to its monotonicity edge).  It also keeps
    the maximum principle, is TVD and, on periodic grids, conserves mass; the
    audit streamed step by step reports exactly what the list checks do."""
    family, local, weights, state, _ = _draw_run(data)
    u = state.values
    flux, dt = _flux_and_dt(data, family, local, float(u.min()), float(u.max()), state.dx)
    audit = audit_stream(weights, flux)
    trajectory = [state]
    audit(state)
    for _ in range(3):
        trajectory.append(step(trajectory[-1], weights, flux, dt))
        audit(trajectory[-1])
    reports = [check_max_principle(trajectory), check_tvd(trajectory)]
    if state.boundary == "periodic":
        reports.append(check_conservation(trajectory))
    reports.append(check_entropy(trajectory, weights, flux))
    assert all(rep.passed for rep in reports), reports
    assert audit.finish() == reports
    assert_entropy_matches_oracle(reports[-1], trajectory, weights, flux)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_monotone_runs_keep_order_and_contract_in_l1(data):
    """A monotone scheme keeps u <= v, and a monotone conservative one is an L1
    contraction (Crandall & Tartar), both under the CFL bound on the joint data
    box.  Contraction is checked on periodic grids only: constant-extension
    ghosts are re-read from the edges each step, so inflow can grow the
    distance (Engquist-Osher on Burgers with n = 8 and r = 1 does)."""
    family, local, weights, u, rng = _draw_run(data)
    bump = rng.uniform(0.0, 0.5, u.n_cells) * (rng.random(u.n_cells) < 0.5)
    v = GridState(dx=u.dx, x0=0.0, values=u.values + bump, boundary=u.boundary)
    box = float(u.values.min()), float(v.values.max())
    flux, dt = _flux_and_dt(data, family, local, *box, u.dx)
    runs = ([u], [v])
    for _ in range(3):
        for trajectory in runs:
            trajectory.append(step(trajectory[-1], weights, flux, dt))
    reports = [check_ordering(*runs)]
    if u.boundary == "periodic":
        reports.append(check_l1_contraction(*runs))
    assert all(rep.passed for rep in reports), reports



def _past_cfl_verdicts(seed, n, r, multiple, family, boundary):
    """One seeded Burgers step at ``multiple`` times the CFL bound: the verdict of
    ``check_entropy`` (exact in c on the cells the step is certified monotone on,
    elsewhere 17 uniform constants, probed at each stencil's side and straddling
    ones), that of the full q-sum over a dense set of constants, every stencil
    value, 0, every u^{n+1}_j and 1025 uniform points (which hold the 17), and
    whether a cell where the dense set fails is certified."""
    rng = np.random.default_rng(seed)
    dx = 1.0 / n
    state = random_state(rng, n=n, dx=dx, boundary=boundary)
    lo, hi = float(state.values.min()), float(state.values.max())
    flux = make_flux(family, make_local_flux("burgers"),
                     lf_lambda=1.0 if family == "lax_friedrichs" else None)
    dt = multiple * dx / sum(flux.lipschitz_box_bound(lo, hi))
    weights = weights_for_r(r, dx)
    trajectory = [state, step(state, weights, flux, dt)]
    report = check_entropy(trajectory, weights, flux)
    dense = np.unique(np.concatenate((
        state.values, [0.0], trajectory[1].values, np.linspace(lo - 0.1, hi + 0.1, 1025))))
    worst = reference_entropy_matrix(*trajectory, weights, flux, dense).max(axis=0)
    sure = _certified(flux, weights, dt, *stencil_boxes(state, r))
    return report.passed, worst.max() <= report.tolerance, sure[worst > report.tolerance].any()


@given(n=st.integers(8, 40), multiple=st.sampled_from([1.0, 1.5, 3.0]),
       family=st.sampled_from(["godunov", "engquist_osher", "lax_friedrichs"]),
       r=st.integers(1, 4), boundary=st.sampled_from(BOUNDARY_MODES),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_constants_agree_with_the_dense_set_at_the_cfl_bound(
        n, multiple, family, r, boundary, seed):
    """At the CFL bound the step is monotone, so both verdicts pass.  Past it the
    dense set holds the 17 constants and each certified cell's sup, so a failed
    audit is a dense failure too; the converse can fail (see the next test), but
    never on a certified cell."""
    sampled, dense, certified_failure = _past_cfl_verdicts(seed, n, r, multiple, family, boundary)
    assert sampled or not dense
    assert not certified_failure
    if multiple == 1.0:
        assert sampled and dense


@pytest.mark.parametrize("seed, n, r, multiple, boundary", [
    (911, 16, 1, 1.5, "periodic"),
    (120, 24, 2, 3.0, "constant_extension"),
])
def test_sampled_constants_miss_a_violation_past_the_cfl_bound(seed, n, r, multiple, boundary):
    """Past the CFL bound a Godunov step can break the entropy inequality only for
    c in a window narrower than the spacing of the 17 constants: the sampled
    audit passes and the dense set fails (dense residual 1.7e-3 and 2.3e-3).
    Of 3,000 seeded steps per multiple (n in [8, 40], r in [1, 4], three
    families), 3 flip at 1.5x and 18 at 3x, none at the bound.  The step is not
    certified monotone on the failing cells, so they keep the sampled verdict;
    an audit exact in c there too would turn this test."""
    sampled, dense, certified_failure = _past_cfl_verdicts(
        seed, n, r, multiple, "godunov", boundary)
    assert sampled and not dense and not certified_failure


# -- the monotonicity certificate ------------------------------------------------


def stencil_partials(flux, w, dt, v):
    """The partials of one step H_j(v) = v_0 - dt sum_k W_k [g(v_0, v_k) - g(v_{-k}, v_0)]
    for each stencil row of ``v`` (2R + 1 values, v_0 in the middle), from the
    one-sided partials of g: in v_0, in v_k and in v_{-k} for k = 1..R."""
    pad = w.size
    centre, right, left = v[:, pad : pad + 1], v[:, pad + 1 :], v[:, pad - 1 :: -1]
    g1_right, g2_right = partials(flux, centre, right)
    g1_left, g2_left = partials(flux, left, centre)
    return (1.0 - dt * ((g1_right - g2_left) * w).sum(axis=1),
            -dt * w * g2_right, dt * w * g1_left)


@pytest.mark.parametrize("boundary", BOUNDARY_MODES)
@pytest.mark.parametrize("profile", PROFILE_NAMES)
@pytest.mark.parametrize("family", FLUX_FAMILIES)
def test_the_monotonicity_certificate_is_sound(family, profile, boundary):
    """Where the audit certifies a step of size dt on a stencil box [m_j, M_j],
    dt sum_k W_k step_speed(m_j, M_j) <= 1, every partial of H_j is >= 0 up to
    round-off on the whole box: at the data, at the corners v = m_j and v = M_j,
    and at uniform draws from the box.  The sharp bound is dt sum_k W_k s = 1, s
    the step speed of the data box: at 0.98x every cell is certified, at 1.15x
    not.  Lax-Friedrichs also runs 1.1x past its monotonicity edge, where the
    boxes with λ max|f'| > 1 are refused.

    Negative control: one spike of 0.1 on a flat state at the fastest value.  At
    1.15x the sharp bound the spike cell's diagonal partial is about -0.15, so
    it drops below the flat state and the streamed max principle fails, while at
    0.98x every streamed audit passes."""
    locals_ = [("linear_advection", 0.7)] if family == "upwind_linear" else [
        ("cubic", 1.0), ("burgers", 1.0), ("linear_advection", -0.7)]
    n = 16
    dx = 1.0 / n
    rng = np.random.default_rng(FLUX_FAMILIES.index(family) * 100 + len(profile + boundary))
    for i, r in enumerate([1, 4, 16, 64, 256]):
        local = make_local_flux(*locals_[i % len(locals_)])
        weights = weights_for_r(r, dx, profile)
        w, total = weights.weights, weights.weights.sum()
        state = random_state(rng, n=n, dx=dx, boundary=boundary)
        state.values[rng.choice(n, 2, replace=False)] = 0.0
        spike = GridState(dx=dx, x0=0.0, values=np.ones(n), boundary=boundary)
        spike.values[n // 2] = 1.1
        for data in (state, spike):
            lo, hi = float(data.values.min()), float(data.values.max())
            edge = 1.0 / max(np.abs(local.df_bounds(lo, hi)))
            past_edges = (1.0, 1.1) if family == "lax_friedrichs" and data is state else (1.0,)
            for past_edge in past_edges:
                lf_lambda = past_edge * edge if family == "lax_friedrichs" else None
                flux = make_flux(family, local, lf_lambda=lf_lambda)
                speed = 1.0 / lf_lambda if lf_lambda else flux.step_speed(lo, hi)
                m, big_m = stencil_boxes(data, r)
                windows = np.lib.stride_tricks.sliding_window_view(data.extended(r), 2 * r + 1)
                for multiple in (0.5, 0.98, 1.15):
                    dt = multiple / (total * speed)
                    sure = _certified(flux, weights, dt, m, big_m)
                    label = (r, flux, data is spike, past_edge, multiple)
                    assert sure.all() == (multiple < 1.0 and past_edge == 1.0), label
                    box_lo, box_hi = m[sure, None], big_m[sure, None]
                    stencils = windows[sure]
                    draws = [stencils, np.broadcast_to(box_lo, stencils.shape),
                             np.broadcast_to(box_hi, stencils.shape)]
                    draws += [box_lo + (box_hi - box_lo) * rng.random(stencils.shape)
                              for _ in range(3)]
                    for v in draws:
                        for part in stencil_partials(flux, w, dt, v):
                            assert part.min(initial=0.0) >= -1e-12, label
                    if data is spike and multiple > 0.5:
                        audit = audit_stream(weights, flux)
                        trajectory = [spike, step(spike, weights, flux, dt)]
                        for u in trajectory:
                            audit(u)
                        reports = audit.finish()
                        assert all(rep.passed for rep in reports) == (multiple < 1.0), label
                        assert reports[0].passed == (multiple < 1.0), label
