"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance here is pinned; nothing is calibrated after the fact.  The
randomized criteria use fixed seeds so the suite is reproducible.
"""

import json
import time

import numpy as np
import pytest

from horizonflux import (
    GridState,
    Kernel,
    PROFILE_NAMES,
    RiemannData,
    SchemeConfig,
    check_entropy,
    compute_weights,
    get_problem,
    kruzhkov_constants,
    make_flux,
    make_local_flux,
    refine_fixed_delta,
    refine_joint_limit,
    run,
    step,
    step_conservative_form,
)
from horizonflux.cli import main as cli_main
from testutil import random_state, random_step_profile, weights_for_r

GODUNOV = make_flux("godunov", make_local_flux("burgers"))


def _verdict(num, description, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"[acceptance {num:2d}] {status} {description} ({elapsed:.2f}s / {limit:.0f}s){extra}")
    assert ok, f"criterion {num}: {description}{extra}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget ({elapsed:.1f}s)"


def test_criterion_01_weight_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        profile = rng.choice(PROFILE_NAMES)
        delta = 10 ** rng.uniform(-3, 1)
        dx = 10 ** rng.uniform(-3, 1)
        weights = compute_weights(Kernel(delta, profile), dx)
        worst = max(worst, weights.normalization_defect())
        if np.any(weights.weights < 0.0):
            worst = np.inf
    _verdict(1, "weight normalization over 1000 random triples", worst <= 1e-12,
             time.perf_counter() - started, 1.0, f"worst defect {worst:.2e}")


def test_criterion_02_local_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    burgers = make_local_flux("burgers")
    linear = make_local_flux("linear_advection", speed=1.5)
    fluxes = [
        make_flux("godunov", burgers),
        make_flux("engquist_osher", burgers),
        make_flux("lax_friedrichs", burgers, lf_lambda=1.0),
        make_flux("upwind_linear", linear),
    ]
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(8, 64))
        dx = 1.0 / n
        state = random_state(rng, n=n, dx=dx,
                             boundary=rng.choice(["periodic", "constant_extension"]))
        weights = compute_weights(Kernel(rng.uniform(0.1, 0.99) * dx, "uniform"), dx)
        flux = fluxes[trial % len(fluxes)]
        dt = 0.4 * dx / 2.0
        out = step(state, weights, flux, dt)
        u = state.values
        if state.boundary == "periodic":
            ext = np.concatenate([u[-1:], u, u[:1]])
        else:
            ext = np.concatenate([u[:1], u, u[-1:]])
        g = flux.g(ext[:-1], ext[1:])
        classical = u - (dt / dx) * (g[1:] - g[:-1])
        worst = max(worst, float(np.max(np.abs(out.values - classical))))
    _verdict(2, "sub-grid horizon reduces to the three-point scheme", worst <= 1e-13,
             time.perf_counter() - started, 1.0, f"worst {worst:.2e}")


def test_criterion_03_conservative_form_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(200):
        r = int(rng.integers(1, 65))
        n = 128
        dx = 1.0 / n
        state = random_state(rng, n=n, dx=dx,
                             boundary=rng.choice(["periodic", "constant_extension"]))
        weights = weights_for_r(r, dx, rng.choice(PROFILE_NAMES))
        dt = 0.2 * dx
        direct = step(state, weights, GODUNOV, dt)
        telescoped = step_conservative_form(state, weights, GODUNOV, dt)
        worst = max(worst, float(np.max(np.abs(direct.values - telescoped.values))))
    _verdict(3, "plain step equals its conservative rewrite (r up to 64)", worst <= 1e-12,
             time.perf_counter() - started, 5.0, f"worst {worst:.2e}")


def _tv(values):
    return float(np.sum(np.abs(np.diff(values))) + abs(values[0] - values[-1]))


def test_criterion_04_max_principle_and_tvd():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    r_cycle = (1, 4, 16)
    worst_mp = 0.0
    worst_tvd = 0.0
    for trial in range(100):
        r = r_cycle[trial % 3]
        state = random_state(rng, n=256, dx=1 / 256)
        weights = weights_for_r(r, 1 / 256)
        l1, l2 = GODUNOV.lipschitz_box_bound(float(state.values.min()),
                                             float(state.values.max()))
        dt = 0.9 / (l1 + l2) * (1 / 256)
        lo, hi = float(state.values.min()), float(state.values.max())
        tv_prev = _tv(state.values)
        for _ in range(25):
            state = step(state, weights, GODUNOV, dt)
            worst_mp = max(worst_mp, float(np.max(state.values)) - hi,
                           lo - float(np.min(state.values)))
            tv_now = _tv(state.values)
            worst_tvd = max(worst_tvd, tv_now - tv_prev)
            tv_prev = tv_now
    positive_ok = worst_mp <= 1e-12 and worst_tvd <= 1e-12

    # negative control: doubled mesh ratio on a one-signed data box, where the
    # time-step bound is sharp; at least one run must trip a detector
    detected = 0
    for trial in range(30):
        r = r_cycle[trial % 3]
        state = random_state(rng, n=256, dx=1 / 256, box=(0.0, 1.0))
        weights = weights_for_r(r, 1 / 256)
        l1, l2 = GODUNOV.lipschitz_box_bound(float(state.values.min()),
                                             float(state.values.max()))
        dt = 2.0 / (l1 + l2) * (1 / 256)
        lo, hi = float(state.values.min()), float(state.values.max())
        tv_prev = _tv(state.values)
        for _ in range(25):
            state = step(state, weights, GODUNOV, dt)
            if not np.all(np.isfinite(state.values)):
                detected += 1
                break
            tv_now = _tv(state.values)
            if (float(np.max(state.values)) > hi + 1e-12
                    or float(np.min(state.values)) < lo - 1e-12
                    or tv_now > tv_prev + 1e-12):
                detected += 1
                break
            tv_prev = tv_now
    _verdict(4, "max principle + TVD hold; doubled CFL is detected",
             positive_ok and detected >= 1,
             time.perf_counter() - started, 30.0,
             f"worst mp {worst_mp:.2e}, worst tvd {worst_tvd:.2e}, "
             f"negative control trips {detected}/30")


def test_criterion_05_l1_contraction_and_ordering():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    contraction_ok = True
    ordering_ok = True
    n, dx = 128, 1 / 128
    dt = 0.45 * dx  # L1 + L2 = 2 on [-1, 1]
    for trial in range(50):
        r = (1, 4)[trial % 2]
        weights = weights_for_r(r, dx)
        u = random_state(rng, n=n, dx=dx)
        v = random_state(rng, n=n, dx=dx)
        w = GridState(dx=dx, x0=0.0, values=np.maximum(u.values, v.values))
        dist = dx * float(np.sum(np.abs(u.values - v.values)))
        tol_d = 1e-12 * (1.0 + dist)
        for _ in range(100):
            u = step(u, weights, GODUNOV, dt)
            v = step(v, weights, GODUNOV, dt)
            w = step(w, weights, GODUNOV, dt)
            new_dist = dx * float(np.sum(np.abs(u.values - v.values)))
            if new_dist > dist + tol_d:
                contraction_ok = False
            dist = new_dist
            if np.any(u.values > w.values + 1e-12):
                ordering_ok = False
    _verdict(5, "stepwise L1 contraction and monotone ordering (50 pairs x 100 steps)",
             contraction_ok and ordering_ok,
             time.perf_counter() - started, 30.0)


def test_criterion_06_cell_entropy_inequality():
    started = time.perf_counter()
    burgers = make_local_flux("burgers")
    fluxes = {
        "godunov": make_flux("godunov", burgers),
        "lax_friedrichs": make_flux("lax_friedrichs", burgers, lf_lambda=1.0),
        "engquist_osher": make_flux("engquist_osher", burgers),
    }
    dx = 1 / 64
    worst = -np.inf
    all_pass = True
    for name, flux in fluxes.items():
        for u_left, u_right in ((1.0, 0.0), (-1.0, 1.0)):
            kernel = Kernel(4 * dx, "uniform")
            config = SchemeConfig(kernel=kernel, flux=flux, mesh_ratio=0.4,
                                  final_time=0.4)
            trajectory = []
            run(config, RiemannData(u_left, u_right), x0=-1.5, dx=dx, n_cells=192,
                boundary="constant_extension", breakpoints=(0.0,), observer=trajectory.append)
            weights = compute_weights(kernel, dx)
            constants = kruzhkov_constants(trajectory[0])
            assert len(constants) == 17
            report = check_entropy(trajectory, weights, flux, constants)
            worst = max(worst, report.violation)
            scale = 1.0 + float(np.max(np.abs(trajectory[0].values)))
            all_pass &= report.violation <= 1e-10 * scale
    _verdict(6, "cell entropy inequality for godunov/LF/EO on shock and fan",
             all_pass, time.perf_counter() - started, 30.0, f"worst residual {worst:.2e}")


def test_criterion_07_one_step_l1_bound_r_independent():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    n, dx = 512, 1 / 512
    data = random_step_profile(rng, n=n, dx=dx, n_jumps=8)
    dt = 0.45 * dx
    tv = _tv(data.values)
    constants = {}
    for r in (1, 4, 16, 64):
        weights = weights_for_r(r, dx)
        out = step(data, weights, GODUNOV, dt)
        shift = dx * float(np.sum(np.abs(out.values - data.values)))
        constants[r] = shift / (dt * tv)
    spread = max(constants.values()) / min(constants.values())
    _verdict(7, "one-step L1/BV constant varies < 2x across r in {1,4,16,64}",
             spread < 2.0, time.perf_counter() - started, 30.0,
             f"C by r {({k: round(v, 4) for k, v in constants.items()})}, spread {spread:.2f}")


def test_criterion_08_fixed_horizon_refinement():
    started = time.perf_counter()
    report = refine_fixed_delta(get_problem("burgers_shock"), "godunov",
                                0.1, 1 / 64, 4, 0.9)
    distances = report.measures()
    ratios = [distances[i] / distances[i + 1] for i in range(len(distances) - 1)]
    decreasing = all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))
    ok = decreasing and all(r >= 1.3 for r in ratios) and report.invariants_pass()
    _verdict(8, "fixed-horizon Cauchy distances shrink with ratio >= 1.3",
             ok, time.perf_counter() - started, 120.0,
             f"distances {['%.3e' % d for d in distances]}, ratios {['%.2f' % r for r in ratios]}")


def test_criterion_09_joint_local_limit():
    started = time.perf_counter()
    shock = refine_joint_limit(get_problem("burgers_shock"), "godunov",
                               2.0, 1 / 64, 4, 0.9)
    fan_problem = get_problem("burgers_rarefaction")
    fan = refine_joint_limit(fan_problem, "godunov", 2.0, 1 / 64, 4, 0.45)
    shock_dec = all(e2 < e1 for e1, e2 in zip(shock.measures(), shock.measures()[1:]))
    fan_dec = all(e2 < e1 for e1, e2 in zip(fan.measures(), fan.measures()[1:]))

    # the entropy-satisfying fan passes through zero at the fan center
    dx = 1 / 512
    config = SchemeConfig(kernel=Kernel(2 * dx, "uniform"), flux=GODUNOV,
                          mesh_ratio=0.45, final_time=fan_problem.final_time)
    final = run(config, fan_problem.u0, x0=fan_problem.domain[0], dx=dx,
                n_cells=int(round((fan_problem.domain[1] - fan_problem.domain[0]) / dx)),
                boundary=fan_problem.boundary, breakpoints=(0.0,))[-1]
    midpoint = abs(float(final.reconstruct(0.0)))
    ok = (shock_dec and fan_dec and midpoint <= 0.05
          and shock.invariants_pass() and fan.invariants_pass())
    _verdict(9, "joint local limit: errors vs exact shrink, no expansion shock",
             ok, time.perf_counter() - started, 120.0,
             f"shock {['%.3e' % e for e in shock.measures()]}, "
             f"fan {['%.3e' % e for e in fan.measures()]}, midpoint {midpoint:.3f}")


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    config_text = """
[kernel]
delta = 0.0625

[flux]
family = upwind_linear

[problem]
name = advect_bump
T = 0.5

[grid]
dx = 0.03125

[time]
mesh_ratio = 0.9

[study]
regime = joint_limit
levels = 3
coupling = 2.0
"""
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "res"
    outputs = {}
    for attempt, workers in enumerate(("1", "2", "1")):
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["study", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
        payload = {
            name: (out / name).read_bytes()
            for name in ("solution.csv", "invariants.json", "study.json",
                         "study.csv", "study_plot.dat")
        }
        if attempt == 0:
            outputs = payload
        else:
            assert payload == outputs, f"outputs differ on attempt {attempt}"
    passed = json.loads(outputs["invariants.json"])["passed"]
    _verdict(10, "byte-identical CSV/JSON across reruns and worker counts",
             bool(passed), time.perf_counter() - started, 10.0)
