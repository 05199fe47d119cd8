import resource

import numpy as np
import pytest

from horizonflux import harness
from horizonflux import (
    GridState,
    Kernel,
    RiemannData,
    SchemeConfig,
    cell_average_init,
    compute_weights,
    get_problem,
    make_flux,
    make_local_flux,
    nested_l1_distance,
    refine_fixed_delta,
    refine_joint_limit,
    run,
    step,
    step_conservative_form,
    validate_cfl,
)
from testutil import fix_memory, weights_for_r

GODUNOV = make_flux("godunov", make_local_flux("burgers"))
STATE = GridState(dx=0.25, x0=0.0, values=np.zeros(4))
COARSE = GridState(dx=0.5, x0=0.0, values=np.zeros(2))  # nests onto STATE
SHOCK = get_problem("burgers_shock")
BUMP = get_problem("advect_bump")


def _scheme(mesh_ratio=0.5, final_time=0.1):
    return SchemeConfig(kernel=Kernel(0.5), flux=GODUNOV, mesh_ratio=mesh_ratio,
                        final_time=final_time)


def _never_called(state):
    raise AssertionError(f"the run made a state at t = {state.time}")


BAD_INPUTS = {
    "grid_unknown_boundary": (lambda: GridState(0.25, 0.0, np.zeros(4), "reflecting"),
                              "unknown boundary mode 'reflecting'"),
    "grid_zero_dx": (lambda: GridState(0.0, 0.0, np.zeros(4)), "dx must be positive"),
    "grid_negative_dx": (lambda: GridState(-0.25, 0.0, np.zeros(4)), "dx must be positive"),
    "grid_2d_values": (lambda: GridState(0.25, 0.0, np.zeros((2, 2))), "1-D array"),
    "grid_nan_x0": (lambda: GridState(0.25, np.nan, np.zeros(4)), "x0 must be finite"),
    "scheme_zero_mesh_ratio": (lambda: _scheme(mesh_ratio=0.0), "mesh_ratio must be positive"),
    "scheme_negative_final_time": (lambda: _scheme(final_time=-1.0),
                                   "final_time must be nonnegative"),
    "cell_average_no_cells": (lambda: cell_average_init(np.sin, dx=0.25, x0=0.0, n_cells=0),
                              "n_cells must be positive"),
    "cell_average_fractional_cells": (
        lambda: cell_average_init(np.sin, dx=0.25, x0=0.0, n_cells=2.5),
        "n_cells must be an integer"),
    # a bool is an int to Python, but not a cell count
    "cell_average_bool_cells": (
        lambda: cell_average_init(lambda x: x, dx=0.5, x0=0.0, n_cells=True),
        "n_cells must be an integer, got True"),
    "run_bool_cells": (lambda: run(_scheme(), np.sin, x0=0.0, dx=0.25, n_cells=True),
                       "n_cells must be an integer, got True"),
    "cell_average_nan_dx": (lambda: cell_average_init(np.sin, dx=np.nan, x0=0.0, n_cells=4),
                            "dx must be positive and finite"),
    "cell_average_nan_x0": (
        lambda: cell_average_init(RiemannData(1.0, 0.0), dx=0.25, x0=np.nan, n_cells=4),
        "x0 must be finite"),
    "step_zero_dt": (lambda: step(STATE, weights_for_r(1, 0.25), GODUNOV, 0.0),
                     "dt must be positive"),
    "conservative_step_negative_dt": (
        lambda: step_conservative_form(STATE, weights_for_r(1, 0.25), GODUNOV, -0.1),
        "dt must be positive"),
    "step_inf_dt": (lambda: step(STATE, weights_for_r(1, 0.25), GODUNOV, np.inf),
                    "dt must be positive and finite, got inf"),
    "conservative_step_inf_dt": (
        lambda: step_conservative_form(STATE, weights_for_r(1, 0.25), GODUNOV, np.inf),
        "dt must be positive and finite, got inf"),
    "cfl_nan_mesh_ratio": (
        lambda: validate_cfl(GODUNOV, weights_for_r(1, 0.25), np.nan, 0.0, 1.0),
        "mesh ratio nan violates"),
    "cfl_nan_box": (lambda: validate_cfl(GODUNOV, weights_for_r(1, 0.25), 0.9, np.nan, 1.0),
                    r"data box \[nan, 1\] needs box_lo <= box_hi"),
    "cfl_inverted_box": (
        lambda: validate_cfl(GODUNOV, weights_for_r(1, 0.25), 0.9, 1.0, 0.0),
        r"data box \[1, 0\] needs box_lo <= box_hi"),
    "weights_zero_dx": (lambda: compute_weights(Kernel(0.5), 0.0), "dx must be positive"),
    # compared with physical memory before the r + 1 edges are allocated
    "weights_past_physical_memory": (
        lambda: compute_weights(Kernel(1.0), 1e-300),
        r"r = floor\(delta / dx\) = floor\(1e\+300\) needs r \+ 1 edges: 8e\+300 bytes"),
    "advection_nan_speed": (lambda: make_local_flux("linear_advection", speed=np.nan),
                            "advection speed must be finite"),
    "fixed_delta_one_level": (lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 0.25, 1, 0.9),
                              "at least 2 levels"),
    "joint_limit_no_level": (lambda: refine_joint_limit(SHOCK, "godunov", 2.0, 0.25, 0, 0.9),
                             "at least 1 level"),
    "fixed_delta_fractional_levels": (
        lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 1 / 16, 2.5, 0.9),
        "n_levels must be an integer, got 2.5"),
    "joint_limit_nan_levels": (
        lambda: refine_joint_limit(SHOCK, "godunov", 2.0, 1 / 16, np.nan, 0.9),
        "n_levels must be an integer, got nan"),
    # a bool is an int to Python, but not a level count
    "fixed_delta_bool_levels": (
        lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 1 / 16, True, 0.9),
        "n_levels must be an integer, got True"),
    "joint_limit_bool_levels": (
        lambda: refine_joint_limit(SHOCK, "godunov", 2.0, 1 / 16, True, 0.9),
        "n_levels must be an integer, got True"),
    "joint_limit_zero_coupling": (
        lambda: refine_joint_limit(SHOCK, "godunov", 0.0, 0.25, 2, 0.9),
        "coupling must be positive"),
    # 1100 halvings would take the cell count past the float range near level 1016, but
    # the ladder stops at the first level whose arrays do not fit in 2**40 bytes
    "fixed_delta_levels_past_the_float_range": (
        lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 1 / 16, 1100, 0.9),
        r"^level 28: 9 output times x n = 21474836480 cells: 1\.546e\+12 bytes, more than the "
        r"1\.1e\+12 of physical memory$"),
    # 8e300 steps are finite but would never end: refused before u^0 is made
    "run_steps_past_2_53": (
        lambda: run(_scheme(final_time=1e300), np.sin, x0=0.0, dx=0.25, n_cells=4,
                    observer=_never_called),
        r"^final_time / dt = 1e\+300 / 0\.125 = 8e\+300 steps, more than 2\*\*53$"),
    "run_steps_past_the_float_range": (
        lambda: run(_scheme(final_time=1e308), np.sin, x0=0.0, dx=0.25, n_cells=4),
        r"final_time / dt = 1e\+308 / 0.125 is not a finite step count"),
    "joint_limit_nan_coupling": (
        lambda: refine_joint_limit(SHOCK, "godunov", np.nan, 0.25, 2, 0.9),
        "coupling must be positive and finite, got nan"),
    "joint_limit_inf_coupling": (
        lambda: refine_joint_limit(SHOCK, "godunov", np.inf, 0.25, 2, 0.9),
        "coupling must be positive and finite, got inf"),
    "fixed_delta_nan_delta": (
        lambda: refine_fixed_delta(SHOCK, "godunov", np.nan, 1 / 64, 2, 0.9),
        "horizon delta must be positive and finite, got nan"),
    "fixed_delta_inf_delta": (
        lambda: refine_fixed_delta(SHOCK, "godunov", np.inf, 1 / 64, 2, 0.9),
        "horizon delta must be positive and finite, got inf"),
    # one output time compares only the t = 0 snapshots, so the study would pass on nothing
    "study_one_output_time": (
        lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 1 / 16, 2, 0.9, n_output_times=1),
        "n_output_times must be at least 2, got 1"),
    "study_no_output_time": (
        lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 1 / 16, 2, 0.9, n_output_times=0),
        "n_output_times must be at least 2, got 0"),
    "study_negative_output_times": (
        lambda: refine_joint_limit(SHOCK, "godunov", 2.0, 1 / 16, 2, 0.9, n_output_times=-3),
        "n_output_times must be at least 2, got -3"),
    "study_fractional_output_times": (
        lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 1 / 16, 2, 0.9, n_output_times=2.5),
        r"n_output_times must be at least 2, got 2.5"),
    "nested_unequal_spans": (
        lambda: nested_l1_distance(GridState(0.5, 0.0, np.zeros(3)), STATE, (0.0, 1.0)),
        "spans differ"),
    "nested_reversed_window": (lambda: nested_l1_distance(COARSE, STATE, (1.0, 0.0)),
                               r"window must satisfy a < b, got \(1.0, 0.0\)"),
    "nested_nan_window": (lambda: nested_l1_distance(COARSE, STATE, (np.nan, 1.0)),
                          r"window must satisfy a < b, got \(nan, 1.0\)"),
    "nested_window_outside": (lambda: nested_l1_distance(COARSE, STATE, (-3.0, 4.0)),
                              r"window \[-3.0, 4.0\] outside the grid domain \[0.0, 1.0\]"),
}


@pytest.mark.parametrize("build, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_library_rejects_bad_input(monkeypatch, build, message):
    fix_memory(monkeypatch)
    with pytest.raises(ValueError, match=message):
        build()


def test_study_checks_every_level_before_it_runs_one(monkeypatch):
    # dx tiles [0, 1] at level 0 within 1e-9; halving doubles the defect past it
    ran = []
    monkeypatch.setattr(harness, "_run_level", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=r"dx=0.16666666661666668 does not tile the domain"):
        refine_joint_limit(BUMP, "upwind_linear", 2.0, 0.33333333323333335, 3, 0.9)
    assert ran == []


def test_study_sizes_every_level_before_it_runs_one(monkeypatch):
    # level 0 holds 320 cells; the 9 snapshots of level 26's 2**26 times as many are the
    # first arrays past 2**40 bytes
    fix_memory(monkeypatch)
    ran = []
    monkeypatch.setattr(harness, "_run_level", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=r"^level 26: 9 output times x n = 21474836480 cells: "
                                         r"1\.546e\+12 bytes, more than the 1\.1e\+12 of "
                                         r"physical memory$"):
        refine_fixed_delta(SHOCK, "godunov", 0.1, 1 / 64, 40, 0.9)
    assert ran == []


def test_sizes_are_bounded_by_the_soft_address_space_limit(monkeypatch):
    # 1e6 + 1 edges need 8 MB: within physical memory, past a 1 MB soft limit
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**20, 2**40))
    with pytest.raises(ValueError, match=r"needs r \+ 1 edges: 8e\+06 bytes, more than the "
                                         r"1.049e\+06 of the address-space limit"):
        compute_weights(Kernel(1.0), 1e-6)
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2)
    assert compute_weights(Kernel(1.0), 1e-6).r == 1000000
