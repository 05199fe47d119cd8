import numpy as np
import pytest

from horizonflux import (
    GridState,
    Kernel,
    SchemeConfig,
    cell_average_init,
    compute_weights,
    get_problem,
    make_flux,
    make_local_flux,
    nested_l1_distance,
    refine_fixed_delta,
    refine_joint_limit,
    step,
    step_conservative_form,
)
from testutil import weights_for_r

GODUNOV = make_flux("godunov", make_local_flux("burgers"))
STATE = GridState(dx=0.25, x0=0.0, values=np.zeros(4))
SHOCK = get_problem("burgers_shock")


def _scheme(mesh_ratio=0.5, final_time=0.1):
    return SchemeConfig(kernel=Kernel(0.5), flux=GODUNOV, mesh_ratio=mesh_ratio,
                        final_time=final_time)


BAD_INPUTS = {
    "grid_unknown_boundary": (lambda: GridState(0.25, 0.0, np.zeros(4), "reflecting"),
                              "unknown boundary mode 'reflecting'"),
    "grid_zero_dx": (lambda: GridState(0.0, 0.0, np.zeros(4)), "dx must be positive"),
    "grid_negative_dx": (lambda: GridState(-0.25, 0.0, np.zeros(4)), "dx must be positive"),
    "grid_2d_values": (lambda: GridState(0.25, 0.0, np.zeros((2, 2))), "1-D array"),
    "scheme_zero_mesh_ratio": (lambda: _scheme(mesh_ratio=0.0), "mesh_ratio must be positive"),
    "scheme_negative_final_time": (lambda: _scheme(final_time=-1.0),
                                   "final_time must be nonnegative"),
    "cell_average_no_cells": (lambda: cell_average_init(np.sin, dx=0.25, x0=0.0, n_cells=0),
                              "n_cells must be positive"),
    "step_zero_dt": (lambda: step(STATE, weights_for_r(1, 0.25), GODUNOV, 0.0),
                     "dt must be positive"),
    "conservative_step_negative_dt": (
        lambda: step_conservative_form(STATE, weights_for_r(1, 0.25), GODUNOV, -0.1),
        "dt must be positive"),
    "weights_zero_dx": (lambda: compute_weights(Kernel(0.5), 0.0), "dx must be positive"),
    "advection_nan_speed": (lambda: make_local_flux("linear_advection", speed=np.nan),
                            "advection speed must be finite"),
    "fixed_delta_one_level": (lambda: refine_fixed_delta(SHOCK, "godunov", 0.1, 0.25, 1, 0.9),
                              "at least 2 levels"),
    "joint_limit_no_level": (lambda: refine_joint_limit(SHOCK, "godunov", 2.0, 0.25, 0, 0.9),
                             "at least 1 level"),
    "joint_limit_zero_coupling": (
        lambda: refine_joint_limit(SHOCK, "godunov", 0.0, 0.25, 2, 0.9),
        "coupling must be positive"),
    "nested_unequal_spans": (
        lambda: nested_l1_distance(GridState(0.5, 0.0, np.zeros(3)), STATE, (0.0, 1.0)),
        "spans differ"),
}


@pytest.mark.parametrize("build, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_library_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
