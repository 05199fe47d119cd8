"""Monotone finite-horizon solver for nonlocal pair-interaction conservation laws.

The model evolves u_t + I[u] = 0 where I integrates weighted differences of a
monotone two-point flux g over all pairwise distances up to a horizon delta.
This package provides the kernel quadrature, the flux families, the
forward-in-time wide-stencil scheme with its discrete invariants (maximum
principle, TVD, conservation, L1 contraction, cell entropy inequality), exact
local reference solutions, and refinement studies for the fixed-horizon and
joint local limits.
"""

from .diagnostics import (
    AuditStream,
    InvariantReport,
    audit_stream,
    audit_trajectory,
    cell_entropy_residual,
    check_conservation,
    check_entropy,
    check_l1_contraction,
    check_max_principle,
    check_ordering,
    check_tvd,
    discrete_bv_norm,
    discrete_l1_norm,
    entropy_residuals,
    kruzhkov_constants,
    l1_distance,
    total_variation,
)
from .fluxes import (
    FLUX_FAMILIES,
    LOCAL_FLUX_NAMES,
    LocalFlux,
    TwoPointFlux,
    make_flux,
    make_local_flux,
)
from .harness import (
    StudyReport,
    eoc,
    nested_l1_distance,
    refine_fixed_delta,
    refine_joint_limit,
)
from .kernels import PROFILE_NAMES, Kernel, QuadratureWeights, compute_weights
from .reference import (
    PROBLEM_NAMES,
    AdvectionExact,
    BurgersRiemannExact,
    Problem,
    RiemannData,
    burgers_riemann_exact,
    get_problem,
    l1_error,
    linear_advection_exact,
)
from .solver import (
    BOUNDARY_MODES,
    CflViolationError,
    GridState,
    SchemeConfig,
    cell_average_init,
    cfl_dt,
    run,
    step,
    step_conservative_form,
    validate_cfl,
    wide_numerical_flux,
)

__version__ = "0.1.0"

__all__ = [
    "AdvectionExact",
    "AuditStream",
    "BOUNDARY_MODES",
    "BurgersRiemannExact",
    "CflViolationError",
    "FLUX_FAMILIES",
    "GridState",
    "InvariantReport",
    "Kernel",
    "LOCAL_FLUX_NAMES",
    "LocalFlux",
    "PROBLEM_NAMES",
    "PROFILE_NAMES",
    "Problem",
    "QuadratureWeights",
    "RiemannData",
    "SchemeConfig",
    "StudyReport",
    "TwoPointFlux",
    "audit_stream",
    "audit_trajectory",
    "burgers_riemann_exact",
    "cell_average_init",
    "cell_entropy_residual",
    "cfl_dt",
    "check_conservation",
    "check_entropy",
    "check_l1_contraction",
    "check_max_principle",
    "check_ordering",
    "check_tvd",
    "compute_weights",
    "discrete_bv_norm",
    "discrete_l1_norm",
    "entropy_residuals",
    "eoc",
    "get_problem",
    "kruzhkov_constants",
    "l1_distance",
    "l1_error",
    "linear_advection_exact",
    "make_flux",
    "make_local_flux",
    "nested_l1_distance",
    "refine_fixed_delta",
    "refine_joint_limit",
    "run",
    "step",
    "step_conservative_form",
    "total_variation",
    "validate_cfl",
    "wide_numerical_flux",
]
