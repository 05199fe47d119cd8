"""Monotone finite-horizon solver for nonlocal pair-interaction conservation laws.

The model evolves u_t + I[u] = 0 where I integrates weighted differences of a
monotone two-point flux g over all pairwise distances up to a horizon delta.
This package provides the kernel quadrature, the flux families, the
forward-in-time wide-stencil scheme with its discrete invariants (maximum
principle, TVD, conservation, L1 contraction, cell entropy inequality), exact
local reference solutions, and refinement studies for the fixed-horizon and
joint local limits.
"""

from . import diagnostics, fluxes, harness, kernels, reference, solver
from .diagnostics import *  # noqa: F401,F403
from .fluxes import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .reference import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {name for module in (diagnostics, fluxes, harness, kernels, reference, solver)
     for name in module.__all__}
)
