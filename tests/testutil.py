"""Shared factories for randomized solver tests."""

import os
import resource

import numpy as np

from horizonflux import GridState, Kernel, compute_weights, make_flux, make_local_flux


def random_state(rng, n=256, dx=1 / 256, boundary="periodic", box=(-1.0, 1.0)):
    """A random bounded state; any grid function has finite total variation."""
    lo, hi = box
    values = rng.uniform(lo, hi, n)
    return GridState(dx=dx, x0=0.0, values=values, boundary=boundary)


def random_step_profile(rng, n=256, dx=1 / 256, boundary="periodic", box=(-1.0, 1.0), n_jumps=8):
    """Piecewise-constant data with a handful of jumps (modest total variation)."""
    lo, hi = box
    edges = np.sort(rng.choice(np.arange(1, n), size=n_jumps, replace=False))
    levels = rng.uniform(lo, hi, n_jumps + 1)
    values = np.empty(n)
    start = 0
    for edge, level in zip(list(edges) + [n], levels):
        values[start:edge] = level
        start = edge
    return GridState(dx=dx, x0=0.0, values=values, boundary=boundary)


def reconstruct(state, x):
    """Piecewise-constant field value of ``state`` at position(s) x: cell j holds
    [x0 + j dx, x0 + (j+1) dx), and positions off the grid read a ghost per the
    boundary mode (the nearest edge value, or a wrap on periodic grids)."""
    x = np.asarray(x, dtype=float)
    j = np.floor((x - state.x0) / state.dx).astype(int)
    if state.boundary == "periodic":
        j = np.mod(j, state.n_cells)
    else:
        j = np.clip(j, 0, state.n_cells - 1)
    out = state.values[j]
    return float(out) if out.ndim == 0 else out


def weights_for_r(r, dx, profile="uniform"):
    """Quadrature weights whose term count is exactly max(r, 1)."""
    delta = (r + 0.5) * dx if r >= 1 else 0.5 * dx
    w = compute_weights(Kernel(delta=delta, profile=profile), dx)
    assert w.n_terms == max(r, 1)
    return w


def every_flux():
    """Each family over each local flux it admits, both advection directions."""
    out = []
    for name, speed in (("burgers", 1.0), ("cubic", 1.0),
                        ("linear_advection", 0.7), ("linear_advection", -0.7)):
        local = make_local_flux(name, speed=speed)
        out += [
            make_flux("godunov", local),
            make_flux("engquist_osher", local),
            make_flux("lax_friedrichs", local, lf_lambda=0.8),
        ]
        if name == "linear_advection":
            out.append(make_flux("upwind_linear", local))
    return out


def fix_memory(monkeypatch, nbytes=2**40):
    """Size checks see ``nbytes`` of physical memory and no address-space limit, so the
    level at which a refinement ladder first runs out of memory is the same on every
    machine."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2)
