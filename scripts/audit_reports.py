#!/usr/bin/env python3
"""Write the entropy audit's reports on a fixed seeded set of runs to OUT.json.

Each case draws, from its own seed, a flux family over Burgers (Godunov,
Engquist-Osher or Lax-Friedrichs with lambda = 1), n in [8, 40] cells, r in
[1, 4], a boundary mode and rough or stepped data in [-1, 1].  It takes 3 steps
at 0.9, 1.35, 2.7 and 5.4 times the bound dt = 1 / (sum_k W_k max|f'|), and
audits each run with four sets of constants: the default, [-5, 5], 7 uniform
values in [-1.2, 1.2] and the unsorted duplicate set [0.3, -0.2, 0.3].  Every
audit adds one entry [violation, location, passed, counts], in that order.

``horizonflux`` comes from PYTHONPATH, so the files of two source trees
compare with ``cmp``:

    PYTHONPATH=src python scripts/audit_reports.py OUT.json [--cases N]
"""

import argparse
import json

import numpy as np

from horizonflux import (BOUNDARY_MODES, GridState, Kernel, check_entropy, compute_weights,
                         make_flux, make_local_flux, step)

FAMILIES = (("godunov", None), ("engquist_osher", None), ("lax_friedrichs", 1.0))
MULTIPLES = (0.9, 1.35, 2.7, 5.4)
CONSTANTS = (None, [-5.0, 5.0], np.linspace(-1.2, 1.2, 7), [0.3, -0.2, 0.3])
STEPS = 3


def runs(seed: int):
    """Case ``seed``'s flux, weights and one 3-step run per multiple of the bound."""
    rng = np.random.default_rng(seed)
    family, lf_lambda = FAMILIES[rng.integers(len(FAMILIES))]
    flux = make_flux(family, make_local_flux("burgers"), lf_lambda=lf_lambda)
    n, r = int(rng.integers(8, 41)), int(rng.integers(1, 5))
    boundary = BOUNDARY_MODES[rng.integers(len(BOUNDARY_MODES))]
    dx = 1.0 / n
    weights = compute_weights(Kernel(delta=(r + 0.5) * dx), dx)
    if rng.random() < 0.5:
        values = rng.uniform(-1.0, 1.0, n)
    else:  # a few flat runs, so some stencils are flat
        values = np.repeat(rng.uniform(-1.0, 1.0, 4), rng.multinomial(n, [0.25] * 4))
    u0 = GridState(dx=dx, x0=0.0, values=values, boundary=boundary)
    bound = 1.0 / (float(np.sum(weights.weights)) * float(np.max(np.abs(values))))
    for multiple in MULTIPLES:
        trajectory = [u0]
        for _ in range(STEPS):
            trajectory.append(step(trajectory[-1], weights, flux, multiple * bound))
        yield flux, weights, trajectory


def audit(trajectory, weights, flux, constants) -> list:
    """[violation, location, passed, counts] of ``check_entropy`` on the run."""
    report = check_entropy(trajectory, weights, flux, constants)
    location = None if report.location is None else list(report.location)
    return [report.violation, location, report.passed, report.counts]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="the JSON file to write")
    ap.add_argument("--cases", type=int, default=100, help="seeds 0 .. N-1 (default 100)")
    args = ap.parse_args(argv)
    entries = [
        audit(trajectory, weights, flux, constants)
        for seed in range(args.cases)
        for flux, weights, trajectory in runs(seed)
        for constants in CONSTANTS
    ]
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
