"""Command-line front end: run, study, check, and weights subcommands.

Exit codes: 0 on success, 2 when an invariant check or study criterion fails,
1 on usage or configuration errors and when a run runs out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig, _keyed, config_to_text, parse_config
from .harness import _build_flux, _run_level, refine_fixed_delta, refine_joint_limit
from .kernels import Kernel, compute_weights
from .outputs import (
    weights_table,
    write_check_json,
    write_plot_data,
    write_solution_csv,
    write_study_csv,
    write_study_json,
    write_weights_csv,
)

__all__ = ["main"]

_OVERRIDE_FLAGS = {
    "dx": "grid.dx",
    "delta": "kernel.delta",
    "flux": "flux.family",
    "T": "problem.T",
    "levels": "study.levels",
    "out": "output.dir",
}

# the config keys that size a run's arrays
_SIZE_KEYS = "[grid] dx / [kernel] delta / [study] levels / [study] output_times"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for invariant
    # failures, so remap usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_override_flags(sub, *skip: str) -> None:
    for flag, dotted in _OVERRIDE_FLAGS.items():
        if flag not in skip:
            section, key = dotted.split(".")
            sub.add_argument(f"--{flag}", dest=dotted, metavar=flag.upper(),
                             help=f"override [{section}] {key}")


def _overrides(args) -> dict[str, str]:
    """The override flags given, by their dotted config keys (their dests)."""
    return {dest: value for dest, value in vars(args).items() if "." in dest and value is not None}


def build_parser() -> _Parser:
    parser = _Parser(prog="horizonflux", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single simulation, write solution CSV")
    p_run.add_argument("--config", required=True, help="path to the config file")
    _add_override_flags(p_run, "levels")

    p_study = sub.add_parser("study", help="run a grid-refinement study")
    p_study.add_argument("--config", required=True)
    p_study.add_argument(
        "--workers", type=int, default=1, help="levels run concurrently with this many workers"
    )
    _add_override_flags(p_study)

    p_check = sub.add_parser("check", help="run and audit every invariant")
    p_check.add_argument("--config", required=True)
    _add_override_flags(p_check, "levels")

    p_weights = sub.add_parser("weights", help="print the W_k table for (kernel, dx)")
    p_weights.add_argument("--delta", required=True, help="kernel horizon")
    p_weights.add_argument("--dx", required=True, help="cell width")
    p_weights.add_argument("--profile", default="uniform", help="kernel profile (default uniform)")
    p_weights.add_argument("--out", help="directory for weights.csv")

    return parser


def _config_echo(cfg: RunConfig) -> dict:
    return {"text": config_to_text(cfg)}


def _run_grid(cfg: RunConfig, n_output_times: int, audit: bool):
    """The config's run/check grid: ``harness._run_level`` on its problem and flux."""
    problem = cfg.resolved_problem()
    flux = _build_flux(problem, cfg.flux_family, cfg.lf_lambda)
    return _run_level(problem, flux, cfg.profile, cfg.delta, cfg.dx, cfg.mesh_ratio,
                      n_output_times, audit, cfg.enforce_cfl)


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    trajectory, *_ = _run_grid(cfg, cfg.output_times, False)
    out = Path(cfg.out_dir) / "solution.csv"
    write_solution_csv(trajectory, out)
    print(f"wrote {len(trajectory)} snapshots x {trajectory[0].n_cells} cells to {out}")
    return 0


def _cmd_check(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    _, _, reports = _run_grid(cfg, 0, True)
    out = Path(cfg.out_dir) / "invariants.json"
    write_check_json(reports, out, config_echo=_config_echo(cfg))
    for rep in reports:
        verdict = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {verdict} (violation {rep.violation:.3e}, tol {rep.tolerance:.3e})")
    print(f"wrote {out}")
    return 0 if all(rep.passed for rep in reports) else 2


def _cmd_study(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = parse_config(args.config, _overrides(args))
    fixed = cfg.regime == "fixed_delta"
    horizon = cfg.delta if fixed else cfg.coupling
    report = (refine_fixed_delta if fixed else refine_joint_limit)(
        cfg.resolved_problem(), cfg.flux_family, horizon, cfg.dx, cfg.levels, cfg.mesh_ratio,
        profile=cfg.profile, lf_lambda=cfg.lf_lambda, n_output_times=cfg.output_times,
        workers=args.workers,
    )
    out_dir = Path(cfg.out_dir)
    write_study_json(report, out_dir / "study.json", config_echo=_config_echo(cfg))
    write_study_csv(report, out_dir / "study.csv")
    write_plot_data(report, out_dir / "study_plot.dat")

    print(f"{report.regime} study of {report.problem} ({report.measure_name})")
    for rec in report.levels:
        measure = "-" if rec.measure is None else f"{rec.measure:.6e}"
        print(
            f"  level {rec.level}: dx={rec.dx:.6g} delta={rec.delta:.6g} "
            f"n={rec.n_cells} measure={measure} wall={rec.wall_time:.2f}s"
        )
    print(f"  eoc: {['%.3f' % r for r in report.eoc]}")
    status = "pass" if report.passed() else "FAIL"
    print(f"  invariants+decrease: {status}; wrote {out_dir}/study.*")
    return 0 if report.passed() else 2


def _float_flag(args, flag: str) -> float:
    raw = getattr(args, flag)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"--{flag} expects a float, got {raw!r}") from None


def _cmd_weights(args) -> int:
    delta, dx = _float_flag(args, "delta"), _float_flag(args, "dx")
    kernel = _keyed(f"--delta {args.delta} / --profile {args.profile}:", Kernel, delta,
                    args.profile)
    weights = _keyed(f"--delta {args.delta} / --dx {args.dx}:", compute_weights, kernel, dx)
    sys.stdout.write(weights_table(weights))
    if args.out is not None:
        path = Path(args.out) / "weights.csv"
        write_weights_csv(weights, path)
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "study": _cmd_study,
    "check": _cmd_check,
    "weights": _cmd_weights,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # past what the size guard could foresee
        keys = "--delta / --dx" if args.command == "weights" else _SIZE_KEYS
        print(f"error: out of memory ({exc}); lower the sizes set by {keys}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # a run that lost finiteness is a failed invariant, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
