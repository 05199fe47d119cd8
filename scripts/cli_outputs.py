#!/usr/bin/env python3
"""Write the byte-stable CLI outputs of the local-limit cases into DIR.

For each case of ``local_limit_study.CASES`` this writes ``study.cfg`` (dx0 =
1/64, 4 joint-limit levels, coupling 2) and ``single.cfg`` (dx = 1/512,
delta = 2 dx) into DIR/<problem>/, then runs ``horizonflux study``, ``check``
and ``run`` from DIR.  Each config names its output directory relative to DIR,
so the 15 outputs (study.json, study.csv, study_plot.dat, invariants.json and
solution.csv per case) of two source trees compare with ``diff -r``:

    PYTHONPATH=src python scripts/cli_outputs.py DIR

It exits nonzero if any command does.
"""

import argparse
import os
from pathlib import Path

from horizonflux import cli
from local_limit_study import CASES

COUPLING, DX0, LEVELS = 2.0, 1 / 64, 4


def write_config(path: Path, problem: str, family: str, mesh_ratio: float, dx: float) -> str:
    path.write_text(
        f"[kernel]\ndelta = {COUPLING * dx!r}\n\n"
        f"[flux]\nfamily = {family}\n\n"
        f"[problem]\nname = {problem}\n\n"
        f"[grid]\ndx = {dx!r}\n\n"
        f"[time]\nmesh_ratio = {mesh_ratio!r}\n\n"
        f"[study]\nregime = joint_limit\nlevels = {LEVELS}\ncoupling = {COUPLING!r}\n\n"
        f"[output]\ndir = {problem}\n",
        encoding="utf-8",
    )
    return str(path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir", type=Path, help="where the configs and outputs go")
    args = ap.parse_args()
    args.dir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.dir)
    status = 0
    for problem, (family, mesh_ratio) in CASES.items():
        Path(problem).mkdir(exist_ok=True)
        study = write_config(Path(problem, "study.cfg"), problem, family, mesh_ratio, DX0)
        single = write_config(Path(problem, "single.cfg"), problem, family, mesh_ratio,
                              DX0 / 2 ** (LEVELS - 1))
        for argv in (["study", "--config", study], ["check", "--config", single],
                     ["run", "--config", single]):
            code = cli.main(argv)
            status = status or code
    return status


if __name__ == "__main__":
    raise SystemExit(main())
