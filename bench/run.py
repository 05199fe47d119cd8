#!/usr/bin/env python3
"""horizonflux benchmark: time one workload end to end, or trace it by module.

Run from the repository root:

    python3 bench/run.py --workload fixed_horizon_audit --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --all                # every workload, each in a fresh process
    python3 bench/smoke.py                    # reduced-size check of every metric name

The workloads are in ``workloads.py`` and the tracer in ``tracing.py``; see
NOTES.md for what each metric means.  The package is imported from ``src/``
next to this directory and driven only through its public calls, with one
worker and BLAS/OpenMP threads pinned to 1.

A run sets up the workload several times in fresh processes and reports the
median as ``setup_s``, then repeats timed passes until they have taken
``--seconds`` in all, checking every pass's outputs outside the timed
section.  ``--trace 1`` adds one pass with
spans and one with tracemalloc, and reports the per-layer metrics instead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import os

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("fixed_horizon_audit", "wide_stencil_sweep", "local_limit_cli")

# name -> unit of every metric an untraced run reports
END_TO_END = {
    "wall_s": "s",
    "pair_updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import horizonflux from this checkout's src/, and only from there."""
    if not (SRC / "horizonflux" / "__init__.py").is_file():
        raise ImportError(f"no horizonflux package under {SRC}")
    sys.path.insert(0, str(SRC))
    import horizonflux

    if Path(horizonflux.__file__).resolve().parent != (SRC / "horizonflux").resolve():
        raise ImportError(f"horizonflux imported from {horizonflux.__file__}, not {SRC}")
    return horizonflux


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "seed": seed,
        "git_commit": git_commit(),
    }


def probe_setup(args, workdir: Path) -> float:
    """Seconds from starting a fresh process to its first timed call."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
        "--workdir", str(workdir),
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


def timed_passes(workload, seconds: float):
    """Repeat passes until they have taken ``seconds`` in all."""
    walls, failures, attempted = [], [], 0
    while True:
        start = time.perf_counter()
        outputs = workload.run_pass()
        walls.append(time.perf_counter() - start)
        failures += workload.check(outputs)
        attempted += workload.ops_per_pass
        if sum(walls) >= seconds:
            return walls, failures, attempted


def traced_passes(hf, workload, tracing, spans_path: Path):
    """One pass with spans, then one with tracemalloc, so neither skews the other.

    tracemalloc charges every allocation, which inflates the times of code
    that allocates many small arrays several-fold; the span timings come from
    the pass without it.
    """
    tracer = tracing.Tracer(hf)
    tracer.install()
    try:
        start = time.perf_counter()
        outputs = workload.run_pass()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    failures = workload.check(outputs)
    tracemalloc.start()
    try:
        outputs = workload.run_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failures += workload.check(outputs)
    return tracer, wall, peak, failures


def run_one(args) -> int:
    try:
        hf = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(args.workdir) if args.workdir else OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    try:
        workload.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.record:
            values = workload.recorded(workload.run_pass())
            workloads.save_expected(args.size, args.workload, values)
            print(f"recorded {args.size} values of {args.workload}")
            return 0
        if workload.expected is None:
            print(f"error: no recorded values for {args.workload} ({args.size})", file=sys.stderr)
            return 2

        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setup.append(probe_setup(args, workdir / f"probe{i}"))
        walls, failures, attempted = timed_passes(workload, args.seconds)
        wall = statistics.median(walls)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}.json"
            tracer, traced_wall, peak, traced_failures = traced_passes(
                hf, workload, tracing, spans_path
            )
            failures += traced_failures
            attempted += 2 * workload.ops_per_pass
            values = tracer.metrics(traced_wall, wall, peak)
            units = tracing.PER_LAYER
        else:
            values = {
                "wall_s": wall,
                "pair_updates_per_s": workload.pair_updates / wall,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print(f"FAILED {message}")
    print(f"{args.workload}: {len(walls)} passes, wall_s per pass "
          + ", ".join(f"{w:.4f}" for w in walls))
    if not args.trace:
        print("setup_s per probe: " + ", ".join(f"{s:.4f}" for s in setup))
    print(f"fail_ratio = {len(failures) / attempted} ({len(failures)} of {attempted} ops)")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    print("machine: " + json.dumps(machine(args.seed), sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table of all metrics."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["fail_ratio"] = result["failed"] / result["attempted"]
        machine_line = next(line for line in lines if line.startswith("machine: "))
        result["machine"] = json.loads(machine_line[len("machine: "):])
        summary[name] = result

    print()
    print(f"{'workload':<22} {'metric':<36} {'value':>16} unit")
    for name, result in summary.items():
        rows = [("fail_ratio", result["fail_ratio"], "ratio")]
        rows += [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        for metric, value, unit in rows:
            print(f"{name:<22} {metric:<36} {value:>16.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"summary-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"summary written to {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--record", action="store_true",
                    help="store one pass's outputs as the values later runs must match")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
