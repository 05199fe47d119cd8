#!/usr/bin/env python3
"""Smoke test of the benchmark: a reduced-size pass over every workload.

Checks that each workload, untraced and traced, exits 0 with a correct result
whose last line carries exactly the metrics BENCHMARK.json names, with their
units and finite values; and that the benchmark exits non-zero without a
result when the package's sources are absent.  Run from the repository root:

    python3 bench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)


def check_result(label, proc, units) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"{label}: missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    for name, unit in units.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry["unit"] != unit:
            problems.append(f"{label}: {name} has unit {entry['unit']!r}, not {unit!r}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} = {entry['value']!r}")
    return problems


def check_without_sources(spec) -> list[str]:
    """The benchmark alone, without src/, must fail without printing a result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        workload = spec["workloads"][0]["name"]
        proc = run(spec["command"] + ["--workload", workload, "--seed", "0",
                                      "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            proc = run(spec["command"] + [
                "--workload", workload["name"], "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke",
            ], ROOT)
            found = check_result(label, proc, units[trace])
            print(f"{label}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_without_sources(spec)
    print(f"without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
