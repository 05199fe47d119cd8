"""Bit-stable text outputs: solution CSV, study tables, and JSON summaries.

All floats are written with 17 significant decimal digits, enough to
round-trip a double exactly, so identical inputs produce byte-identical
files and acceptance tables stay diffable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import InvariantReport
from .harness import StudyReport
from .kernels import QuadratureWeights
from .solver import GridState

__all__ = [
    "format_float",
    "weights_table",
    "write_check_json",
    "write_plot_data",
    "write_solution_csv",
    "write_study_csv",
    "write_study_json",
    "write_weights_csv",
]


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _write(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def write_solution_csv(trajectory: Sequence[GridState], path) -> None:
    """One row per (snapshot, cell): t, x_center, u; ``%.17g`` is ``format_float``."""
    parts = ["t,x_center,u\n"]
    for state in trajectory:
        row = format_float(state.time) + ",%.17g,%.17g\n"
        pairs = np.column_stack((state.centers, state.values)).ravel()
        parts.append(row * state.n_cells % tuple(pairs.tolist()))
    _write(path, "".join(parts))


def weights_table(weights: QuadratureWeights) -> str:
    """Human-readable W_k table with the normalization check line."""
    lines = [
        f"dx = {format_float(weights.dx)}, delta = {format_float(weights.delta)}, "
        f"r = {weights.r}",
        "k,W_k,k*dx*W_k",
    ]
    for k, w in enumerate(weights.weights, start=1):
        lines.append(f"{k},{format_float(w)},{format_float(k * weights.dx * w)}")
    lines.append(
        f"normalization defect |dx*sum k*W_k - 1| = "
        f"{format_float(weights.normalization_defect())}"
    )
    return "\n".join(lines) + "\n"


def write_weights_csv(weights: QuadratureWeights, path) -> None:
    lines = ["k,W_k"]
    for k, w in enumerate(weights.weights, start=1):
        lines.append(f"{k},{format_float(w)}")
    _write(path, "\n".join(lines) + "\n")


def write_study_json(report: StudyReport, path, config_echo: dict | None = None) -> None:
    payload = report.as_dict()
    if config_echo is not None:
        payload["config"] = config_echo
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_study_csv(report: StudyReport, path) -> None:
    """One row per refinement level."""
    lines = ["level,dx,delta,dt,n_cells,measure,eoc"]
    for rec in report.levels:
        measure = "" if rec.measure is None else format_float(rec.measure)
        rate = ""
        if 0 < rec.level <= len(report.eoc):
            rate = format_float(report.eoc[rec.level - 1])
        lines.append(
            f"{rec.level},{format_float(rec.dx)},{format_float(rec.delta)},"
            f"{format_float(rec.dt)},{rec.n_cells},{measure},{rate}"
        )
    _write(path, "\n".join(lines) + "\n")


def write_plot_data(report: StudyReport, path) -> None:
    """Two-column (dx, measure) table ready for external plotting."""
    lines = ["# dx measure"]
    for rec in report.levels:
        if rec.measure is not None:
            lines.append(f"{format_float(rec.dx)} {format_float(rec.measure)}")
    _write(path, "\n".join(lines) + "\n")


def write_check_json(
    reports: Sequence[InvariantReport], path, config_echo: dict | None = None
) -> None:
    payload = {
        "passed": all(rep.passed for rep in reports),
        "checks": [rep.as_dict() for rep in reports],
    }
    if config_echo is not None:
        payload["config"] = config_echo
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
