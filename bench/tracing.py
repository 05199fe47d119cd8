"""Span tracer for the benchmark's traced run, installed from outside the package.

``Tracer.install`` replaces every public function of each horizonflux module
(the functions named in its ``__all__``) with a wrapper, in every module
namespace that holds it, so calls between modules are seen too.  It also
wraps ``TwoPointFlux.shifted_pair_evaluator`` and the evaluators it returns.

Each wrapped call records a span (id, name, start, end, parent id).  Pair
evaluations number in the hundreds of thousands, so they are counted and timed
in aggregate instead, and charged as child time to the span that made them.
A function's self time is its duration minus the time of its children, so the
self times of all functions add up to the time spent inside the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = (
    "kernels", "fluxes", "solver", "diagnostics", "reference",
    "harness", "config", "outputs", "cli",
)
STEP_FAMILIES = ("godunov", "engquist_osher", "lax_friedrichs", "upwind_linear")
STEP_RS = (1, 4, 16, 64, 256)
LEVELS = 4
CHECKS = ("check_max_principle", "check_tvd", "check_conservation", "check_entropy")

# name -> unit of every metric the traced run reports
PER_LAYER = {
    "diagnostics.check_entropy.s": "s",
    "diagnostics.entropy_cells": "count",
    "diagnostics.audit_share": "ratio",
    **{f"diagnostics.{c}.s": "s" for c in CHECKS[:3]},
    "fluxes.pair_evals": "count",
    "fluxes.pair_elems": "count",
    "fluxes.pair_eval.step.s": "s",
    "fluxes.pair_eval.audit.s": "s",
    "solver.step.s": "s",
    "solver.step.calls": "count",
    **{f"solver.step_ms.{f}.r{r}": "ms" for f in STEP_FAMILIES for r in STEP_RS},
    "solver.pair_updates_per_s": "1/s",
    "solver.run.self_s": "s",
    "solver.cell_average_init.s": "s",
    "solver.state_at.s": "s",
    "harness.trajectory_bytes_peak": "bytes",
    **{f"harness.level_s.L{m}": "s" for m in range(LEVELS)},
    "harness.nested_l1_distance.s": "s",
    "reference.l1_error.s": "s",
    "reference.l1_error.calls": "count",
    "config.parse_config.s": "s",
    "outputs.write.s": "s",
    "outputs.bytes_written": "bytes",
    "kernels.compute_weights.s": "s",
    "kernels.compute_weights.calls": "count",
    **{f"{m}.self_s": "s" for m in MODULES},
    "mem.tracemalloc_peak_mb": "MB",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self._stack: list[list] = []  # [name, span id, child seconds]
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.pair_evals = {kind: [0, 0, 0.0] for kind in ("step", "audit", "other")}
        self.step_s: defaultdict[tuple, list] = defaultdict(list)  # (family, r)
        self.level_s: defaultdict[int, float] = defaultdict(float)
        self.trajectory_bytes_peak = 0
        self._patches: list[tuple] = []
        diagnostics = self.modules[MODULES.index("diagnostics")]
        self._kruzhkov_constants = diagnostics.kruzhkov_constants  # taken before install
        self._hooks = {
            "solver.step": self._on_step,
            "solver.run": self._on_run,
            "diagnostics.check_entropy": self._on_check_entropy,
            "harness.refine_fixed_delta": self._on_study,
            "harness.refine_joint_limit": self._on_study,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for module in (self.package, *self.modules):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrappers[value])
        flux_cls = self.modules[MODULES.index("fluxes")].TwoPointFlux
        method = flux_cls.shifted_pair_evaluator
        self._patches.append((flux_cls, "shifted_pair_evaluator", method))
        flux_cls.shifted_pair_evaluator = self._wrap_evaluator(method)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        if hook is None and name.startswith("outputs.write_"):
            hook = self._on_write
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][1] if stack else None
            frame = [name, span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                self.spans.append((span_id, name, start, end, parent))
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return traced

    def _wrap_evaluator(self, method):
        traced_method = self._wrap("fluxes.shifted_pair_evaluator", method)
        stack = self._stack

        def shifted_pair_evaluator(flux, values):
            tally = self.pair_evals[self._caller_kind()]  # [calls, elements, seconds]
            evaluate = traced_method(flux, values)

            def counted(k):
                start = perf_counter()
                out = evaluate(k)
                duration = perf_counter() - start
                tally[0] += 1
                tally[1] += out.size
                tally[2] += duration
                if stack:
                    stack[-1][2] += duration
                return out

            return counted

        return shifted_pair_evaluator

    def _caller_kind(self) -> str:
        for name, _, _ in reversed(self._stack):
            if name.startswith("solver."):
                return "step"
            if name.startswith("diagnostics."):
                return "audit"
        return "other"

    # -- counters taken at layer boundaries -------------------------------

    def _on_step(self, args, kwargs, result, duration):
        state = _arg(args, kwargs, 0, "state")
        weights = _arg(args, kwargs, 1, "weights")
        flux = _arg(args, kwargs, 2, "flux")
        self.step_s[(flux.family, weights.r)].append(duration)
        self.counts["solver.pair_updates"] += state.n_cells * weights.n_terms

    def _on_run(self, args, kwargs, result, duration):
        arrays = {id(state.values): state.values.nbytes for state in result}
        self.trajectory_bytes_peak = max(self.trajectory_bytes_peak, sum(arrays.values()))

    def _on_check_entropy(self, args, kwargs, result, duration):
        trajectory = _arg(args, kwargs, 0, "trajectory")
        constants = args[3] if len(args) > 3 else kwargs.get("constants")
        if constants is None:
            constants = self._kruzhkov_constants(trajectory[0])
        cells = (len(trajectory) - 1) * trajectory[0].n_cells * np.size(constants)
        self.counts["diagnostics.entropy_cells"] += cells

    def _on_study(self, args, kwargs, result, duration):
        for m, record in enumerate(result.levels):
            self.level_s[m] += record.wall_time

    def _on_write(self, args, kwargs, result, duration):
        self.counts["outputs.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    # -- report -----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float, tracemalloc_peak: int) -> dict:
        total, counts = self.total_s, self.counts
        module_self = {m: 0.0 for m in MODULES}
        for name, seconds in self.self_s.items():
            module_self[name.split(".", 1)[0]] += seconds
        pair = self.pair_evals
        module_self["fluxes"] += sum(tally[2] for tally in pair.values())
        step_s = total["solver.step"]
        values = {
            "diagnostics.check_entropy.s": total["diagnostics.check_entropy"],
            "diagnostics.entropy_cells": counts["diagnostics.entropy_cells"],
            "diagnostics.audit_share": sum(total[f"diagnostics.{c}"] for c in CHECKS)
            / traced_wall,
            **{f"diagnostics.{c}.s": total[f"diagnostics.{c}"] for c in CHECKS[:3]},
            "fluxes.pair_evals": sum(tally[0] for tally in pair.values()),
            "fluxes.pair_elems": sum(tally[1] for tally in pair.values()),
            "fluxes.pair_eval.step.s": pair["step"][2],
            "fluxes.pair_eval.audit.s": pair["audit"][2],
            "solver.step.s": step_s,
            "solver.step.calls": self.calls["solver.step"],
            "solver.pair_updates_per_s": counts["solver.pair_updates"] / step_s
            if step_s > 0.0 else 0.0,
            "solver.run.self_s": self.self_s["solver.run"],
            "solver.cell_average_init.s": total["solver.cell_average_init"],
            "solver.state_at.s": total["solver.state_at"],
            "harness.trajectory_bytes_peak": self.trajectory_bytes_peak,
            **{f"harness.level_s.L{m}": self.level_s[m] for m in range(LEVELS)},
            "harness.nested_l1_distance.s": total["harness.nested_l1_distance"],
            "reference.l1_error.s": total["reference.l1_error"],
            "reference.l1_error.calls": self.calls["reference.l1_error"],
            "config.parse_config.s": total["config.parse_config"],
            "outputs.write.s": sum(
                s for name, s in total.items() if name.startswith("outputs.write_")
            ),
            "outputs.bytes_written": counts["outputs.bytes_written"],
            "kernels.compute_weights.s": total["kernels.compute_weights"],
            "kernels.compute_weights.calls": self.calls["kernels.compute_weights"],
            **{f"{m}.self_s": module_self[m] for m in MODULES},
            "mem.tracemalloc_peak_mb": tracemalloc_peak / 2**20,
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": traced_wall - sum(module_self.values()),
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        for family in STEP_FAMILIES:
            for r in STEP_RS:
                durations = self.step_s.get((family, r))
                median_ms = 1e3 * statistics.median(durations) if durations else 0.0
                values[f"solver.step_ms.{family}.r{r}"] = median_ms
        return values

    def write_spans(self, path) -> None:
        payload = {
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": sorted(self.spans),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
