"""The benchmark's three workloads: inputs, one timed pass, and its output gate.

Each workload builds its inputs in ``setup`` (untimed), runs one pass of
operations in ``run_pass`` (timed by the caller), and judges the pass's
outputs in ``check`` (untimed).  An operation is one study, one ``run`` or one
CLI command; ``check`` returns how many of the pass's operations failed.

Only ``wide_stencil_sweep`` has a random part: its initial field is drawn
from the seed.  The other two workloads run the paper's named problems, which
are fixed, so the seed does not change them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import horizonflux as hf
from horizonflux import cli

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
# Recorded measures and norms must match to this relative tolerance: far above
# the ~1e-16-per-step drift of a reordered sum, far below what a changed
# scheme moves them (1e-3 and up).
RTOL = 1e-8
# A sweep's final state must match the benchmark's own split-pair oracle to
# this absolute tolerance (the data lie in [-1, 1]).
ORACLE_ATOL = 1e-10


def n_steps(t_end: float, dt: float) -> int:
    """Number of steps ``horizonflux.run`` takes to reach t_end with step dt."""
    n_full = math.floor(t_end / dt + 1e-12)
    remainder = t_end - n_full * dt
    return n_full + (1 if remainder > 1e-12 * max(1.0, t_end) else 0)


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= RTOL * abs(expected)


def _close_all(values, expected) -> bool:
    return len(values) == len(expected) and all(map(_close, values, expected))


def load_expected(size: str, workload: str) -> dict | None:
    """Recorded values for one workload, or None when none are recorded."""
    if not EXPECTED_PATH.exists():
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(size, {}).get(workload)


def save_expected(size: str, workload: str, values: dict) -> None:
    data = {}
    if EXPECTED_PATH.exists():
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            data = json.load(handle)
    data.setdefault(size, {})[workload] = values
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    EXPECTED_PATH.write_text(text, encoding="utf-8")


class Workload:
    """One workload: ``setup`` builds the inputs, ``run_pass`` runs one pass of
    ``ops_per_pass`` operations, ``check`` returns one message per failed
    operation, and ``recorded`` gives the values ``check`` compares against,
    as a pass produced them."""

    name = ""
    ops_per_pass = 0
    pair_updates = 0  # sum of n_cells * max(r, 1) * steps over one pass

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception becomes its output and fails its gate."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the gate counts it as a failed operation
        return exc


class FixedHorizonAudit(Workload):
    """Acceptance criterion 8: fixed-horizon Cauchy study with every audit on.

    The entropy audit at r = 51 on the finest level dominates; this workload
    also stores the largest trajectory (285 steps x 2560 cells).
    """

    name = "fixed_horizon_audit"
    ops_per_pass = 1
    DELTA, DX0, MESH_RATIO = 0.1, 1 / 64, 0.9

    def setup(self):
        self.levels = {"full": 4, "smoke": 2}[self.size]
        self.problem = hf.get_problem("burgers_shock")
        a, b = self.problem.domain
        self.pair_updates = 0
        for m in range(self.levels):
            dx = self.DX0 / 2**m
            r = hf.compute_weights(hf.Kernel(delta=self.DELTA), dx).r
            steps = n_steps(self.problem.final_time, self.MESH_RATIO * dx)
            self.pair_updates += round((b - a) / dx) * max(r, 1) * steps
        self.expected = load_expected(self.size, self.name)

    def run_pass(self):
        return [
            _attempt(
                hf.refine_fixed_delta,
                self.problem, "godunov", self.DELTA, self.DX0, self.levels,
                self.MESH_RATIO, workers=1,
            )
        ]

    def check(self, outputs):
        (report,) = outputs
        if isinstance(report, Exception):
            return [f"study raised {report!r}"]
        if not report.passed():
            return ["study did not pass its audits and decrease test"]
        if not _close_all(report.measures(), self.expected["measures"]):
            return [f"study measures {report.measures()} differ from the recorded ones"]
        return []

    def recorded(self, outputs):
        return {"measures": outputs[0].measures()}


class WideStencilSweep(Workload):
    """Library ``run`` over 4 flux families x r in {1, 4, 16, 64, 256}, no audits.

    The field is seeded piecewise-constant data in [-1, 1] whose pieces
    alternate in sign, so every jump straddles Burgers' sonic point u = 0.
    """

    name = "wide_stencil_sweep"
    RS = (1, 4, 16, 64, 256)
    PIECES = 16
    # family, local flux, lf_lambda, mesh ratio (inside the CFL bound on [-1, 1])
    FAMILIES = (
        ("godunov", "burgers", None, 0.45),
        ("engquist_osher", "burgers", None, 0.45),
        ("lax_friedrichs", "burgers", 1.0, 0.45),
        ("upwind_linear", "linear_advection", None, 0.9),
    )

    def setup(self):
        self.n, self.steps = {"full": (4096, 128), "smoke": (512, 2)}[self.size]
        self.dx = 1.0 / self.n
        self.breaks, self.piece_values = self._field()
        breaks, piece_values = self.breaks, self.piece_values

        def u0(x):
            x = np.mod(np.asarray(x, dtype=float), 1.0)
            return piece_values[np.searchsorted(breaks, x, side="right") - 1]

        self.u0 = u0
        self.cases = []
        for family, local, lf_lambda, mesh_ratio in self.FAMILIES:
            flux = hf.make_flux(family, hf.make_local_flux(local), lf_lambda=lf_lambda)
            for r in self.RS:
                config = hf.SchemeConfig(
                    kernel=hf.Kernel(delta=r * self.dx),
                    flux=flux,
                    mesh_ratio=mesh_ratio,
                    final_time=self.steps * mesh_ratio * self.dx,
                )
                self.cases.append((f"{family}.r{r}", config, family, lf_lambda))
        self.ops_per_pass = len(self.cases)
        self.pair_updates = self.n * sum(self.RS) * self.steps * len(self.FAMILIES)
        self.expected = load_expected(self.size, self.name)
        self._oracle = None

    def _field(self):
        """Seeded jumps at least three cells apart, never on a cell edge."""
        rng = np.random.default_rng(self.seed)
        m = self.PIECES
        cells = np.sort(rng.choice(self.n // 4, size=m, replace=False)) * 4
        breaks = (cells + rng.uniform(0.1, 0.9, size=m)) * self.dx
        signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        return breaks, signs * rng.uniform(0.1, 1.0, size=m)

    def run_pass(self):
        return [
            _attempt(
                hf.run, config, self.u0, x0=0.0, dx=self.dx, n_cells=self.n,
                boundary="periodic", breakpoints=self.breaks,
            )
            for _, config, _, _ in self.cases
        ]

    def check(self, outputs):
        if self._oracle is None:
            self._oracle = self._oracle_states()
        failures = []
        for (label, config, _, _), out, (init, final) in zip(
            self.cases, outputs, self._oracle
        ):
            problem = self._check_one(config, out, init, final)
            if not problem and self.seed == DEFAULT_SEED:
                l1 = float(np.sum(np.abs(out[-1].values))) * self.dx
                if not _close(l1, self.expected["l1"][label]):
                    problem = f"final L1 norm {l1!r} differs from the recorded one"
            if problem:
                failures.append(f"{label}: {problem}")
        return failures

    def _check_one(self, config, out, init, final):
        if isinstance(out, Exception):
            return f"run raised {out!r}"
        if len(out) != 2:
            return f"expected initial and final snapshots, got {len(out)}"
        u_init, u_final = out[0].values, out[-1].values
        if not np.all(np.isfinite(u_final)):
            return "final state is not finite"
        lo, hi = float(np.min(u_init)), float(np.max(u_init))
        if np.min(u_final) < lo - 1e-12 or np.max(u_final) > hi + 1e-12:
            return "final state leaves the initial data range"
        mass_drift = abs(float(np.sum(u_final)) - float(np.sum(u_init))) * self.dx
        scale = 1.0 + float(np.sum(np.abs(u_init))) * self.dx
        if mass_drift > 1e-13 * scale * self.steps:
            return f"mass drifted by {mass_drift:.3e}"
        if abs(out[-1].time - config.final_time) > 1e-12:
            return f"final time {out[-1].time!r} is not {config.final_time!r}"
        if np.max(np.abs(u_init - init)) > ORACLE_ATOL:
            return "initial cell averages differ from the exact averages"
        if np.max(np.abs(u_final - final)) > ORACLE_ATOL:
            return "final state differs from the split-pair oracle"
        return ""

    def _oracle_states(self):
        """Exact initial averages and final states from an independent stepper.

        Each Burgers flux is written as a split pair g(a, b) = A(a) (+) B(b):
        Godunov max(f(a v 0), f(b ^ 0)), Engquist-Osher f(a v 0) + f(b ^ 0),
        Lax-Friedrichs (f(a)/2 + a/2L) + (f(b)/2 - b/2L); upwind advection is
        g(a, b) = a.
        """
        n, dx = self.n, self.dx
        edges = np.arange(n + 1) * dx
        piece = np.searchsorted(self.breaks, edges[:-1], side="right") - 1
        init = self.piece_values[piece]
        for i, p in enumerate(self.breaks):
            j = int(p // dx)
            frac = (p - edges[j]) / dx
            init[j] = frac * self.piece_values[i - 1] + (1.0 - frac) * self.piece_values[i]
        states = []
        for _, config, family, lf_lambda in self.cases:
            weights = hf.compute_weights(config.kernel, dx).weights
            dt = config.mesh_ratio * dx
            u = init.copy()
            for _ in range(self.steps):
                u = u - dt * _split_pair_rate(u, weights, family, lf_lambda)
            states.append((init, u))
        return states

    def recorded(self, outputs):
        if self.seed != DEFAULT_SEED:
            raise ValueError(f"record the sweep with the default seed {DEFAULT_SEED}")
        return {
            "seed": DEFAULT_SEED,
            "l1": {
                label: float(np.sum(np.abs(out[-1].values))) * self.dx
                for (label, *_), out in zip(self.cases, outputs)
            },
        }


def _split_pair_rate(u, weights, family, lf_lambda):
    """sum_k [g(u_j, u_{j+k}) - g(u_{j-k}, u_j)] W_k on a periodic grid."""
    n, pad = u.size, weights.size
    ext = np.take(u, np.arange(-pad, n + pad), mode="wrap")
    if family == "upwind_linear":
        left, right, combine = ext, np.zeros_like(ext), np.add
    elif family == "lax_friedrichs":
        half_f, visc = 0.25 * ext**2, ext / (2.0 * lf_lambda)
        left, right, combine = half_f + visc, half_f - visc, np.add
    else:
        left = 0.5 * np.maximum(ext, 0.0) ** 2
        right = 0.5 * np.minimum(ext, 0.0) ** 2
        combine = np.maximum if family == "godunov" else np.add
    acc = np.zeros(n)
    for k in range(1, pad + 1):
        gk = combine(left[:-k], right[k:])
        acc += (gk[pad : pad + n] - gk[pad - k : pad - k + n]) * weights[k - 1]
    return acc


class LocalLimitCli(Workload):
    """``horizonflux.cli.main`` in-process: study, check and run per case.

    The cases are those of scripts/local_limit_study.py; each study is a joint
    limit with delta = 2 dx, and check and run use the finest study grid.
    This is the workload where config parsing, the writers and the exact L1
    error integrals do real work.
    """

    name = "local_limit_cli"
    CASES = (
        ("burgers_shock", "godunov", 0.9),
        ("burgers_rarefaction", "godunov", 0.45),
        ("advect_bump", "upwind_linear", 0.9),
    )
    COUPLING = 2.0
    OUTPUT_FILES = {"study": "study.json", "check": "invariants.json", "run": "solution.csv"}

    def setup(self):
        dx0, self.levels = {"full": (1 / 64, 4), "smoke": (1 / 32, 2)}[self.size]
        fine_dx = dx0 / 2 ** (self.levels - 1)
        self.pair_updates = 0
        self.argvs = []
        for problem_name, family, mesh_ratio in self.CASES:
            problem = hf.get_problem(problem_name)
            out_dir = self.workdir / problem_name
            case = (out_dir, problem_name, family, mesh_ratio)
            study_cfg = self._write_config(*case, "study", dx0)
            single_cfg = self._write_config(*case, "single", fine_dx)
            self.argvs += [
                (problem_name, "study", ["study", "--config", str(study_cfg), "--workers", "1"]),
                (problem_name, "check", ["check", "--config", str(single_cfg)]),
                (problem_name, "run", ["run", "--config", str(single_cfg)]),
            ]
            a, b = problem.domain
            grids = [dx0 / 2**m for m in range(self.levels)] + [fine_dx, fine_dx]
            for dx in grids:
                r = hf.compute_weights(hf.Kernel(delta=self.COUPLING * dx), dx).r
                steps = n_steps(problem.final_time, mesh_ratio * dx)
                self.pair_updates += round((b - a) / dx) * max(r, 1) * steps
        self.ops_per_pass = len(self.argvs)
        self.expected = load_expected(self.size, self.name)

    def _write_config(self, out_dir, problem, family, mesh_ratio, tag, dx):
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{tag}.cfg"
        path.write_text(
            f"[kernel]\ndelta = {self.COUPLING * dx!r}\n\n"
            f"[flux]\nfamily = {family}\n\n"
            f"[problem]\nname = {problem}\n\n"
            f"[grid]\ndx = {dx!r}\n\n"
            f"[time]\nmesh_ratio = {mesh_ratio!r}\n\n"
            f"[study]\nregime = joint_limit\nlevels = {self.levels}\n"
            f"coupling = {self.COUPLING!r}\n\n"
            f"[output]\ndir = {out_dir}\n",
            encoding="utf-8",
        )
        return path

    def run_pass(self):
        sink = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for _, _, argv in self.argvs:
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception as exc:  # the gate counts it as a failed command
                    codes.append(exc)
        return codes

    def check(self, outputs):
        failures = []
        for (problem, command, _), code in zip(self.argvs, outputs):
            failure = f"exit {code!r}" if code != 0 else self._check_files(problem, command)
            if failure:
                failures.append(f"{problem} {command}: {failure}")
        # each pass must write its outputs afresh
        for name in self.OUTPUT_FILES.values():
            for problem, _, _ in self.CASES:
                (self.workdir / problem / name).unlink(missing_ok=True)
        return failures

    def _check_files(self, problem, command):
        expected = self.expected[problem]
        path = self.workdir / problem / self.OUTPUT_FILES[command]
        try:
            if command == "run":
                l1 = _final_l1(path)
                return "" if _close(l1, expected["run_l1"]) else f"final L1 norm {l1!r} differs"
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        if not payload["passed"]:
            return f"{path.name} says failed"
        measures = [level["measure"] for level in payload.get("levels", [])]
        if command == "study" and not _close_all(measures, expected["study"]):
            return f"measures {measures} differ from the recorded ones"
        return ""

    def recorded(self, outputs):
        values = {}
        for problem, _, _ in self.CASES:
            out_dir = self.workdir / problem
            study = json.loads((out_dir / "study.json").read_text(encoding="utf-8"))
            values[problem] = {
                "study": [lvl["measure"] for lvl in study["levels"]],
                "run_l1": _final_l1(out_dir / "solution.csv"),
            }
        return values


def _final_l1(path: Path) -> float:
    """dx * sum |u| over the last snapshot of a solution CSV."""
    t, x, u = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    last = t == t.max()
    dx = float(x[1] - x[0])
    return dx * float(np.sum(np.abs(u[last])))


WORKLOADS = {cls.name: cls for cls in (FixedHorizonAudit, WideStencilSweep, LocalLimitCli)}
