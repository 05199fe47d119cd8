"""Plain-text run configuration: INI-style sections validated into a RunConfig.

A config names the kernel, the flux family, a benchmark problem, the grid
spacing, and the time-stepping parameters.  Validation happens at load time,
including the monotonicity bound on the mesh ratio over the problem's data
box, so a config that parses is a config that runs.  ``[time] enforce_cfl =
false`` lifts that bound for ``run`` and ``check`` only; ``study`` always
enforces it and exits 1 when a level's mesh ratio breaks it.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

from .fluxes import FLUX_FAMILIES
from .harness import DEFAULT_OUTPUT_TIMES, _build_flux
from .kernels import PROFILE_NAMES
from .reference import PROBLEM_NAMES, Problem, get_problem
from .solver import BOUNDARY_MODES, validate_cfl

__all__ = ["RunConfig", "config_to_text", "parse_config", "parse_config_text"]

_REGIMES = ("fixed_delta", "joint_limit")

# section -> key -> (type tag, default or REQUIRED marker)
_REQUIRED = object()
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "kernel": {
        "profile": ("str", "uniform"),
        "delta": ("float", _REQUIRED),
    },
    "flux": {
        "family": ("str", _REQUIRED),
        "lf_lambda": ("float", None),
    },
    "problem": {
        "name": ("str", _REQUIRED),
        "x_left": ("float", None),
        "x_right": ("float", None),
        "window_left": ("float", None),
        "window_right": ("float", None),
        "T": ("float", None),
        "boundary": ("str", None),
    },
    "grid": {
        "dx": ("float", _REQUIRED),
    },
    "time": {
        "mesh_ratio": ("float", _REQUIRED),
        "enforce_cfl": ("bool", True),
    },
    "study": {
        "regime": ("str", "joint_limit"),
        "levels": ("int", 4),
        "coupling": ("float", 2.0),
        "output_times": ("int", DEFAULT_OUTPUT_TIMES),
    },
    "output": {
        "dir": ("str", "out"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration for the run/check/study commands."""

    profile: str
    delta: float
    flux_family: str
    lf_lambda: float | None
    problem: str
    x_left: float
    x_right: float
    window_left: float
    window_right: float
    final_time: float
    boundary: str
    dx: float
    mesh_ratio: float
    enforce_cfl: bool
    regime: str
    levels: int
    coupling: float
    output_times: int
    out_dir: str

    def resolved_problem(self) -> Problem:
        """The named problem with the config's geometry overrides applied."""
        return replace(
            get_problem(self.problem),
            domain=(self.x_left, self.x_right),
            window=(self.window_left, self.window_right),
            boundary=self.boundary,
            final_time=self.final_time,
        )

    def build_flux(self):
        return _build_flux(get_problem(self.problem), self.flux_family, self.lf_lambda)


def _convert(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError
        return raw
    except ValueError:
        raise ValueError(
            f"config key [{section}] {key} expects a {kind}, got {raw!r}"
        ) from None


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate a configuration from its text form.

    ``overrides`` maps dotted keys (``"grid.dx"``) to raw string values and is
    applied before validation; the CLI routes its flags through here.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive ("T")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from None

    raw: dict[tuple[str, str], str] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(
                f"unknown config section [{section}]; valid sections: "
                + ", ".join(sorted(_SCHEMA))
            )
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(
                    f"unknown key {key!r} in section [{section}]; valid keys: "
                    + ", ".join(sorted(_SCHEMA[section]))
                )
            raw[(section, key)] = value
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ValueError(f"unknown override {dotted!r}")
        raw[(section, key)] = value

    values: dict[tuple[str, str], object] = {}
    for section, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            if (section, key) in raw:
                values[(section, key)] = _convert(section, key, kind, raw[(section, key)])
            elif default is _REQUIRED:
                raise ValueError(f"missing required config key [{section}] {key}")
            else:
                values[(section, key)] = default

    return _validate(values)


def parse_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read, parse, and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), overrides)


def _positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _validate(v: dict[tuple[str, str], object]) -> RunConfig:
    problem_name = v[("problem", "name")]
    if problem_name not in PROBLEM_NAMES:
        raise ValueError(
            f"unknown problem {problem_name!r}; valid problems: "
            + ", ".join(PROBLEM_NAMES)
        )
    base = get_problem(problem_name)

    profile = v[("kernel", "profile")]
    if profile not in PROFILE_NAMES:
        raise ValueError(
            f"unknown kernel profile {profile!r}; valid profiles: "
            + ", ".join(PROFILE_NAMES)
        )
    family = v[("flux", "family")]
    if family not in FLUX_FAMILIES:
        raise ValueError(
            f"unknown flux family {family!r}; valid families: "
            + ", ".join(FLUX_FAMILIES)
        )
    lf_lambda = v[("flux", "lf_lambda")]
    if family == "lax_friedrichs":
        if lf_lambda is None:
            raise ValueError("lax_friedrichs requires [flux] lf_lambda")
        _positive("lf_lambda", lf_lambda)
    elif lf_lambda is not None:
        raise ValueError(f"[flux] lf_lambda only applies to lax_friedrichs, not {family!r}")

    delta = _positive("[kernel] delta", v[("kernel", "delta")])
    dx = _positive("[grid] dx", v[("grid", "dx")])
    mesh_ratio = _positive("[time] mesh_ratio", v[("time", "mesh_ratio")])

    x_left = v[("problem", "x_left")]
    x_right = v[("problem", "x_right")]
    x_left = base.domain[0] if x_left is None else float(x_left)
    x_right = base.domain[1] if x_right is None else float(x_right)
    if not x_left < x_right:
        raise ValueError(f"domain must satisfy x_left < x_right, got ({x_left}, {x_right})")

    window_left = v[("problem", "window_left")]
    window_right = v[("problem", "window_right")]
    window_left = max(base.window[0], x_left) if window_left is None else float(window_left)
    window_right = min(base.window[1], x_right) if window_right is None else float(window_right)
    if not window_left < window_right:
        raise ValueError(
            f"window must satisfy window_left < window_right, got ({window_left}, {window_right})"
        )
    if window_left < x_left - 1e-12 or window_right > x_right + 1e-12:
        raise ValueError("measurement window must lie inside the domain")

    final_time = v[("problem", "T")]
    final_time = base.final_time if final_time is None else float(final_time)
    if not (math.isfinite(final_time) and final_time >= 0.0):
        raise ValueError(f"[problem] T must be nonnegative, got {final_time}")

    boundary = v[("problem", "boundary")]
    boundary = base.boundary if boundary is None else boundary
    if boundary not in BOUNDARY_MODES:
        raise ValueError(
            f"unknown boundary {boundary!r}; valid modes: " + ", ".join(BOUNDARY_MODES)
        )

    regime = v[("study", "regime")]
    if regime not in _REGIMES:
        raise ValueError(f"unknown study regime {regime!r}; valid: " + ", ".join(_REGIMES))
    levels = v[("study", "levels")]
    if levels < 2:
        raise ValueError(f"[study] levels must be at least 2, got {levels}")
    coupling = _positive("[study] coupling", v[("study", "coupling")])
    output_times = v[("study", "output_times")]
    if output_times < 2:
        raise ValueError(f"[study] output_times must be at least 2, got {output_times}")

    enforce_cfl = v[("time", "enforce_cfl")]
    cfg = RunConfig(
        profile=profile,
        delta=delta,
        flux_family=family,
        lf_lambda=lf_lambda,
        problem=problem_name,
        x_left=x_left,
        x_right=x_right,
        window_left=window_left,
        window_right=window_right,
        final_time=final_time,
        boundary=boundary,
        dx=dx,
        mesh_ratio=mesh_ratio,
        enforce_cfl=enforce_cfl,
        regime=regime,
        levels=levels,
        coupling=coupling,
        output_times=output_times,
        out_dir=v[("output", "dir")],
    )
    if enforce_cfl:
        # reject an over-large mesh ratio now, naming the computed bound
        validate_cfl(cfg.build_flux(), mesh_ratio, *base.data_box)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def config_to_text(cfg: RunConfig) -> str:
    """Canonical text form; ``parse_config_text`` round-trips it exactly."""
    sections: dict[str, dict[str, object]] = {
        "kernel": {"profile": cfg.profile, "delta": cfg.delta},
        "flux": {"family": cfg.flux_family},
        "problem": {
            "name": cfg.problem,
            "x_left": cfg.x_left,
            "x_right": cfg.x_right,
            "window_left": cfg.window_left,
            "window_right": cfg.window_right,
            "T": cfg.final_time,
            "boundary": cfg.boundary,
        },
        "grid": {"dx": cfg.dx},
        "time": {
            "mesh_ratio": cfg.mesh_ratio,
            "enforce_cfl": cfg.enforce_cfl,
        },
        "study": {
            "regime": cfg.regime,
            "levels": cfg.levels,
            "coupling": cfg.coupling,
            "output_times": cfg.output_times,
        },
        "output": {"dir": cfg.out_dir},
    }
    if cfg.lf_lambda is not None:
        sections["flux"]["lf_lambda"] = cfg.lf_lambda
    out = io.StringIO()
    for section, keys in sections.items():
        out.write(f"[{section}]\n")
        for key, value in keys.items():
            out.write(f"{key} = {_fmt(value)}\n")
        out.write("\n")
    return out.getvalue()
