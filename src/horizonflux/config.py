"""Plain-text run configuration: INI-style sections validated into a RunConfig.

A config names the kernel, the flux family, a benchmark problem, the grid
spacing, and the time-stepping parameters.  The problem runs on its own
domain, window and boundary mode; ``[problem] T`` overrides only its final
time.  Validation happens at load time: the library builds the kernel and the
flux (its errors prefixed with their config section), checks the run/check grid
and each study level in turn (:func:`harness._levels`), checks that ``[problem] T``
is a finite number of steps on the finest level, and checks the monotonicity
bound on the mesh ratio over the problem's data box, so a config that parses is
a config that runs, whatever ``[time] enforce_cfl`` says.  ``enforce_cfl =
false`` lifts only that bound, for ``run`` and ``check``; ``study`` always
enforces it and exits 1 when a level's mesh ratio breaks it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .harness import DEFAULT_OUTPUT_TIMES, _build_flux, _levels
from .kernels import Kernel
from .reference import Problem, get_problem
from .solver import _full_steps, validate_cfl

__all__ = ["RunConfig", "config_to_text", "parse_config", "parse_config_text"]

_REGIMES = ("fixed_delta", "joint_limit")

# One row per RunConfig field, in its order (also the order of the text form):
# (field, section, key, type tag, default or the REQUIRED marker).
_REQUIRED = object()
_FIELDS = (
    ("profile", "kernel", "profile", "str", "uniform"),
    ("delta", "kernel", "delta", "float", _REQUIRED),
    ("flux_family", "flux", "family", "str", _REQUIRED),
    ("lf_lambda", "flux", "lf_lambda", "float", None),
    ("problem", "problem", "name", "str", _REQUIRED),
    ("final_time", "problem", "T", "float", None),
    ("dx", "grid", "dx", "float", _REQUIRED),
    ("mesh_ratio", "time", "mesh_ratio", "float", _REQUIRED),
    ("enforce_cfl", "time", "enforce_cfl", "bool", True),
    ("regime", "study", "regime", "str", "joint_limit"),
    ("levels", "study", "levels", "int", 4),
    ("coupling", "study", "coupling", "float", 2.0),
    ("output_times", "study", "output_times", "int", DEFAULT_OUTPUT_TIMES),
    ("out_dir", "output", "dir", "str", "out"),
)
_SCHEMA = {(section, key) for _, section, key, _, _ in _FIELDS}
_SECTIONS = sorted({section for section, _ in _SCHEMA})


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration for the run/check/study commands."""

    profile: str
    delta: float
    flux_family: str
    lf_lambda: float | None
    problem: str
    final_time: float
    dx: float
    mesh_ratio: float
    enforce_cfl: bool
    regime: str
    levels: int
    coupling: float
    output_times: int
    out_dir: str

    def resolved_problem(self) -> Problem:
        """The named problem, run to the config's final time."""
        return replace(get_problem(self.problem), final_time=self.final_time)

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
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown config section [{section}]; valid sections: " + ", ".join(_SECTIONS)
            )
        for key, value in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ValueError(
                    f"unknown key {key!r} in section [{section}]; valid keys: "
                    + ", ".join(sorted(k for s, k in _SCHEMA if s == section))
                )
            raw[(section, key)] = value
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if (section, key) not in _SCHEMA:
            raise ValueError(f"unknown override {dotted!r}")
        raw[(section, key)] = value

    values: dict[str, object] = {}
    for name, section, key, kind, default in _FIELDS:
        if (section, key) in raw:
            values[name] = _convert(section, key, kind, raw[(section, key)])
        elif default is _REQUIRED:
            raise ValueError(f"missing required config key [{section}] {key}")
        else:
            values[name] = default
    return _validate(values)


def parse_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read, parse, and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), overrides)


def _positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _keyed(prefix: str, build, *args):
    """``build(*args)``, with ``prefix`` (the config section) leading its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{prefix} {exc}") from None


def _validate(v: dict[str, object]) -> RunConfig:
    base = _keyed("[problem]", get_problem, v["problem"])
    _keyed("[kernel]", Kernel, v["delta"], v["profile"])
    flux = _keyed("[flux]", _build_flux, base, v["flux_family"], v["lf_lambda"])
    for name, label in (("dx", "[grid] dx"), ("mesh_ratio", "[time] mesh_ratio")):
        _positive(label, v[name])

    if v["final_time"] is None:
        v["final_time"] = base.final_time
    if not (math.isfinite(v["final_time"]) and v["final_time"] >= 0.0):
        raise ValueError(f"[problem] T must be nonnegative, got {v['final_time']}")

    if v["regime"] not in _REGIMES:
        raise ValueError(f"unknown study regime {v['regime']!r}; valid: " + ", ".join(_REGIMES))
    if v["levels"] < 2:
        raise ValueError(f"[study] levels must be at least 2, got {v['levels']}")
    _positive("[study] coupling", v["coupling"])
    if v["output_times"] < 2:
        raise ValueError(f"[study] output_times must be at least 2, got {v['output_times']}")
    # the run/check grid, then the study's levels, each named by the keys that size it
    _keyed("[grid] dx / [kernel] delta / [study] output_times:",
           _levels, base, v["dx"], 1, lambda _: v["delta"], v["output_times"])
    fixed = v["regime"] == "fixed_delta"
    key = "[kernel] delta" if fixed else "[study] coupling"
    delta_of = (lambda _: v["delta"]) if fixed else (lambda h: v["coupling"] * h)
    study_keys = f"[grid] dx / {key} / [study] levels / [study] output_times:"
    ladder = _keyed(study_keys, _levels, base, v["dx"], v["levels"], delta_of, v["output_times"])
    # the finest level takes the most steps
    _keyed("[problem] T:", _full_steps, v["final_time"], v["mesh_ratio"] * ladder[-1][0])

    cfg = RunConfig(**v)
    if cfg.enforce_cfl:
        # reject an over-large mesh ratio now, naming the computed bound
        validate_cfl(flux, cfg.mesh_ratio, *base.data_box)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def config_to_text(cfg: RunConfig) -> str:
    """Canonical text form; ``parse_config_text`` round-trips it exactly."""
    text, current = "", None
    for name, section, key, _, _ in _FIELDS:
        value = getattr(cfg, name)
        if value is None:  # lf_lambda of a family other than lax_friedrichs
            continue
        if section != current:
            text += ("\n" if current else "") + f"[{section}]\n"
            current = section
        text += f"{key} = {_fmt(value)}\n"
    return text + "\n"
