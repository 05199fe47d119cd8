"""Plain-text run configuration: INI-style sections validated into a RunConfig.

A config names the kernel, the flux family, a benchmark problem, the grid
spacing, and the time-stepping parameters.  The problem runs on its own
domain, window and boundary mode; ``[problem] T`` overrides only its final
time.  Validation happens at load time: the library builds the kernel and the
flux (its errors prefixed with their config section), checks the run/check grid
and each study level in turn (:func:`harness._levels`), checks that ``[problem] T``
is a finite number of steps on the finest level, and checks the monotonicity
bound of :func:`solver.validate_cfl` on the mesh ratio over the problem's data
box, on the run/check grid and on the study's first level, so a config that
parses is a config that runs, whatever ``[time] enforce_cfl`` says.
``enforce_cfl = false`` lifts only that bound, for ``run`` and ``check``;
``study`` always enforces it and exits 1 when a level's mesh ratio breaks it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .harness import DEFAULT_OUTPUT_TIMES, _build_flux, _levels
from .kernels import Kernel, _integer, _positive, compute_weights
from .reference import Problem, get_problem
from .solver import _full_steps, validate_cfl

__all__ = ["RunConfig", "config_to_text", "parse_config", "parse_config_text"]

_REGIMES = ("fixed_delta", "joint_limit")


def _key(section: str, key: str, default=MISSING):
    """A RunConfig field read from ``[section] key``, a required key without a default."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """A fully validated configuration for the run/check/study commands.  Each field
    names its config key, its annotation is the key's type, and their order is that
    of the text form; a missing ``[problem] T`` is the problem's final time."""

    profile: str = _key("kernel", "profile", "uniform")
    delta: float = _key("kernel", "delta")
    flux_family: str = _key("flux", "family")
    lf_lambda: float | None = _key("flux", "lf_lambda", None)
    problem: str = _key("problem", "name")
    final_time: float = _key("problem", "T", None)
    dx: float = _key("grid", "dx")
    mesh_ratio: float = _key("time", "mesh_ratio")
    enforce_cfl: bool = _key("time", "enforce_cfl", True)
    regime: str = _key("study", "regime", "joint_limit")
    levels: int = _key("study", "levels", 4)
    coupling: float = _key("study", "coupling", 2.0)
    output_times: int = _key("study", "output_times", DEFAULT_OUTPUT_TIMES)
    out_dir: str = _key("output", "dir", "out")

    def resolved_problem(self) -> Problem:
        """The named problem, run to the config's final time."""
        return replace(get_problem(self.problem), final_time=self.final_time)


# (field, section, key, type tag, default or MISSING) per RunConfig field, in its order;
# the tag is the annotation's text before any " | None" (annotations are strings here)
_FIELDS = tuple(
    (f.name, f.metadata["section"], f.metadata["key"], f.type.partition(" ")[0], f.default)
    for f in fields(RunConfig)
)
_SCHEMA = {(section, key) for _, section, key, _, _ in _FIELDS}
_SECTIONS = sorted({section for section, _ in _SCHEMA})


def _convert(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return raw
    except (KeyError, ValueError):
        expected = "an integer" if kind == "int" else f"a {kind}"
        raise ValueError(f"config key [{section}] {key} expects {expected}, got {raw!r}") from None


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
        elif default is MISSING:
            raise ValueError(f"missing required config key [{section}] {key}")
        else:
            values[name] = default
    return _validate(values)


def parse_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Read, parse, and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), overrides)


def _keyed(prefix: str, build, *args):
    """``build(*args)``, with ``prefix`` (the config section or key) leading its
    ValueError, whose type (``CflViolationError`` too) it keeps."""
    try:
        return build(*args)
    except ValueError as exc:
        raise type(exc)(f"{prefix} {exc}") from None


def _validate(v: dict[str, object]) -> RunConfig:
    base = _keyed("[problem]", get_problem, v["problem"])
    _keyed("[kernel]", Kernel, v["delta"], v["profile"])
    flux = _keyed("[flux]", _build_flux, base, v["flux_family"], v["lf_lambda"])
    for name, label in (("dx", "[grid] dx"), ("mesh_ratio", "[time] mesh_ratio")):
        _positive(v[name], label)

    if v["final_time"] is None:
        v["final_time"] = base.final_time
    if not (math.isfinite(v["final_time"]) and v["final_time"] >= 0.0):
        raise ValueError(f"[problem] T must be nonnegative and finite, got {v['final_time']}")

    if v["regime"] not in _REGIMES:
        raise ValueError(f"unknown study regime {v['regime']!r}; valid: " + ", ".join(_REGIMES))
    _integer(v["levels"], "[study] levels", 2)
    _positive(v["coupling"], "[study] coupling")
    _integer(v["output_times"], "[study] output_times", 2)
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
        # reject an over-large mesh ratio now, naming the computed bound, on the run/check
        # grid and on study level 0.  Later levels need no check: dx sum_k W_k cannot grow
        # as dx halves at fixed delta, and stays the same at fixed delta / dx.
        box = base.data_box
        key = "[flux] lf_lambda:" if flux.step_speed(*box) == math.inf else "[time] mesh_ratio:"
        for delta in dict.fromkeys((cfg.delta, delta_of(cfg.dx))):
            weights = compute_weights(Kernel(delta, cfg.profile), cfg.dx)
            _keyed(key, validate_cfl, flux, weights, cfg.mesh_ratio, *box)
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
