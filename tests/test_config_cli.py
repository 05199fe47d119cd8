import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horizonflux import CflViolationError, GridState, compute_weights, Kernel
from horizonflux import cli, harness
from horizonflux.cli import main
from horizonflux.config import config_to_text, parse_config, parse_config_text
from horizonflux.outputs import write_solution_csv
from loop_oracles import reference_solution_csv
from testutil import fix_memory

MINIMAL = """
[kernel]
delta = 0.05

[flux]
family = godunov

[problem]
name = burgers_shock

[grid]
dx = 0.03125

[time]
mesh_ratio = 0.9
"""


# -- parsing ------------------------------------------------------------------


def test_minimal_config_gets_defaults():
    cfg = parse_config_text(MINIMAL)
    problem = cfg.resolved_problem()
    assert cfg.profile == "uniform"
    assert problem.boundary == "constant_extension"
    assert problem.domain == (-2.0, 3.0)
    assert problem.window == (-0.5, 1.5)
    assert cfg.final_time == problem.final_time == 0.5
    assert cfg.out_dir == "out"


def test_unknown_keys_and_sections_rejected():
    for section, key in (("[grid]", "cells"), ("[time]", "cfl_safety")):
        with pytest.raises(ValueError, match=f"'{key}' in section .* valid keys"):
            parse_config_text(MINIMAL.replace(section, f"{section}\n{key} = 4"))
    with pytest.raises(ValueError, match="valid sections"):
        parse_config_text(MINIMAL + "\n[mesh]\ndx = 1\n")


def test_missing_required_key_rejected():
    with pytest.raises(ValueError, match=r"\[grid\] dx"):
        parse_config_text(MINIMAL.replace("[grid]\ndx = 0.03125\n", ""))


def test_unknown_flux_lists_valid_keys():
    with pytest.raises(ValueError, match="engquist_osher, godunov"):
        parse_config_text(MINIMAL.replace("family = godunov", "family = roe"))


def test_bad_values_rejected():
    with pytest.raises(ValueError, match="positive"):
        parse_config_text(MINIMAL.replace("delta = 0.05", "delta = -1"))
    with pytest.raises(ValueError, match="expects a float"):
        parse_config_text(MINIMAL.replace("dx = 0.03125", "dx = tiny"))
    with pytest.raises(ValueError, match="malformed config"):
        parse_config_text("[kernel\ndelta = 0.05\n")


PROBLEM = "name = burgers_shock"
TIME = "mesh_ratio = 0.9"
RELAXED = MINIMAL.replace(TIME, TIME + "\nenforce_cfl = false")
# a config runs its named problem: no key redefines the problem's geometry
REMOVED_KEYS = ("x_left", "x_right", "window_left", "window_right", "boundary")
# tiles [0, 1] at level 0 within 1e-9, but not once halved: the defect doubles
OFF_AT_LEVEL_1 = """
[kernel]
delta = 0.66666666646

[flux]
family = upwind_linear

[problem]
name = advect_bump

[grid]
dx = 0.33333333323333335

[time]
mesh_ratio = 0.9

[study]
regime = joint_limit
levels = 3
"""


# level 0 is small, but level m of 40 has 2**m times its cells; with 2**40 bytes of
# memory the 9 snapshots of level 26 are the first arrays that do not fit
FORTY_LEVELS = (
    MINIMAL.replace("delta = 0.05", "delta = 0.1").replace("dx = 0.03125", "dx = 0.015625")
    + "\n[study]\nregime = fixed_delta\nlevels = 40\n")
LEVEL_26_OF_40 = (r"\[grid\] dx / {} / \[study\] levels / \[study\] output_times: level 26: "
                  r"9 output times x n = 21474836480 cells: 1\.546e\+12 bytes, more than the "
                  r"1\.1e\+12 of physical memory$")
# dx0 = 1 / (1 + 2**-30) tiles [0, 1] at level 0 within 1e-9 and exactly at level 30, where
# the defect has doubled past half a cell and wrapped around, but at no level between
WRAPPING = (
    MINIMAL.replace("delta = 0.05", "delta = 0.5").replace("godunov", "upwind_linear")
    .replace("burgers_shock", "advect_bump").replace("dx = 0.03125", f"dx = {1 / (1 + 2**-30)!r}")
    + "\n[study]\nlevels = 31\n")
RUN_KEYS = r"\[grid\] dx / \[kernel\] delta / \[study\] output_times: level 0: "


@pytest.mark.parametrize("old, new, message", [
    *[(PROBLEM, PROBLEM + f"\n{key} = 0",
       rf"unknown key '{key}' in section \[problem\]; valid keys: T, name$")
      for key in REMOVED_KEYS],
    ("dx = 0.03125", "dx = 0.3", RUN_KEYS + r"dx=0.3 does not tile the domain \[-2.0, 3.0\]$"),
    (MINIMAL, OFF_AT_LEVEL_1,
     r"\[grid\] dx / \[study\] coupling / \[study\] levels / \[study\] output_times: level 1: "
     r"dx=0.16666666661666668 does not tile the domain \[0.0, 1.0\]$"),
    (MINIMAL, WRAPPING,
     r"\[grid\] dx / \[study\] coupling / \[study\] levels / \[study\] output_times: level 1: "
     r"dx=0.4999999995343387 does not tile the domain \[0.0, 1.0\]$"),
    (TIME, TIME + "\n\n[study]\noutput_times = 1000000000000",
     RUN_KEYS + r"1000000000000 output times x n = 160 cells: 1\.28e\+15 bytes, more than the "
     r"1\.1e\+12 of physical memory$"),
    # the finest level's dt = 0.9 * dx / 2**3 takes the most steps
    (PROBLEM, PROBLEM + "\nT = 1e308",
     r"\[problem\] T: final_time / dt = 1e\+308 / 0.003515625 is not a finite step count$"),
    # finite, but about 2.8e302 steps of the finest level: more than 2**53
    (PROBLEM, PROBLEM + "\nT = 1e300",
     r"\[problem\] T: final_time / dt = 1e\+300 / 0.003515625 = 2\.844e\+302 steps, "
     r"more than 2\*\*53$"),
    ("family = godunov", "family = lax_friedrichs\nlf_lambda = -1",
     r"\[flux\] lf_lambda must be positive and finite"),
    # the flux is built at load whether or not the CFL bound is enforced
    (MINIMAL, RELAXED.replace("family = godunov", "family = upwind_linear"),
     r"\[flux\] upwind_linear requires the linear_advection local flux"),
    (TIME, TIME + "\nenforce_cfl = maybe",
     r"^config key \[time\] enforce_cfl expects a bool, got 'maybe'$"),
    (PROBLEM, PROBLEM + "\nT = -1", r"\[problem\] T must be nonnegative, got -1.0"),
    (TIME, TIME + "\n\n[study]\nlevels = 1", r"\[study\] levels must be at least 2, got 1"),
    (TIME, TIME + "\n\n[study]\noutput_times = 1",
     r"\[study\] output_times must be at least 2, got 1"),
    ("family = godunov", "family = lax_friedrichs",
     r"\[flux\] lf_lambda must be positive and finite, got None"),
    ("family = godunov", "family = godunov\nlf_lambda = 0.5",
     r"\[flux\] lf_lambda only applies to lax_friedrichs, not 'godunov'"),
    ("dx = 0.03125", "dx = 0", r"\[grid\] dx must be positive and finite, got 0.0"),
    ("delta = 0.05", "delta = -1", r"\[kernel\] horizon delta must be positive and finite"),
    ("delta = 0.05", "delta = 0.05\nprofile = cosine",
     r"\[kernel\] unknown kernel profile 'cosine'; valid profiles"),
    (PROBLEM, "name = kdv", r"\[problem\] unknown problem 'kdv'; valid problems"),
    (MINIMAL, FORTY_LEVELS, LEVEL_26_OF_40.format(r"\[kernel\] delta")),
    (MINIMAL, FORTY_LEVELS.replace("fixed_delta", "joint_limit"),
     LEVEL_26_OF_40.format(r"\[study\] coupling")),
], ids=[*(f"removed_key_{key}" for key in REMOVED_KEYS), "dx_off_the_tiling",
        "dx_off_the_tiling_at_the_finest_level", "dx_wrapping_around_between_levels",
        "output_times_past_memory", "T_past_the_float_range_of_steps", "T_past_2_53_steps",
        "negative_lf_lambda",
        "upwind_linear_on_burgers_without_cfl", "enforce_cfl_not_a_bool", "negative_T",
        "one_level", "one_output_time", "lax_friedrichs_without_lf_lambda",
        "lf_lambda_on_godunov", "zero_dx", "negative_delta", "unknown_profile",
        "unknown_problem", "fixed_delta_finest_of_40_levels_past_memory",
        "joint_limit_finest_of_40_levels_past_memory"])
def test_bad_values_name_their_key(monkeypatch, old, new, message):
    fix_memory(monkeypatch)
    with pytest.raises(ValueError, match=message):
        parse_config_text(MINIMAL.replace(old, new))


@pytest.mark.parametrize("spelling, value", [
    ("true", True), ("yes", True), ("on", True), ("1", True),
    ("false", False), ("no", False), ("off", False), ("0", False),
])
def test_every_bool_spelling_parses_alike_in_either_case(spelling, value):
    for raw in (spelling, spelling.upper()):
        text = MINIMAL.replace(TIME, f"{TIME}\nenforce_cfl = {raw}")
        assert parse_config_text(text).enforce_cfl is value, raw


def test_cfl_inconsistent_mesh_ratio_rejected_at_load():
    # rarefaction data box [-1, 1]: step_speed = 1, and r = 1 gives dx sum_k W_k = 1, so
    # the bound is dt/dx <= 1: 0.9 runs and 1.1 does not
    text = MINIMAL.replace("name = burgers_shock", "name = burgers_rarefaction")
    assert parse_config_text(text).mesh_ratio == 0.9
    text = text.replace("mesh_ratio = 0.9", "mesh_ratio = 1.1")
    with pytest.raises(CflViolationError, match=r"^\[time\] mesh_ratio: mesh ratio 1.1 violates "
                       r".* on data box \[-1, 1\]: .* require dt/dx <= 1$"):
        parse_config_text(text)
    relaxed = text.replace("mesh_ratio = 1.1", "mesh_ratio = 1.1\nenforce_cfl = false")
    assert parse_config_text(relaxed).enforce_cfl is False
    lax = text.replace("family = godunov", "family = lax_friedrichs\nlf_lambda = 2.0")
    with pytest.raises(CflViolationError, match=r"^\[flux\] lf_lambda: lax_friedrichs parameter "
                       r"2 is not monotone on data box \[-1, 1\]"):
        parse_config_text(lax.replace("mesh_ratio = 1.1", "mesh_ratio = 0.1"))


def test_cfl_checked_on_the_first_study_level():
    # the run grid has r = 16 (delta = 0.5, bound 4.73); the study's level 0 has
    # delta = 1.5 dx, r = 1 and bound 1, and no later level has a smaller bound
    text = (MINIMAL.replace("delta = 0.05", "delta = 0.5")
            .replace("mesh_ratio = 0.9", "mesh_ratio = 1.1") + "\n[study]\ncoupling = 1.5\n")
    with pytest.raises(CflViolationError, match=r"^\[time\] mesh_ratio: mesh ratio 1.1 violates "
                       r".*: dx\*sum_k W_k=1, step_speed=1, require dt/dx <= 1$"):
        parse_config_text(text)
    assert parse_config_text(text.replace("coupling = 1.5", "coupling = 2.5")).coupling == 2.5
    fixed = text.replace("coupling = 1.5", "regime = fixed_delta")
    assert parse_config_text(fixed).mesh_ratio == 1.1


def test_overrides_apply_before_validation():
    cfg = parse_config_text(MINIMAL, {"grid.dx": "0.0625", "kernel.delta": "0.125"})
    assert cfg.dx == 0.0625
    assert cfg.delta == 0.125
    with pytest.raises(ValueError, match="override"):
        parse_config_text(MINIMAL, {"grid.spacing": "1"})


def test_config_round_trips_through_text():
    cfg = parse_config_text(MINIMAL, {"flux.family": "lax_friedrichs",
                                      "flux.lf_lambda": "0.7", "time.mesh_ratio": "0.4"})
    assert parse_config_text(config_to_text(cfg)) == cfg


# -- writers ------------------------------------------------------------------


def test_solution_csv_shape(tmp_path):
    path = tmp_path / "solution.csv"
    write_solution_csv([], path)
    assert path.read_text() == "t,x_center,u\n"
    state = GridState(dx=1.0, x0=0.0, values=np.array([0.0, 1.0, 0.0]))
    after = GridState(dx=1.0, x0=0.0, values=np.array([0.0, 0.75, 0.25]), time=0.5)
    write_solution_csv([state, after], path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 6  # header + 2 snapshots x 3 cells
    assert lines[1] == "0,0.5,0"


def test_solution_csv_bytes_equal_the_per_value_writer(tmp_path):
    """Signed zeros, infinities, NaN, subnormals and 1e+-300 print as format_float does."""
    rng = np.random.default_rng(3)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320,
                        2.2250738585072009e-308, 1e300, -1e300, 1e-300, -1e-300, 0.1, 1 / 3])
    trajectory = [
        GridState(dx=1e-300, x0=-1e-298, values=special, time=-0.0),
        GridState(dx=1e298, x0=-1e300, values=special[::-1].copy(), time=1e-300),
        GridState(dx=0.1, x0=-2.0, values=rng.standard_normal(40), time=0.1 + 0.2),
        GridState(dx=5 / 2560, x0=-2.0, values=rng.uniform(-1, 1, 2560), time=0.5),
    ]
    path = tmp_path / "solution.csv"
    write_solution_csv(trajectory, path)
    assert path.read_bytes() == reference_solution_csv(trajectory).encode("utf-8")
    assert "nan" in path.read_text() and "-0," in path.read_text()


def test_weights_csv(tmp_path):
    from horizonflux.outputs import write_weights_csv

    weights = compute_weights(Kernel(2.0, "uniform"), 1.0)
    write_weights_csv(weights, tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_text() == "k,W_k\n1,0.5\n2,0.25\n"


# -- CLI ----------------------------------------------------------------------


def write_config(tmp_path, text=MINIMAL, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_weights_prints_table(tmp_path, capsys):
    code = main(["weights", "--delta", "2.0", "--dx", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1,0.5,0.5" in out
    assert "defect" in out


def test_cli_run_writes_solution(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "res")])
    assert code == 0
    csv = (tmp_path / "res" / "solution.csv").read_text()
    assert csv.startswith("t,x_center,u\n")
    assert len(csv.strip().split("\n")) == 1 + 9 * 160  # snapshots x cells


def test_cli_check_passes_on_compliant_run(tmp_path):
    cfg = write_config(tmp_path)
    code = main(["check", "--config", cfg, "--out", str(tmp_path / "chk")])
    assert code == 0
    payload = json.loads((tmp_path / "chk" / "invariants.json").read_text())
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"max_principle", "tvd", "cell_entropy"} <= names


def test_cli_check_fails_on_cfl_violation(tmp_path):
    text = MINIMAL.replace("mesh_ratio = 0.9", "mesh_ratio = 2.2\nenforce_cfl = false")
    cfg = write_config(tmp_path, text)
    code = main(["check", "--config", cfg, "--out", str(tmp_path / "chk")])
    assert code == 2
    payload = json.loads((tmp_path / "chk" / "invariants.json").read_text())
    assert payload["passed"] is False


def test_enforce_cfl_false_applies_to_run_and_check_only(tmp_path, capsys):
    text = """
[kernel]
delta = 0.125

[flux]
family = upwind_linear

[problem]
name = advect_bump
T = 0.25

[grid]
dx = 0.0625

[time]
mesh_ratio = 1.5
enforce_cfl = false

[study]
levels = 2
"""
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "o")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert main(["check", "--config", cfg, "--out", out]) == 2
    capsys.readouterr()
    assert main(["study", "--config", cfg, "--out", out]) == 1
    assert "mesh ratio 1.5 violates" in capsys.readouterr().err
    assert not (tmp_path / "o" / "study.json").exists()


def test_cli_study_writes_tables(tmp_path):
    text = MINIMAL + "\n[study]\nregime = joint_limit\nlevels = 2\ncoupling = 2.0\n"
    cfg = write_config(tmp_path, text)
    code = main(["study", "--config", cfg, "--out", str(tmp_path / "st")])
    assert code == 0
    table = (tmp_path / "st" / "study.csv").read_text().strip().split("\n")
    assert table[0] == "level,dx,delta,dt,n_cells,measure,eoc"
    assert len(table) == 3
    report = json.loads((tmp_path / "st" / "study.json").read_text())
    assert report["passed"] is True
    plot = (tmp_path / "st" / "study_plot.dat").read_text().strip().split("\n")
    assert len(plot) == 3


def test_cli_usage_error_exits_1(tmp_path):
    # the subprocess runs in tmp_path, so it needs an absolute path to src/
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "horizonflux", "frobnicate"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("usage: horizonflux")
    assert "invalid choice: 'frobnicate'" in result.stderr
    missing = subprocess.run(
        [sys.executable, "-m", "horizonflux", "run", "--config", "nope.cfg"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert missing.returncode == 1
    assert "error" in missing.stderr.lower()
    assert "nope.cfg" in missing.stderr
    cfg = write_config(tmp_path, MINIMAL + "\n[study]\nlevels = 2\n")
    unbounded = write_config(tmp_path, MINIMAL.replace(PROBLEM, PROBLEM + "\nx_right = inf"),
                             name="unbounded.cfg")
    bad = subprocess.run(
        [sys.executable, "-m", "horizonflux", "check", "--config", unbounded],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert bad.returncode == 1
    assert "unknown key 'x_right' in section [problem]" in bad.stderr
    assert "Traceback" not in bad.stderr
    for workers in ("0", "-2"):
        bad = subprocess.run(
            [sys.executable, "-m", "horizonflux", "study", "--config", cfg, "--workers", workers],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert bad.returncode == 1
        assert "--workers" in bad.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, argv", [
    ("--delta", ["--delta", "abc", "--dx", "0.05"]),
    ("--dx", ["--delta", "0.2", "--dx", "abc"]),
])
def test_weights_names_a_flag_that_is_not_a_number(flag, argv, capsys):
    assert main(["weights", *argv]) == 1
    assert f"{flag} expects a float, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--delta", "-1"], "--delta -1 / --profile uniform: horizon delta must be positive "
     "and finite, got -1.0"),
    (["--delta", "nan"], "--delta nan / --profile uniform: horizon delta must be positive "
     "and finite, got nan"),
    (["--delta", "0.1", "--profile", "foo"], "--delta 0.1 / --profile foo: unknown kernel "
     "profile 'foo'; valid profiles: quadratic, triangular, uniform"),
], ids=["negative-delta", "nan-delta", "unknown-profile"])
def test_weights_names_the_flag_behind_a_bad_kernel(argv, message, capsys):
    assert main(["weights", *argv, "--dx", "0.05"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flag", [
    ("run", ["--levels", "2"]),
    ("check", ["--levels", "2"]),
    ("weights", ["--config", "x.cfg"]),
    ("weights", ["--flux", "godunov"]),
    ("weights", ["--T", "1"]),
    ("weights", ["--levels", "2"]),
], ids=["run-levels", "check-levels", "weights-config", "weights-flux", "weights-T",
        "weights-levels"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path)
    base = ["--delta", "0.1", "--dx", "0.05"] if command == "weights" else ["--config", cfg]
    with pytest.raises(SystemExit) as exited:
        main([command, *base, *flag, "--out", str(tmp_path / "o")])
    assert exited.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_weights_requires_delta(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["weights", "--dx", "1.0"])
    assert exited.value.code == 1
    assert "the following arguments are required: --delta" in capsys.readouterr().err


# Sizes are compared with physical memory before anything is allocated, so no test
# here asks for the memory.  dx = 2**-50 tiles the shock's domain [-2, 3] into
# 5 * 2**50 cells; delta = 1 puts 2**50 cells in the horizon, delta = dx one.
@pytest.mark.parametrize("delta, what", [
    ("1", "r = floor(1.1259e+15) needs r + 1 edges: 9.007e+15 bytes"),
    (repr(2.0**-50), "n = 5629499534213120 cells with 2R = 2 ghosts: 4.504e+16 bytes"),
], ids=["edges", "cells"])
def test_check_names_delta_and_dx_for_sizes_past_physical_memory(tmp_path, delta, what, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(MINIMAL.replace("delta = 0.05", f"delta = {delta}")
                   .replace("dx = 0.03125", f"dx = {2.0**-50!r}"))
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [grid] dx / [kernel] delta / [study] output_times: "
                          f"level 0: {what}"), err
    assert "of physical memory" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_weights_names_its_flags_for_edges_past_physical_memory(capsys):
    assert main(["weights", "--delta", "1", "--dx", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --delta 1 / --dx 1e-300: r = floor(delta / dx) = "
                          "floor(1e+300) needs r + 1 edges: 8e+300 bytes"), err


def test_check_names_delta_and_dx_for_cells_past_the_address_space_limit(
        tmp_path, monkeypatch, capsys):
    # 5 * 2**20 cells need 42 MB per array: past a 16 MB soft limit, whatever the machine
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**24, resource.RLIM_INFINITY))
    cfg = tmp_path / "limited.cfg"
    cfg.write_text(MINIMAL.replace("dx = 0.03125", f"dx = {2.0**-20!r}"))
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [grid] dx / [kernel] delta / [study] output_times: "
                          "level 0: n = 5242880 cells with 2R = 104856 ghosts: 4.278e+07 "
                          "bytes, more than the 1.678e+07 of the address-space limit"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, old, new, error", [
    ("study", MINIMAL, WRAPPING, "[grid] dx / [study] coupling / [study] levels / "
     "[study] output_times: level 1: dx=0.4999999995343387 does not tile the domain"),
    ("run", TIME, TIME + "\n\n[study]\noutput_times = 1000000000000",
     "[grid] dx / [kernel] delta / [study] output_times: level 0: 1000000000000 output times"),
    ("run", PROBLEM, PROBLEM + "\nT = 1e308", "[problem] T: final_time / dt = 1e+308 / "),
    ("check", PROBLEM, PROBLEM + "\nT = 1e308", "[problem] T: final_time / dt = 1e+308 / "),
], ids=["study_dx_wrapping_around", "run_output_times_past_memory", "run_T_past_steps",
        "check_T_past_steps"])
def test_a_level_past_the_ladder_exits_1_naming_its_key(tmp_path, monkeypatch, capsys,
                                                         command, old, new, error):
    fix_memory(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL.replace(old, new))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def _never_run(*args):
    raise AssertionError("a level ran")


@pytest.mark.parametrize("command", ["run", "check", "study"])
def test_a_finite_T_past_2_53_steps_exits_1_before_any_run(tmp_path, monkeypatch, command,
                                                            capsys):
    monkeypatch.setattr(harness, "_run_level", _never_run)
    monkeypatch.setattr(cli, "_run_level", _never_run)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL.replace(PROBLEM, PROBLEM + "\nT = 1e300"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [problem] T: final_time / dt = 1e+300 / ") and err.endswith(
        " steps, more than 2**53\n"), err
    assert not (tmp_path / "o").exists()


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 3.73 GiB")


@pytest.mark.parametrize("command", ["run", "check", "study"])
def test_a_run_out_of_memory_exits_1_naming_the_size_keys(tmp_path, monkeypatch, command,
                                                          capsys):
    monkeypatch.setattr(harness, "_run_level", _out_of_memory)
    monkeypatch.setattr(cli, "_run_level", _out_of_memory)
    assert main([command, "--config", write_config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: out of memory (Unable to allocate 3.73 GiB); lower the sizes set by "
                   "[grid] dx / [kernel] delta / [study] levels / [study] output_times\n")


def test_weights_out_of_memory_exits_1_naming_its_flags(monkeypatch, capsys):
    monkeypatch.setattr(cli, "compute_weights", _out_of_memory)
    assert main(["weights", "--delta", "0.1", "--dx", "0.01"]) == 1
    assert capsys.readouterr().err == ("error: out of memory (Unable to allocate 3.73 GiB); "
                                       "lower the sizes set by --delta / --dx\n")


def test_cli_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--dx", "0.0625", "--T", "0.25",
                 "--out", str(tmp_path / "o2")])
    assert code == 0
    rows = (tmp_path / "o2" / "solution.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 9 * 80


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "res"
    first = {}
    for attempt in range(2):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        payload = {
            name: (out / name).read_bytes()
            for name in ("solution.csv", "invariants.json")
        }
        if attempt == 0:
            first = payload
        else:
            assert payload == first
