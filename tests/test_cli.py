import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbrown
from qbrown import cli, equilibrium
from qbrown.cli import (_SCHEMAS, SCENARIOS, ConfigError, ScenarioConfig,
                        main, parse_config, run_scenario)
from qbrown.pde import record_times

MINIMAL = "scenario = free-high-friction\n"


# ---------------------------------------------------------------------------
# config parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scenario == "free-high-friction"
    assert cfg.params.mass == 1.0
    assert cfg.options["sigma0_sq"] == 0.0
    assert cfg.options["full"] is True
    assert cfg.options["time.points"] == 61


def test_comments_and_namespaces():
    cfg = parse_config(
        "# a comment line\n"
        "scenario = harmonic   # trailing comment\n"
        "params.omega0 = 2.5\n"
        "time.stop = 40\n")
    assert cfg.params.omega0 == 2.5
    assert cfg.options["time.stop"] == 40.0


def test_invalid_mass_reports_its_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = free-high-friction\nparams.mass = -1\n")
    assert exc.value.errors == [
        (2, "value -1.0 for key 'params.mass' must be positive")]


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = harmonic\nmu0 = 1\n\nmu0 = 2\n")
    (ln, msg), = exc.value.errors
    assert ln == 4
    assert "duplicate key 'mu0'" in msg and "line 2" in msg


def test_all_errors_collected():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = harmonic\n"
                     "bogus = 1\n"
                     "time.points = one\n"
                     "params.mass = -3\n")
    assert len(exc.value.errors) == 3
    assert sorted(ln for ln, _ in exc.value.errors) == [2, 3, 4]


def test_harmonic_omega0_default_and_zero():
    assert parse_config("scenario = harmonic\n").params.omega0 == 1.0
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = harmonic\nparams.omega0 = 0\n")
    (ln, msg), = exc.value.errors
    assert ln == 2 and "params.omega0" in msg and "positive" in msg


def test_grid_bounds_must_be_ordered():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = classical-telegraph\n"
                     "grid.x_max = -5\n"
                     "grid.x_min = 5\n")
    (ln, msg), = exc.value.errors
    assert ln == 3
    assert "grid.x_max" in msg and "line 2" in msg
    assert "grid.x_min" in msg and "line 3" in msg


def test_time_span_must_be_ordered(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = harmonic\ntime.start = 5\ntime.stop = 1\n")
    (ln, msg), = exc.value.errors
    assert ln == 3
    assert "time.stop" in msg and "line 3" in msg
    assert "time.start" in msg and "line 2" in msg
    cfg_path = tmp_path / "span.cfg"
    cfg_path.write_text("scenario = vacuum-spreading\n"
                        "time.start = 5\ntime.stop = 5\n")
    assert main(["run", str(cfg_path)]) == 2


@pytest.mark.parametrize("text, line, words", [
    ("scenario = harmonic\nseed = 3\n", 2, ("unknown key 'seed'",)),
    ("scenario = semiclassical-pde\nparams.omega0 = 1\n"
     "potential.variant = harmonic\npotential.omega0 = 2\n", 4,
     ("potential.omega0 = 2.0 (line 4)", "params.omega0 = 1.0 (line 2)",
      "disagree")),
    ("scenario = semiclassical-pde\npotential.variant = harmonic\n", 2,
     ("potential.variant = harmonic (line 2)", "requires omega0 > 0",
      "(default)")),
    ("scenario = equilibrium\npotential.variant = quartic\n", 2,
     ("potential.variant = quartic (line 2)", "requires k4 > 0",
      "(default)")),
    ("scenario = equilibrium\npotential.k4 = 0\n\n"
     "potential.variant = quartic\n", 4,
     ("potential.variant = quartic (line 4)", "requires k4 > 0",
      "(line 2)")),
    # dbeta 2 hbar^2/(m h^2) = 294 leaves the top Crank-Nicolson mode at
    # -0.99 per step
    ("scenario = equilibrium\ngrid.n = 801\neq.n_beta_steps = 17\n", 3,
     ("eq.n_beta_steps = 17 (line 3)", "grid.h = 0.02",
      "use n_beta_steps >= 186")),
    # 1/(k_B T) overflows a float: beta is refused where the entropy beta
    # nodes first read it, before the beta step
    ("scenario = equilibrium\nparams.k_B = 5e-324\nparams.hbar = 1e-300\n",
     2, ("the entropy beta nodes: beta = 1/(k_B T) is not a finite float",
         "params.k_B = 5e-324 (line 2)")),
    # non-finite values, and beta-step counts that overflow a float
    ("scenario = classical-telegraph\ngrid.x_min = nan\n", 2,
     ("'grid.x_min'", "not a valid finite float")),
    ("scenario = harmonic\ntime.stop = inf\n", 2,
     ("'time.stop'", "not a valid finite float")),
    ("scenario = semiclassical-pde\n\npde.t_final = inf\n", 3,
     ("'pde.t_final'", "not a valid finite float")),
    ("scenario = equilibrium\nparams.hbar = -inf\n", 2,
     ("'params.hbar'", "not a valid finite float")),
    ("scenario = equilibrium\nparams.temperature = 1e-300\n", 2,
     ("n_beta_steps = 512 is too coarse", "eq.n_beta_steps = 512 (default)",
      "at beta = 1e+300", "use n_beta_steps >= 6.329e+286")),
    ("scenario = equilibrium\nparams.hbar = 1e200\ngrid.n = 64\n", 3,
     ("params.hbar = 1e+200 (line 2)", "grid.n = 64 (line 3)", "overflow")),
    # the Gaussian underflows to 0 at every node of [-8, 8]
    ("scenario = quantum-zero-T-pde\nmu0 = 100\n", 2,
     ("no mass", "mu0 = 100.0 (line 2)", "sigma0_sq = 0.04 (default)",
      "grid.x_max = 8.0 (default)")),
    # free-high-friction compares its span once 0 resolves to 1e-3 t_c
    # and 1e3 t_c (t_c = 0.125)
    ("scenario = free-high-friction\ntime.stop = 1e-9\n", 2,
     ("time span [0.000125, 1e-09]", "time.start = 0.0 (default)",
      "time.stop = 1e-09 (line 2)")),
    ("scenario = free-high-friction\ntime.start = 1e9\n", 2,
     ("time span [1e+09, 125]", "time.start = 1000000000.0 (line 2)",
      "time.stop = 0.0 (default)")),
    # t_c overflows a float, or is inf: lambda_T^2 = 2.5e299 over
    # 2D = 5e-324
    ("scenario = free-high-friction\nparams.hbar = 1e200\n", 2,
     ("t_c, which is undefined", "params.hbar = 1e+200 (line 2)")),
    ("scenario = free-high-friction\nparams.k_B = 1e-300\n"
     "params.friction = 4e23\n", 3,
     ("t_c, which is undefined", "params.k_B = 1e-300 (line 2)",
      "params.friction = 4e+23 (line 3)")),
    # t_c = 1.25e307 is a float, 1e3 t_c is not
    ("scenario = dispersion-compare\nparams.hbar = 1e154\n", 2,
     ("time span [1.25e+304, inf]", "params.hbar = 1e+154 (line 2)")),
    # numpy refuses this grid before it allocates anything
    ("scenario = classical-telegraph\ngrid.n = 1000000000000000000\n", 2,
     ("initial density: Unable to allocate", "grid.n = 1.000e+18 (line 2)")),
    # the suite runs as qbrown accept
    ("scenario = acceptance\n", 1, ("unknown scenario 'acceptance'",)),
    # numpy refuses this grid before it allocates anything
    ("scenario = equilibrium\ngrid.n = 1000000000000000000\n"
     "eq.n_beta_steps = 1000000000000000000\n", 2,
     ("grid nodes: Unable to allocate", "grid.x_min = -8.0 (default)",
      "grid.n = 1.000e+18 (line 2)")),
    # time grids that cannot be built, or whose 201 or 61 times repeat
    # between adjacent floats
    pytest.param(f"scenario = harmonic\ntime.points = {10 ** 400}\n", 2,
                 ("the time grid: Maximum allowed size exceeded",
                  "time.start = 0.0 (default)", "(line 2)"),
                 id="harmonic-time.points-1e400"),
    pytest.param(f"scenario = free-high-friction\ntime.points = {10 ** 400}\n",
                 2, ("the time grid: int too large to convert to float",
                     "time.stop = 0.0 (default)", "(line 2)"),
                 id="free-high-friction-time.points-1e400"),
    ("scenario = harmonic\ntime.start = 5\ntime.stop = 5.000000000000001\n",
     3, ("the time grid: does not strictly increase",
         "time.start = 5.0 (line 2)", "time.stop = 5.000000000000001 (line 3)",
         "time.points = 201 (default)")),
    ("scenario = free-high-friction\ntime.start = 0.5\n"
     "time.stop = 0.5000000000000001\n", 3,
     ("the time grid: does not strictly increase",
      "time.start = 0.5 (line 2)",
      "time.stop = 0.5000000000000001 (line 3)",
      "time.points = 61 (default)")),
    # hbar^2 overflows where solve_harmonic forms hbar^2/(4 m^2 sigma0_sq^2)
    ("scenario = harmonic\nparams.omega0 = 1\nparams.hbar = 1e200\n", 3,
     ("quantum coefficient", "not a finite float",
      "params.hbar = 1e+200 (line 3)", "params.mass = 1.0 (default)",
      "sigma0_sq = 1.0 (default)")),
    # record times and entropy beta nodes numpy refuses to build, and a
    # beta step that is not a float; an int of more than 15 digits is
    # cited by its exponent
    *[pytest.param(f"scenario = {scen}\n{key} = {n}\n", 2,
                   (f"{what}: {why}",
                    f"{key} = 1.000e+{len(str(n)) - 1} (line 2)"),
                   id=f"{scen}-{key}-1e{len(str(n)) - 1}")
      for scen, key, what in [
          ("semiclassical-pde", "pde.n_records", "the record times"),
          ("equilibrium", "eq.entropy_nodes", "the entropy beta nodes")]
      for n, why in [(10 ** 400, "Maximum allowed size exceeded"),
                     (10 ** 21, "Maximum allowed size exceeded")]],
    pytest.param(f"scenario = equilibrium\neq.n_beta_steps = {10 ** 400}\n", 2,
                 ("the Crank-Nicolson beta step: int too large to convert to "
                  "float", "grid.n = 401 (default)",
                  "eq.n_beta_steps = 1.000e+400 (line 2)"),
                 id="equilibrium-eq.n_beta_steps-1e400"),
    # the beta-integral of hbar^2/(4 m^2 sigma0_sq^2) = 2.5e299 up to
    # beta = 1e10 overflows in the march, which held its spring at the
    # clamp and exited 0
    ("scenario = harmonic\nparams.hbar = 1e150\nparams.temperature = 1e-10\n",
     3, ("the quantum coefficient: ", "2.5e+299 integrated to beta = 1e+10",
         "not a finite float", "params.hbar = 1e+150 (line 2)",
         "params.temperature = 1e-10 (line 3)")),
    # the semiclassical effective potential reads beta = 1/(k_B T), which
    # overflows; the run exited 1 naming beta
    ("scenario = semiclassical-pde\nparams.k_B = 5e-324\n", 2,
     ("the effective potential: beta = 1/(k_B T) is not a finite float",
      "params.k_B = 5e-324 (line 2)", "params.temperature = 1.0 (default)",
      "potential.variant = free (default)", "grid.n = 401 (default)")),
    # a finite beta = 1e300 whose beta^2 U'^2 overflows in the harmonic
    # well; the run exited 1 with "float division by zero"
    ("scenario = semiclassical-pde\nparams.omega0 = 1\n"
     "potential.variant = harmonic\npotential.omega0 = 1\ngrid.n = 81\n"
     "pde.t_final = 1\nparams.k_B = 1e-300\n", 7,
     ("the effective potential: overflow", "params.k_B = 1e-300 (line 7)",
      "potential.variant = harmonic (line 3)", "grid.n = 81 (line 5)",
      "params.hbar = 1.0 (default)", "params.mass = 1.0 (default)")),
    # the boundary is the grid's, one key for every scenario on a grid
    ("scenario = classical-telegraph\npde.boundary = periodic\n", 2,
     ("unknown key 'pde.boundary'",)),
    ("scenario = equilibrium\neq.boundary = periodic\n", 2,
     ("unknown key 'eq.boundary'",)),
    ("scenario = semiclassical-pde\ngrid.n = 81\n\ngrid.boundary = open\n", 4,
     ("the grid: unknown boundary 'open'", "grid.boundary = open (line 4)",
      "grid.n = 81 (line 2)")),
])
def test_config_checks_exit_2_with_line(tmp_path, capsys, text, line, words):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    (ln, msg), = exc.value.errors
    assert ln == line
    assert all(w in msg for w in words), msg
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: line {line}:" in capsys.readouterr().err


def test_classical_telegraph_reads_no_beta():
    # the k_B that semiclassical-pde refuses for its beta
    cfg = parse_config("scenario = classical-telegraph\nparams.k_B = 5e-324\n")
    assert cfg.params.k_B == 5e-324


def test_free_effective_potential_takes_a_huge_beta(tmp_path):
    # the k_B that the harmonic well refuses: with U = 0 the effective
    # potential stays 0 at beta = 1e300, and the run completes
    cfg_path = tmp_path / "free.cfg"
    cfg_path.write_text("scenario = semiclassical-pde\ngrid.n = 81\n"
                        "pde.t_final = 1\nparams.k_B = 1e-300\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


# options that no scenario needed: the steppers pick their own step, time
# grids are linear, dispersion-compare tabulates every closed form that
# b > 0 allows, and the output directory is --out
@pytest.mark.parametrize("text", [
    "scenario = classical-telegraph\npde.dt = 1.0\n",
    "scenario = harmonic\ntime.spacing = log\n",
    "scenario = dispersion-compare\nmodels = einstein,bogus\n",
    "scenario = dispersion-compare\nsigma0 = 1\n",
    "scenario = free-zero-T\nout = results\n",
], ids=["pde.dt", "time.spacing", "models", "sigma0", "out"])
def test_deleted_keys_are_unknown(tmp_path, capsys, text):
    key = text.splitlines()[1].split(" = ")[0]
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [(2, f"unknown key '{key}' for scenario "
                                    f"'{text.split()[2]}'")]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: line 2: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("n_ent", [5, 10 ** 6])
def test_entropy_sweep_adds_no_beta_step_check(monkeypatch, n_ent):
    # the sweep's densities come from the eigen route, so only the target
    # beta's step is checked, once, whatever the number of nodes
    calls, real = [], cli.check_beta_steps
    monkeypatch.setattr(cli, "check_beta_steps",
                        lambda *args: calls.append(args) or real(*args))
    cfg = parse_config(f"scenario = equilibrium\ngrid.n = 401\n"
                       f"eq.entropy_nodes = {n_ent}\neq.n_beta_steps = 100\n")
    assert cfg.options["eq.entropy_nodes"] == n_ent
    assert len(calls) == 1


@pytest.mark.parametrize("boundary, solver", [("box", "eigh_tridiagonal"),
                                              ("periodic", "eigh")])
def test_entropy_sweep_diagonalizes_once(monkeypatch, tmp_path, boundary,
                                         solver):
    # the Hamiltonian is the same at beta and at every entropy node
    calls, real = [], getattr(equilibrium, solver)
    monkeypatch.setattr(equilibrium, solver,
                        lambda *args: calls.append(args) or real(*args))
    cfg = parse_config(f"scenario = equilibrium\ngrid.n = 101\n"
                       f"grid.boundary = {boundary}\neq.entropy_nodes = 9\n"
                       f"eq.n_beta_steps = 128\n")
    assert run_scenario(cfg, str(tmp_path)) == 0
    assert len(calls) == 1
    header = (tmp_path / "density_equilibrium.csv").read_text().split("\n")[0]
    assert header.endswith("S_Q [entropy]")


# values of each key's type, valid or not, with extremes that overflow
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 5e-324, 1e200, 0.0, -1.0, 0.5, 3.0])).map(repr)
_VALUES = {
    float: _FLOATS,
    int: st.one_of(st.integers(-4, 600),
                   st.sampled_from([10 ** 21, 10 ** 400])).map(str),
    bool: st.sampled_from(["true", "no", "maybe"]),
    str: st.sampled_from(["linear", "periodic", "box", "reflecting",
                          "free", "linear", "harmonic", "quartic", "all",
                          "bogus"]),
}


@st.composite
def _config_texts(draw):
    scen = draw(st.sampled_from(SCENARIOS))
    types = {key: typ for key, (typ, _, _) in _SCHEMAS[scen].items()}
    lines = [f"scenario = {scen}"]
    for key in draw(st.lists(st.sampled_from(sorted(types)), unique=True,
                             max_size=6)):
        lines.append(f"{key} = {draw(_VALUES[types[key]])}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=500, deadline=None)
@given(_config_texts())
def test_parse_config_is_total(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.errors
        return
    assert isinstance(cfg, ScenarioConfig)
    assert cli._scale_lines(cfg.params)
    # every start object the run builds builds, warning-free
    o = cfg.options
    if "time.points" in o:
        times = (cli._tc_times if cfg.scenario in ("free-high-friction",
                                                   "dispersion-compare")
                 else cli._linear_times)
        assert np.all(np.diff(times(cfg)) > 0)
    if "grid.n" in o:
        assert cli._grid(cfg).x.size == o["grid.n"]
        cli._potential(cfg)     # check_consistency included
    if "pde.t_final" in o:
        cli._initial_density(cfg)
        assert record_times(o["pde.t_final"], o["pde.n_records"]).size > 1
    if "eq.n_beta_steps" in o:
        assert cli._entropy_betas(cfg).size == o["eq.entropy_nodes"]
        assert cli._imaginary_time(cfg).dbeta > 0


# a cheap config of each scenario: 81 nodes or a short span, and the rows
# with a potential in the harmonic well that params.omega0 is checked against
_WELL = ("grid.x_min = -4\ngrid.x_max = 4\ngrid.n = 81\n"
         "potential.variant = harmonic\npotential.omega0 = 1\n"
         "params.omega0 = 1\n")
_PDE = _WELL + "pde.t_final = 0.1\npde.n_records = 5\n"
_CHEAP = {
    "free-zero-T": "time.stop = 1\ntime.points = 11\n",
    "free-high-friction": "time.points = 5\n",
    "vacuum-spreading": "time.stop = 1\ntime.points = 11\n",
    "harmonic": "time.stop = 1\ntime.points = 11\n",
    "classical-telegraph": _PDE,
    "quantum-zero-T-pde": _PDE,
    "semiclassical-pde": _PDE,
    "equilibrium": _WELL + "eq.n_beta_steps = 64\n",
    "dispersion-compare": "time.points = 5\n",
}


def _outputs(out, text):
    """The exit code, CSV bytes and manifest lines of a run, leaving out
    wall_time_s and the params.* echoes; None when parse_config refuses
    the config."""
    try:
        cfg = parse_config(text)
    except ConfigError:
        return None
    code = run_scenario(cfg, out_dir=str(out))
    lines = [ln for ln in (out / "manifest.txt").read_text().splitlines()
             if not ln.startswith(("wall_time_s = ", "params."))]
    return code, {f.name: f.read_bytes() for f in out.glob("*.csv")}, lines


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_params_key_is_read(tmp_path, scenario):
    # each params.* key a scenario takes, changed alone, is refused or moves
    # an output; a key its run ignores is an unknown key instead
    text = f"scenario = {scenario}\n{_CHEAP[scenario]}"
    base = _outputs(tmp_path / "base", text)
    assert base[0] == 0
    options = parse_config(text).options
    ignored = []
    for key in (k for k in _SCHEMAS[scenario] if k.startswith("params.")):
        changed = "".join(ln for ln in text.splitlines(keepends=True)
                          if not ln.startswith(f"{key} = "))
        changed += f"{key} = {options[key] * 1.37 or 0.37!r}\n"
        if _outputs(tmp_path / key, changed) == base:
            ignored.append(key)
    assert ignored == []


def test_missing_and_unknown_scenario():
    with pytest.raises(ConfigError):
        parse_config("params.mass = 1\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = quantum-coffee\n")


def test_syntax_and_range_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = harmonic\nnot a key value line\n")
    assert any("key = value" in msg for _, msg in exc.value.errors)
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = classical-telegraph\ngrid.n = 4\n")
    assert any("at least 16" in msg for _, msg in exc.value.errors)


# ---------------------------------------------------------------------------
# scenario runs (kept tiny for speed)


def _run(tmp_path, text, name="cfg"):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(text)
    out = tmp_path / f"out_{name}"
    code = main(["run", str(cfg_path), "--out", str(out)])
    return code, out


def test_vacuum_spreading_run(tmp_path):
    code, out = _run(tmp_path,
                     "scenario = vacuum-spreading\n"
                     "params.friction = 0\n"
                     "params.temperature = 0\n"
                     "time.points = 21\n")
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "matches_closed_form [PASS]" in manifest
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t [time]")


def test_dispersion_compare_deterministic(tmp_path):
    text = "scenario = dispersion-compare\ntime.points = 20\n"
    code1, out1 = _run(tmp_path, text, "a")
    code2, out2 = _run(tmp_path, text, "b")
    assert code1 == code2 == 0
    assert ((out1 / "trajectory.csv").read_bytes()
            == (out2 / "trajectory.csv").read_bytes())


def test_csv_values_round_trip(tmp_path):
    code, out = _run(tmp_path,
                     "scenario = dispersion-compare\ntime.points = 10\n")
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    n_cols = len(lines[0].split(","))
    for line in lines[1:]:
        vals = [float(tok) for tok in line.split(",")]
        assert len(vals) == n_cols
        assert all(math.isfinite(v) for v in vals)


def test_pde_scenario_writes_density(tmp_path):
    code, out = _run(tmp_path,
                     "scenario = classical-telegraph\n"
                     "grid.x_min = -12\n"
                     "grid.x_max = 12\n"
                     "grid.n = 201\n"
                     "pde.t_final = 1.0\n")
    assert code == 0
    assert (out / "density_final.csv").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "mass_conserved [PASS]" in manifest
    assert "density_final.csv" in manifest


def test_periodic_pde_scenario_conserves_mass(tmp_path):
    code, out = _run(tmp_path,
                     "scenario = semiclassical-pde\n"
                     "mu0 = 7.5\n"
                     "grid.boundary = periodic\n"
                     "pde.t_final = 1.0\n")
    assert code == 0
    assert "mass_conserved [PASS]" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("text, sigma2", [
    ("scenario = quantum-zero-T-pde\n"
     "params.temperature = 0\n"
     "grid.n = 161\n"
     "pde.t_final = 1.0\n", None),
    # the run relaxes to the semiclassical
    # sigma^2 = 1 / (2 beta (1/2 - beta^2/24)) = 12/11 at T = 1
    ("scenario = semiclassical-pde\n"
     "potential.variant = harmonic\n"
     "potential.omega0 = 1\n"
     "mu0 = 1\n", 12.0 / 11.0),
], ids=["quantum-zero-T-pde", "semiclassical-pde-harmonic"])
def test_pde_scenario_reports_its_stepper(tmp_path, text, sigma2):
    code, out = _run(tmp_path, text)
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "mass_conserved [PASS]" in manifest
    for key in ("dt_min", "dt_max", "rejected_steps", "newton_failures",
                "newton_iterations"):
        assert f"\n{key} = " in manifest
    counts = dict(line.split(" = ") for line in manifest.splitlines()
                  if line.startswith(("rejected_steps", "newton_failures")))
    assert int(counts["newton_failures"]) <= int(counts["rejected_steps"])
    if sigma2 is not None:
        final = (out / "trajectory.csv").read_text().splitlines()[-1]
        assert abs(float(final.split(",")[2]) - sigma2) <= 1e-6


def test_nan_density_is_a_numerical_failure(tmp_path):
    # the ground state sigma^2 = hbar / 2 m omega0 of this well: the
    # tapered explicit quantum telegraph step loses positivity by t = 0.5
    # at every step down to 1/8 of the first, a genuine solver failure
    code, out = _run(tmp_path,
                     "scenario = quantum-zero-T-pde\n"
                     "params.omega0 = 1\n"
                     "inertial = true\n"
                     "potential.variant = harmonic\n"
                     "potential.omega0 = 1\n"
                     "sigma0_sq = 0.5\n"
                     "grid.x_min = -6\n"
                     "grid.x_max = 6\n"
                     "grid.n = 121\n"
                     "pde.t_final = 1\n"
                     "pde.n_records = 5\n")
    assert code == 1
    assert ("cause = density fell to -1.237e-07 at step 448 (t = 0.5); it "
            "survived refinement by 3 halvings of the step, to "
            "dt = 1.116e-03" in (out / "manifest.txt").read_text())
    assert not (out / "density_final.csv").exists()


def test_quantum_telegraph_default_box_start_completes(tmp_path):
    # the first step, 2.5e-3, breaks this narrow start down at t = 0.23;
    # the run restarts from t = 0 at half the step, which holds.  The
    # leapfrog is second order: sigma^2 agrees with a run at 1/16 of the
    # first step to 4.8e-6.
    code, out = _run(tmp_path,
                     "scenario = quantum-zero-T-pde\n"
                     "inertial = true\n"
                     "grid.n = 161\n"
                     "pde.t_final = 1.0\n")
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "dt_max = 0.00125\n" in manifest
    assert "dt_min = 0.00125\n" in manifest
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    sigma2 = np.array([float(row.split(",")[2]) for row in rows])
    # one step of 2.5e-3 / 16 per record interval, 64 per interval of 1e-2
    ref = qbrown.evolve(
        qbrown.DensityField.gaussian(qbrown.Grid1D(-8.0, 8.0, 161), 0.0, 0.04),
        qbrown.PdeModel.QUANTUM_ZERO_T_TELEGRAPH, qbrown.PotentialSpec.free(),
        qbrown.PhysicalParams.natural(temperature=0.0), 1.0,
        n_records=100 * 64 + 1)
    assert ref.n_steps == 100 * 64
    assert np.max(np.abs(sigma2 - ref.sigma2[::64])) <= 2e-5


def test_equilibrium_scenario(tmp_path):
    code, out = _run(tmp_path,
                     "scenario = equilibrium\n"
                     "params.temperature = 0.5\n"
                     "params.omega0 = 1\n"
                     "potential.variant = harmonic\n"
                     "potential.omega0 = 1\n"
                     "grid.x_min = -7\n"
                     "grid.x_max = 7\n"
                     "grid.n = 129\n"
                     "eq.n_beta_steps = 128\n")
    assert code == 0
    header = (out / "density_equilibrium.csv").read_text().splitlines()[0]
    assert "rho_imaginary_time" in header and "rho_eigen" in header


def test_periodic_gaussian_wraps_across_the_seam(tmp_path):
    # mu0 = 0 sits on the ring's first node; the log of an unwrapped
    # Gaussian would jump by about 478 between the seam nodes and stall
    # the first implicit step
    code, out = _run(tmp_path,
                     "scenario = quantum-zero-T-pde\n"
                     "params.temperature = 0\n"
                     "grid.boundary = periodic\n"
                     "grid.x_min = 0\n"
                     "grid.x_max = 6.185840\n"
                     "grid.n = 121\n"
                     "pde.t_final = 2\n")
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "mass_conserved [PASS]" in manifest
    # the free spread stays mirror-symmetric about node 0 across the seam
    rho = np.loadtxt(out / "density_final.csv", delimiter=",",
                     skiprows=1)[:, 1]
    assert np.argmax(rho) == 0
    assert np.max(np.abs(rho[1:] - rho[:0:-1])) <= 1e-12 * rho[0]


def test_periodic_equilibrium_compares_ring_routes(tmp_path):
    code, out = _run(tmp_path,
                     "scenario = equilibrium\n"
                     "potential.variant = free\n"
                     "grid.x_min = 0\n"
                     "grid.x_max = 6.185840\n"
                     "grid.n = 64\n"
                     "eq.n_beta_steps = 64\n"
                     "grid.boundary = periodic\n")
    assert code == 0
    assert "route_equivalence [PASS]" in (out / "manifest.txt").read_text()


def test_numerical_failure_exit_code(tmp_path):
    # the classical telegraph density falls below zero in this well near
    # t = 2.9, a genuine solver failure
    code, out = _run(tmp_path,
                     "scenario = classical-telegraph\n"
                     "params.omega0 = 1\n"
                     "potential.variant = harmonic\n"
                     "potential.omega0 = 1\n"
                     "mu0 = 1\n"
                     "sigma0_sq = 0.3\n"
                     "grid.x_min = -6\n"
                     "grid.x_max = 6\n"
                     "grid.n = 161\n"
                     "pde.t_final = 8\n")
    assert code == 1
    manifest = (out / "manifest.txt").read_text()
    assert "status = numerical failure" in manifest
    assert "cause = density fell to -5.238e-04 at step 216 (t = 2.88)" in manifest


def test_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("scenario = harmonic\nbogus = 1\n")
    assert main(["run", str(cfg_path)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_scales_command(tmp_path, capsys):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text("scenario = dispersion-compare\n"
                        "params.friction = 4\n")
    assert main(["scales", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_T = 0.5" in out
    assert "D = 0.25" in out
    assert "tau_m = 0.25" in out


def test_scales_undefined(tmp_path, capsys):
    # T = 0 or b = 0 is a valid config whose thermal scales do not exist:
    # reported as the manifest reports it, not as a numerical failure
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text("scenario = vacuum-spreading\n"
                        "params.friction = 0\nparams.temperature = 0\n")
    assert main(["scales", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("undefined: ")
    # so is a harmonic config whose lambda_T^2 overflows a float; a wide
    # start keeps its beta-integral, about hbar^2 beta/(4 m^2 sigma0_sq^2),
    # a float
    cfg_path.write_text("scenario = harmonic\nparams.hbar = 1e150\n"
                        "params.temperature = 1e-10\nsigma0_sq = 1e10\n")
    assert main(["scales", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("undefined: ")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_defaults_run(tmp_path, scenario):
    code, out = _run(tmp_path, f"scenario = {scenario}\n")
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "status = ok" in manifest
    if scenario == "harmonic":
        assert "params.omega0 = 1.0" in manifest
    if scenario == "free-high-friction":
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.endswith(",sigma_x2_full [length^2]")
        assert "full_below_bounded [PASS]" in manifest


@pytest.mark.parametrize("n", [121, 141])
def test_zero_T_pde_runs_at_under_two_cells_per_sigma0(tmp_path, n):
    # sigma0 = 0.2 spans 1.5 cells at 121 nodes on the default [-8, 8]; the
    # Newton solves once failed at the underflowed tails down to dt ~ 1e-12
    code, out = _run(tmp_path, f"scenario = quantum-zero-T-pde\n"
                               f"params.temperature = 0\npde.t_final = 1\n"
                               f"grid.n = {n}\n")
    assert code == 0
    assert "status = ok" in (out / "manifest.txt").read_text()


def _failing_criteria(verdict_lines):
    return [int(re.match(r"criterion[ _]+(\d+)", line)[1])
            for line in verdict_lines if "[FAIL]" in line]


def test_accept_command_fails_on_the_strict_xfails(capsys):
    # criteria 1, 7 and 9 are the physics findings that fail by design
    assert main(["accept", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("criterion ") for line in lines)
    assert _failing_criteria(lines) == [1, 7, 9]


def test_harmonic_slope_through_zero_names_t(tmp_path):
    code, out = _run(tmp_path, "scenario = harmonic\ndsigma0_sq = -50\n"
                               "time.stop = 5\ntime.points = 51\n")
    assert code == 1
    manifest = (out / "manifest.txt").read_text()
    assert "status = numerical failure" in manifest
    assert ("cause = the harmonic dispersion equation's own solution "
            "sigma_x^2 crossed zero" in manifest and "at t = 0.0" in manifest)


def test_harmonic_swing_through_zero_names_the_equation(tmp_path):
    # a weakly damped swing (b/m = 1 against omega0 = 266) carries the
    # equation's own solution below zero; the integrator is not at fault
    code, out = _run(tmp_path, "scenario = harmonic\nparams.omega0 = 266\n"
                               "sigma0_sq = 3.01e-5\n")
    assert code == 1
    manifest = (out / "manifest.txt").read_text()
    assert ("own solution sigma_x^2 crossed zero (to -3.032e-05) at "
            "t = 0.0262965, beta = 0.127756, omega0 = 266, b/m = 1"
            in manifest)


def test_bounded_from_zero_keeps_the_lambert_law_early(tmp_path):
    # the first times have sigma^2 ~ 1e-9, where an absolute tolerance
    # on S alone would be a loose relative one
    code, out = _run(tmp_path, "scenario = free-high-friction\nfull = false\n"
                               "time.start = 1e-17\ntime.stop = 1\n")
    assert code == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape == (61, 3)
    gap = np.max(np.abs(rows[:, 1] - rows[:, 2]) / rows[:, 2])
    assert gap <= 1e-8


def test_bounded_march_probes_inside_its_span(tmp_path):
    # here the first-step estimate exceeds the span of ln(t / t_c), and a
    # probe beyond it overflowed exp(tau) in the bounded law's rhs
    code, out = _run(tmp_path, "scenario = free-high-friction\n"
                               "params.hbar = 2.78e-22\nparams.k_B = 16.5\n"
                               "params.mass = 2.39e-30\nsigma0_sq = 1.09e-6\n"
                               "time.points = 5\n")
    assert code == 0
    assert "status = ok" in (out / "manifest.txt").read_text()


def test_full_below_bounded_compares_the_surface_from_zero(tmp_path):
    # the full surface starts from 0 whatever sigma0_sq; against the
    # bounded law from sigma0_sq = 1.09e-6 its excess read -1.000e+00
    code, out = _run(tmp_path, "scenario = free-high-friction\n"
                               "params.hbar = 2.78e-22\nparams.k_B = 16.5\n"
                               "params.mass = 2.39e-30\nsigma0_sq = 1.09e-6\n"
                               "time.points = 5\n")
    assert code == 0
    line, = [ln for ln in (out / "manifest.txt").read_text().splitlines()
             if ln.startswith("full_below_bounded")]
    assert "[PASS]" in line
    excess = float(line.rsplit(" ", 1)[1])
    assert -1e-2 < excess < -1e-3
    _, _, lam, full = np.loadtxt(out / "trajectory.csv", delimiter=",",
                                 skiprows=1, unpack=True)
    assert excess == pytest.approx(np.max((full - lam) / lam), rel=1e-3)


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate costs about 0.3 s and 21 MiB of start-up per process
    src = str(Path(qbrown.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qbrown.cli; print('scipy.linalg' "
         "in sys.modules, 'scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("scenario, zeros", [
    ("free-zero-T", ("temperature",)),
    ("quantum-zero-T-pde", ("temperature",)),
    ("vacuum-spreading", ("temperature", "friction")),
], ids=lambda v: v if isinstance(v, str) else "zeros")
def test_zero_T_scenario_defaults_run(tmp_path, scenario, zeros):
    code, out = _run(tmp_path, f"scenario = {scenario}\n")
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    for name in zeros:
        assert f"params.{name} = 0.0" in manifest
        with pytest.raises(ConfigError) as exc:
            parse_config(f"scenario = {scenario}\nparams.{name} = 1\n")
        (ln, msg), = exc.value.errors
        assert ln == 2 and f"params.{name}" in msg and "must be 0" in msg


@pytest.mark.parametrize("scenario, name", [
    (scen, "temperature") for scen in (
        "equilibrium", "free-high-friction", "dispersion-compare", "harmonic",
        "classical-telegraph", "semiclassical-pde")] + [
    (scen, "friction") for scen in (
        "free-high-friction", "dispersion-compare", "classical-telegraph",
        "semiclassical-pde", "quantum-zero-T-pde")])
def test_scenario_needing_a_bath_exits_2_at_zero(tmp_path, capsys, scenario,
                                                 name):
    # without the check each fails in its solver, exit 1
    code, _ = _run(tmp_path, f"scenario = {scenario}\nparams.{name} = 0\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: line 2:" in err
    assert f"params.{name}" in err and "must be positive" in err


def test_run_scenario_direct(tmp_path):
    cfg = parse_config("scenario = free-zero-T\n"
                       "params.temperature = 0\n"
                       "time.points = 11\n")
    assert run_scenario(cfg, out_dir=str(tmp_path / "d")) == 0
    assert (tmp_path / "d" / "trajectory.csv").exists()
