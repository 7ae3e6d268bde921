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
from qbrown import cli
from qbrown.cli import (_SCHEMAS, SCENARIOS, ConfigError, ScenarioConfig,
                        main, parse_config, run_scenario)

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
     ("potential.variant = harmonic (line 2)", "potential.omega0 > 0",
      "(default)")),
    ("scenario = equilibrium\npotential.variant = quartic\n", 2,
     ("potential.variant = quartic (line 2)", "potential.k4 > 0",
      "(default)")),
    ("scenario = equilibrium\npotential.k4 = 0\n\n"
     "potential.variant = quartic\n", 4,
     ("potential.variant = quartic (line 4)", "potential.k4 > 0",
      "(line 2)")),
    # dbeta 2 hbar^2/(m h^2) = 294 leaves the top Crank-Nicolson mode at
    # -0.99 per step
    ("scenario = equilibrium\ngrid.n = 801\neq.n_beta_steps = 17\n", 3,
     ("eq.n_beta_steps = 17 (line 3)", "grid.h = 0.02",
      "use eq.n_beta_steps >= 186")),
    # beta overflows to inf and hbar^2 underflows to 0: the bound is nan
    ("scenario = equilibrium\nparams.k_B = 5e-324\nparams.hbar = 1e-300\n",
     3, ("params.k_B = 5e-324 (line 2)", "params.hbar = 1e-300 (line 3)",
         "grid.n = 401 (default)", "overflow")),
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
     ("eq.n_beta_steps = 512 (default) is too coarse", "at beta = 1e+300",
      "use eq.n_beta_steps >= 6329")),
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
     ("initial density: Unable to allocate",
      "grid.n = 1000000000000000000 (line 2)")),
    # the suite runs as qbrown accept
    ("scenario = acceptance\n", 1, ("unknown scenario 'acceptance'",)),
    # numpy refuses this grid before it allocates anything
    ("scenario = equilibrium\ngrid.n = 1000000000000000000\n"
     "eq.n_beta_steps = 1000000000000000000\n", 2,
     ("grid nodes: Unable to allocate", "grid.x_min = -8.0 (default)",
      "grid.n = 1000000000000000000 (line 2)")),
    # time grids that cannot be built, or whose 201 or 61 times repeat
    # between adjacent floats
    pytest.param(f"scenario = harmonic\ntime.points = {10 ** 400}\n", 2,
                 ("the time grid cannot be built",
                  "time.start = 0.0 (default)", "(line 2)"),
                 id="harmonic-time.points-1e400"),
    pytest.param(f"scenario = free-high-friction\ntime.points = {10 ** 400}\n",
                 2, ("the time grid cannot be built",
                     "time.stop = 0.0 (default)", "(line 2)"),
                 id="free-high-friction-time.points-1e400"),
    ("scenario = harmonic\ntime.start = 5\ntime.stop = 5.000000000000001\n",
     3, ("the time grid does not strictly increase",
         "time.start = 5.0 (line 2)", "time.stop = 5.000000000000001 (line 3)",
         "time.points = 201 (default)")),
    ("scenario = free-high-friction\ntime.start = 0.5\n"
     "time.stop = 0.5000000000000001\n", 3,
     ("the time grid does not strictly increase", "time.start = 0.5 (line 2)",
      "time.stop = 0.5000000000000001 (line 3)",
      "time.points = 61 (default)")),
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
    calls, real = [], cli.min_beta_steps
    monkeypatch.setattr(cli, "min_beta_steps",
                        lambda *args: calls.append(args) or real(*args))
    cfg = parse_config(f"scenario = equilibrium\ngrid.n = 401\n"
                       f"eq.entropy_nodes = {n_ent}\neq.n_beta_steps = 100\n")
    assert cfg.options["eq.entropy_nodes"] == n_ent
    assert len(calls) == 1


# values of each key's type, valid or not, with extremes that overflow
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 5e-324, 1e200, 0.0, -1.0, 0.5, 3.0])).map(repr)
_VALUES = {
    float: _FLOATS,
    int: st.one_of(st.integers(-4, 600), st.just(10 ** 400)).map(str),
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
    if "time.points" in cfg.options:
        assert np.all(np.diff(cli._times(cfg)) > 0)


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
                     "pde.boundary = periodic\n"
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_density_is_a_numerical_failure(tmp_path):
    # the explicit quantum telegraph step breaks down here and overflows
    # to NaN by t = 0.5; the first record after the breakdown aborts
    code, out = _run(tmp_path,
                     "scenario = quantum-zero-T-pde\n"
                     "params.temperature = 0\n"
                     "inertial = true\n"
                     "grid.n = 161\n"
                     "pde.t_final = 1.0\n")
    assert code == 1
    assert ("cause = density fell to -3.237e-08 at step 92 (t = 0.23)"
            in (out / "manifest.txt").read_text())
    assert not (out / "density_final.csv").exists()


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
                     "pde.boundary = periodic\n"
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
                     "eq.boundary = periodic\n")
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
    assert "cause = density fell to -5.267e-04 at step 684 (t = 2.88)" in manifest


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
    # so is a harmonic config whose lambda_T^2 overflows a float
    cfg_path.write_text("scenario = harmonic\nparams.hbar = 1e200\n")
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
    assert "cause = sigma_x^2 reached" in manifest and "at t = 0.0" in manifest


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
