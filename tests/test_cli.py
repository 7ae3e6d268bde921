import math

import pytest

from qbrown.cli import ConfigError, main, parse_config, run_scenario

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
    assert exc.value.errors == [(2, "mass must be positive")]


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
    ("scenario = dispersion-compare\nmodels = einstein,bogus\n", 2,
     ("'models'", "einstein,bogus", "lambert-exact")),
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
    # -0.99 per step; the entropy sweep's first node takes 25 steps
    ("scenario = equilibrium\ngrid.n = 801\neq.n_beta_steps = 17\n", 3,
     ("eq.n_beta_steps = 17 (line 3)", "grid.h = 0.02",
      "use eq.n_beta_steps >= 186")),
    ("scenario = equilibrium\ngrid.n = 401\neq.entropy_nodes = 5\n"
     "eq.n_beta_steps = 100\n", 4,
     ("eq.n_beta_steps = 100 (line 4)", "at beta = 0.25",
      "use eq.n_beta_steps >= ")),
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


def test_quantum_pde_scenario_reports_its_stepper(tmp_path):
    code, out = _run(tmp_path,
                     "scenario = quantum-zero-T-pde\n"
                     "params.temperature = 0\n"
                     "grid.n = 161\n"
                     "pde.t_final = 1.0\n")
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "mass_conserved [PASS]" in manifest
    for key in ("dt_min", "dt_max", "rejected_steps", "newton_iterations"):
        assert f"\n{key} = " in manifest


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_density_is_a_numerical_failure(tmp_path):
    # the explicit quantum telegraph step overflows to NaN here
    code, out = _run(tmp_path,
                     "scenario = quantum-zero-T-pde\n"
                     "params.temperature = 0\n"
                     "inertial = true\n"
                     "grid.n = 161\n"
                     "pde.t_final = 1.0\n")
    assert code == 1
    assert "not finite at step 200" in (out / "manifest.txt").read_text()
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


def test_numerical_failure_exit_code(tmp_path):
    # the classical telegraph scheme turns unstable in this well (density
    # falls below zero near t = 3.5), a genuine solver failure
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
    assert "scheme unstable" in manifest


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


def test_scales_undefined(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text("scenario = vacuum-spreading\n"
                        "params.friction = 0\nparams.temperature = 0\n")
    assert main(["scales", str(cfg_path)]) == 1


def test_harmonic_defaults_run(tmp_path):
    code, out = _run(tmp_path, "scenario = harmonic\ntime.points = 11\n")
    assert code == 0
    assert "params.omega0 = 1.0" in (out / "manifest.txt").read_text()


def test_run_scenario_direct(tmp_path):
    cfg = parse_config("scenario = free-zero-T\n"
                       "params.temperature = 0\n"
                       "time.points = 11\n")
    assert run_scenario(cfg, out_dir=str(tmp_path / "d")) == 0
    assert (tmp_path / "d" / "trajectory.csv").exists()
