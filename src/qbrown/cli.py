"""Command-line scenario runner and report generator.

Parses flat ``key = value`` config files, dispatches to the solver
modules and writes deterministic CSV trajectories/fields plus a run
manifest.  Exit codes: 0 success, 1 numerical failure, 2 config error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acceptance import run_all
from .dispersion import (ClosedForm, compare_models, eval_closed_form,
                         solve_harmonic, solve_inertial_zero_T,
                         solve_overdamped_bounded, solve_overdamped_full)
from .equilibrium import (ImaginaryTimeConfig, eigen_density,
                          imaginary_time_density, min_beta_steps,
                          quantum_entropy, semiclassical_density)
from .numerics import ConvergenceError
from .params import (PhysicalParams, ScalesUndefinedError, derived_scales)
from .pde import (DensityField, Grid1D, PdeModel, PotentialSpec, evolve,
                  quantum_potential)

SCENARIOS = ("free-zero-T", "free-high-friction", "vacuum-spreading",
             "harmonic", "classical-telegraph", "quantum-zero-T-pde",
             "semiclassical-pde", "equilibrium", "dispersion-compare",
             "acceptance")


class ConfigError(Exception):
    """Invalid configuration; carries the full list of (line, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {ln}: {msg}" if ln else msg
                                   for ln, msg in self.errors))


@dataclass
class ScenarioConfig:
    """One validated scenario: physical parameters plus scenario options."""

    scenario: str
    params: PhysicalParams
    options: dict
    out_dir: str = "."
    raw_lines: list = field(default_factory=list)


_PARAM_KEYS = ("hbar", "k_B", "mass", "friction", "temperature",
               "omega0", "force")

# per-scenario option schema: key -> (type, default, validator or None);
# a default of ... marks the key required
_POSITIVE = ("must be positive", lambda v: v > 0)
_NONNEG = ("must be non-negative", lambda v: v >= 0)

_TIME_KEYS = {
    "time.start": (float, 0.0, _NONNEG),
    "time.stop": (float, 10.0, _POSITIVE),
    "time.points": (int, 201, ("must be at least 2", lambda v: v >= 2)),
    "time.spacing": (str, "linear",
                     ("must be 'linear' or 'log'",
                      lambda v: v in ("linear", "log"))),
}
_GRID_KEYS = {
    "grid.x_min": (float, -8.0, None),
    "grid.x_max": (float, 8.0, None),
    "grid.n": (int, 401, ("must be at least 16", lambda v: v >= 16)),
}
_PDE_KEYS = {
    "pde.t_final": (float, 10.0, _POSITIVE),
    "pde.dt": (float, 0.0, _NONNEG),      # 0 = automatic from stability
    "pde.n_records": (int, 101, ("must be at least 2", lambda v: v >= 2)),
    "pde.boundary": (str, "reflecting",
                     ("must be 'reflecting' or 'periodic'",
                      lambda v: v in ("reflecting", "periodic"))),
}
_POTENTIAL_KEYS = {
    "potential.variant": (str, "free",
                          ("must be one of free, linear, harmonic, quartic",
                           lambda v: v in ("free", "linear", "harmonic",
                                           "quartic"))),
    "potential.f": (float, 0.0, None),
    "potential.omega0": (float, 0.0, _NONNEG),
    "potential.k4": (float, 0.0, _NONNEG),
}

# physical parameters a scenario defaults and constrains beyond PhysicalParams
_SCENARIO_PARAMS = {
    "harmonic": {"omega0": (1.0, _POSITIVE)},
}

_MODEL_NAMES = tuple(k.value for k in ClosedForm)

# potential variants and the option each needs positive
_VARIANT_KEYS = {"harmonic": "potential.omega0", "quartic": "potential.k4"}

# (low, high) option pairs that must satisfy low < high; for
# free-high-friction a time of 0 means automatic and is not compared
_ORDERED_KEYS = (("grid.x_min", "grid.x_max"), ("time.start", "time.stop"))

_SCHEMAS = {
    "free-zero-T": {
        "sigma0": (float, 1.0, _POSITIVE),
        "dsigma0": (float, 0.0, None),
        "mu0": (float, 0.0, None),
        "dmu0": (float, 0.0, None),
        **_TIME_KEYS,
    },
    "free-high-friction": {
        "sigma0_sq": (float, 0.0, _NONNEG),
        "full": (bool, True, None),
        "time.start": (float, 0.0, _NONNEG),   # 0 = 1e-3 t_c
        "time.stop": (float, 0.0, _NONNEG),    # 0 = 1e3 t_c
        "time.points": (int, 61, ("must be at least 2", lambda v: v >= 2)),
    },
    "vacuum-spreading": {
        "sigma0": (float, 1.0, _POSITIVE),
        **_TIME_KEYS,
    },
    "harmonic": {
        "sigma0_sq": (float, 1.0, _POSITIVE),
        "dsigma0_sq": (float, 0.0, None),
        "mu0": (float, 1.0, None),
        "dmu0": (float, 0.0, None),
        **_TIME_KEYS,
    },
    "classical-telegraph": {
        "sigma0_sq": (float, 0.25, _POSITIVE),
        "mu0": (float, 0.0, None),
        **_GRID_KEYS, **_PDE_KEYS, **_POTENTIAL_KEYS,
    },
    "quantum-zero-T-pde": {
        "sigma0_sq": (float, 0.04, _POSITIVE),
        "mu0": (float, 0.0, None),
        "inertial": (bool, False, None),
        **_GRID_KEYS, **_PDE_KEYS, **_POTENTIAL_KEYS,
    },
    "semiclassical-pde": {
        "sigma0_sq": (float, 0.25, _POSITIVE),
        "mu0": (float, 0.0, None),
        "inertial": (bool, False, None),
        **_GRID_KEYS, **_PDE_KEYS, **_POTENTIAL_KEYS,
    },
    "equilibrium": {
        **_GRID_KEYS, **_POTENTIAL_KEYS,
        "eq.n_beta_steps": (int, 512,
                            ("must be at least 16", lambda v: v >= 16)),
        "eq.boundary": (str, "box",
                        ("must be 'box' or 'periodic'",
                         lambda v: v in ("box", "periodic"))),
        "eq.entropy_nodes": (int, 0,
                             ("must be 0 or at least 2",
                              lambda v: v == 0 or v >= 2)),
    },
    "dispersion-compare": {
        "models": (str, "all",
                   ("must be 'all' or a comma-separated list from "
                    + ", ".join(_MODEL_NAMES),
                    lambda v: v == "all" or all(
                        n.strip() in _MODEL_NAMES for n in v.split(",")))),
        "sigma0": (float, 1.0, _POSITIVE),
        "time.points": (int, 60, ("must be at least 2", lambda v: v >= 2)),
    },
    "acceptance": {
        "quick": (bool, False, None),
    },
}


def _parse_value(raw, typ, ln, key, errors):
    try:
        if typ is bool:
            low = raw.lower()
            if low not in ("true", "false", "yes", "no", "1", "0"):
                raise ValueError
            return low in ("true", "yes", "1")
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        errors.append((ln, f"value {raw!r} for key '{key}' is not a valid "
                           f"{typ.__name__}"))
        return None


def _cross_key_errors(scen, options, seen):
    """Errors of checks that span two keys, each citing both keys' lines."""
    def where(key):
        return f"line {seen[key]}" if key in seen else "default"

    errors = []
    for lo, hi in _ORDERED_KEYS:
        if lo not in options:
            continue
        a, b = options[lo], options[hi]
        if scen == "free-high-friction" and 0.0 in (a, b):
            continue
        if b <= a:
            errors.append((max(seen.get(lo, 0), seen.get(hi, 0)),
                           f"{hi} = {b!r} ({where(hi)}) must exceed "
                           f"{lo} = {a!r} ({where(lo)})"))
    if options.get("time.spacing") == "log" and options["time.start"] <= 0:
        errors.append((max(seen.get("time.start", 0), seen["time.spacing"]),
                       f"time.spacing = log ({where('time.spacing')}) needs "
                       f"time.start > 0, got {options['time.start']!r} "
                       f"({where('time.start')})"))
    variant = options.get("potential.variant")
    need = _VARIANT_KEYS.get(variant)
    if need is not None and options[need] <= 0:
        errors.append((max(seen["potential.variant"], seen.get(need, 0)),
                       f"potential.variant = {variant} "
                       f"({where('potential.variant')}) needs {need} > 0, "
                       f"got {options[need]!r} ({where(need)})"))
    return errors


def _beta_steps(o, beta):
    """(beta', steps) of each imaginary-time propagation of an equilibrium
    run: the target beta, then the entropy sweep's nodes, if any."""
    n, n_ent = o["eq.n_beta_steps"], o["eq.entropy_nodes"]
    betas = np.linspace(0.0, beta, n_ent)[1:] if n_ent else []
    return [(beta, n)] + [(b, max(16, int(n * b / beta))) for b in betas]


def _beta_step_errors(options, params, seen):
    """An error, citing the keys' lines, when a Crank-Nicolson beta step of
    the run is too coarse for the grid (equilibrium.min_beta_steps)."""
    h = ((options["grid.x_max"] - options["grid.x_min"])
         / (options["grid.n"] - 1))
    beta = params.beta

    def too_coarse(o):
        return [b for b, steps in _beta_steps(o, beta)
                if steps < min_beta_steps(params, h, b)]

    bad = too_coarse(options)
    if not bad:
        return []
    need = max(math.ceil(min_beta_steps(params, h, b) * beta / b)
               for b in bad)
    while too_coarse({**options, "eq.n_beta_steps": need}):
        need += 1
    keys = ("eq.n_beta_steps", "eq.entropy_nodes", "grid.x_min",
            "grid.x_max", "grid.n", "params.temperature")
    where = (f"line {seen['eq.n_beta_steps']}" if "eq.n_beta_steps" in seen
             else "default")
    return [(max(seen.get(k, 0) for k in keys),
             f"eq.n_beta_steps = {options['eq.n_beta_steps']} ({where}) is "
             f"too coarse for grid.h = {h:.4g} at beta = {bad[0]:.6g}: the "
             f"Crank-Nicolson factor of the top grid mode turns negative "
             f"and stays above 1e-12; use eq.n_beta_steps >= {need}")]


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config.

    Collects every error (unknown key, duplicate key, bad value, missing
    required key, out-of-range value, inconsistent key pair) with its line
    number and raises one ConfigError carrying the full list.
    """
    errors = []
    seen = {}        # key -> line number
    entries = {}     # key -> (line, raw string)
    raw_lines = []
    for ln, line in enumerate(text.splitlines(), start=1):
        raw_lines.append(line)
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append((ln, f"expected 'key = value', got {stripped!r}"))
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            errors.append((ln, "empty key or value"))
            continue
        if key in seen:
            errors.append((ln, f"duplicate key '{key}' (first defined on "
                               f"line {seen[key]})"))
            continue
        seen[key] = ln
        entries[key] = (ln, raw)

    if "scenario" not in entries:
        errors.append((0, "missing required key 'scenario'"))
        raise ConfigError(errors)
    ln_s, scen = entries.pop("scenario")
    if scen not in SCENARIOS:
        errors.append((ln_s, f"unknown scenario {scen!r}; choose from "
                             f"{', '.join(SCENARIOS)}"))
        raise ConfigError(errors)

    schema = _SCHEMAS[scen]
    param_kwargs = {}
    options = {}
    out_dir = "."
    for key, (ln, raw) in entries.items():
        if key == "out":
            out_dir = raw
        elif key.startswith("params."):
            name = key[len("params."):]
            if name not in _PARAM_KEYS:
                errors.append((ln, f"unknown key '{key}'"))
                continue
            v = _parse_value(raw, float, ln, key, errors)
            if v is not None:
                param_kwargs[name] = v
        elif key in schema:
            typ, _, check = schema[key]
            v = _parse_value(raw, typ, ln, key, errors)
            if v is not None:
                if check is not None and not check[1](v):
                    errors.append((ln, f"value {v!r} for key '{key}' "
                                       f"{check[0]}"))
                else:
                    options[key] = v
        else:
            errors.append((ln, f"unknown key '{key}' for scenario '{scen}'"))

    for key, (typ, default, _) in schema.items():
        if key not in options:
            if default is ...:
                errors.append((0, f"missing required key '{key}'"))
            else:
                options[key] = default
    if not errors:  # pairs are compared only once each key is valid alone
        errors.extend(_cross_key_errors(scen, options, seen))

    for name, (default, (what, ok)) in _SCENARIO_PARAMS.get(scen, {}).items():
        if name not in param_kwargs:
            param_kwargs[name] = default
        elif not ok(param_kwargs[name]):
            key = f"params.{name}"
            errors.append((seen[key], f"value {param_kwargs.pop(name)!r} for "
                                      f"key '{key}' {what} for scenario "
                                      f"'{scen}'"))

    try:
        params = PhysicalParams(**param_kwargs)
    except ValueError as exc:
        bad = next((n for n in _PARAM_KEYS
                    if n in param_kwargs and f"{n} " in str(exc)), None)
        ln = seen.get(f"params.{bad}", 0) if bad else 0
        errors.append((ln, str(exc)))
        params = None

    if scen == "equilibrium" and not errors and params.temperature > 0:
        errors.extend(_beta_step_errors(options, params, seen))

    if errors:
        raise ConfigError(sorted(errors))
    return ScenarioConfig(scenario=scen, params=params, options=options,
                          out_dir=out_dir, raw_lines=raw_lines)


# ---------------------------------------------------------------------------
# Output writers


def _fmt(v) -> str:
    """Shortest round-trip decimal representation of a double."""
    return repr(float(v))


def write_csv(path: Path, headers, columns):
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].size
    lines = [",".join(headers)]
    for i in range(n):
        lines.append(",".join(_fmt(c[i]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


class Manifest:
    """Accumulates the run record; writable as manifest.txt."""

    def __init__(self, cfg: ScenarioConfig):
        self.lines = [f"scenario = {cfg.scenario}"]
        p = cfg.params
        for name in _PARAM_KEYS:
            self.lines.append(f"params.{name} = {_fmt(getattr(p, name))}")
        for key in sorted(cfg.options):
            self.lines.append(f"{key} = {cfg.options[key]}")
        try:
            sc = derived_scales(p)
            self.section("derived scales")
            for name in ("lambda_T", "D", "t_c", "tau_m"):
                self.add(f"{name} = {_fmt(getattr(sc, name))}")
            self.add(f"quantum_overdamped = {sc.quantum_overdamped}")
        except ScalesUndefinedError as exc:
            self.section("derived scales")
            self.add(f"undefined: {exc}")
        self.files = []
        self.verdicts = []

    def section(self, title):
        self.lines.append("")
        self.lines.append(f"[{title}]")

    def add(self, line):
        self.lines.append(line)

    def verdict(self, name, passed, detail=""):
        self.verdicts.append((name, passed, detail))

    def record_file(self, name):
        self.files.append(name)

    def write(self, out: Path, wall_time: float, error: str | None = None):
        if self.verdicts:
            self.section("verdicts")
            for name, passed, detail in self.verdicts:
                status = "PASS" if passed else "FAIL"
                suffix = f": {detail}" if detail else ""
                self.add(f"{name} [{status}]{suffix}")
        if self.files:
            self.section("output files")
            for f in self.files:
                self.add(f)
        self.section("run")
        if error is not None:
            self.add(f"status = numerical failure")
            self.add(f"cause = {error}")
        else:
            self.add("status = ok")
        self.add(f"wall_time_s = {wall_time:.3f}")
        (out / "manifest.txt").write_text("\n".join(self.lines) + "\n")


# ---------------------------------------------------------------------------
# Scenario runners


def _time_grid(o):
    start, stop = o["time.start"], o["time.stop"]
    if o["time.spacing"] == "log":
        return np.geomspace(start, stop, o["time.points"])
    return np.linspace(start, stop, o["time.points"])


def _potential(o) -> PotentialSpec:
    v = o["potential.variant"]
    if v == "free":
        return PotentialSpec.free()
    if v == "linear":
        return PotentialSpec.linear(o["potential.f"])
    if v == "harmonic":
        return PotentialSpec.harmonic(o["potential.omega0"])
    return PotentialSpec.quartic(o["potential.k4"])


def _write_trajectory(out, man, label, traj):
    headers = ["t [time]", f"sigma_x2_{label} [length^2]",
               f"sigma_p2_{label} [momentum^2]"]
    cols = [traj.times, traj.sigma_x2, traj.sigma_p2]
    if traj.mu is not None:
        headers.append(f"mu_{label} [length]")
        cols.append(traj.mu)
    write_csv(out / "trajectory.csv", headers, cols)
    man.record_file("trajectory.csv")


def _run_free_zero_T(cfg, out, man):
    o = cfg.options
    t = _time_grid(o)
    traj = solve_inertial_zero_T(cfg.params, o["sigma0"], o["dsigma0"],
                                 o["mu0"], o["dmu0"], t)
    _write_trajectory(out, man, "inertial", traj)
    return 0


def _run_free_high_friction(cfg, out, man):
    o, p = cfg.options, cfg.params
    sc = derived_scales(p)
    start = o["time.start"] or 1e-3 * sc.t_c
    stop = o["time.stop"] or 1e3 * sc.t_c
    t = np.geomspace(start, stop, o["time.points"])
    bounded = solve_overdamped_bounded(p, o["sigma0_sq"], t)
    lam = eval_closed_form(ClosedForm.LAMBERT_EXACT, t, p)
    headers = ["t [time]", "sigma_x2_bounded [length^2]",
               "sigma_x2_lambert [length^2]"]
    cols = [t, bounded.sigma_x2, lam]
    if o["full"]:
        _, full = solve_overdamped_full(p, t)
        headers.append("sigma_x2_full [length^2]")
        cols.append(full.sigma_x2)
        excess = float(np.max((full.sigma_x2 - bounded.sigma_x2)
                              / bounded.sigma_x2))
        man.verdict("full_below_bounded", excess <= 1e-6,
                    f"max relative excess {excess:.3e}")
    write_csv(out / "trajectory.csv", headers, cols)
    man.record_file("trajectory.csv")
    return 0


def _run_vacuum_spreading(cfg, out, man):
    o = cfg.options
    t = _time_grid(o)
    traj = solve_inertial_zero_T(cfg.params, o["sigma0"], 0.0, 0.0, 0.0, t)
    exact = eval_closed_form(ClosedForm.VACUUM_SPREADING, t, cfg.params,
                             sigma0=o["sigma0"])
    err = float(np.max(np.abs(traj.sigma_x2 - exact)
                       / np.maximum(exact, 1e-300)))
    man.verdict("matches_closed_form", err <= 1e-6, f"max rel err {err:.3e}")
    _write_trajectory(out, man, "vacuum", traj)
    return 0


def _run_harmonic(cfg, out, man):
    o = cfg.options
    t = _time_grid(o)
    traj = solve_harmonic(cfg.params, o["sigma0_sq"], o["dsigma0_sq"],
                          o["mu0"], o["dmu0"], t)
    _write_trajectory(out, man, "harmonic", traj)
    return 0


def _run_pde(cfg, out, man):
    o, p = cfg.options, cfg.params
    grid = Grid1D(o["grid.x_min"], o["grid.x_max"], o["grid.n"])
    U = _potential(o)
    if cfg.scenario == "classical-telegraph":
        model = PdeModel.CLASSICAL_TELEGRAPH
    elif cfg.scenario == "quantum-zero-T-pde":
        model = (PdeModel.QUANTUM_ZERO_T_TELEGRAPH if o["inertial"]
                 else PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI)
    else:
        model = (PdeModel.SEMICLASSICAL_TELEGRAPH if o["inertial"]
                 else PdeModel.SEMICLASSICAL_SMOLUCHOWSKI)
    rho0 = DensityField.gaussian(grid, o["mu0"], o["sigma0_sq"])
    res = evolve(rho0, model, U, p, o["pde.t_final"],
                 dt=o["pde.dt"] or None, boundary=o["pde.boundary"],
                 n_records=o["pde.n_records"])
    write_csv(out / "trajectory.csv",
              ["t [time]", "mu [length]", "sigma_x2 [length^2]",
               "mass [1]"],
              [res.times, res.mu, res.sigma2, res.mass])
    man.record_file("trajectory.csv")
    write_csv(out / "density_final.csv",
              ["x [length]", "rho [1/length]"],
              [grid.x, res.density.rho])
    man.record_file("density_final.csv")
    man.section("solver settings")
    man.add(f"model = {model.value}")
    man.add(f"dt = {_fmt(res.dt)}")
    man.add(f"n_steps = {res.n_steps}")
    d = res.diagnostics
    man.add(f"dt_min = {_fmt(d['dt_min'])}")
    man.add(f"dt_max = {_fmt(d['dt_max'])}")
    man.add(f"rejected_steps = {d['rejected_steps']}")
    man.add(f"newton_iterations = {d['newton_iterations']}")
    drift = float(np.max(np.abs(res.mass - res.mass[0])))
    man.verdict("mass_conserved", drift * 1000.0 / res.n_steps <= 1e-10,
                f"drift per 1e3 steps {drift * 1000.0 / res.n_steps:.3e}")
    return 0


def _run_equilibrium(cfg, out, man):
    o, p = cfg.options, cfg.params
    grid = Grid1D(o["grid.x_min"], o["grid.x_max"], o["grid.n"])
    U = _potential(o)
    beta = p.beta
    it_cfg = ImaginaryTimeConfig(beta_final=beta, grid=grid,
                                 n_beta_steps=o["eq.n_beta_steps"],
                                 boundary=o["eq.boundary"])
    rho_it, z_it = imaginary_time_density(U, p, it_cfg)
    rho_e, z_e, spec = eigen_density(U, p, beta, grid)
    rho_sc = semiclassical_density(U, p, beta, grid)
    q = quantum_potential(rho_it, p)
    headers = ["x [length]", "rho_imaginary_time [1/length]",
               "rho_eigen [1/length]", "rho_semiclassical [1/length]",
               "Q [energy]"]
    cols = [grid.x, rho_it.rho, rho_e.rho, rho_sc.rho, q]
    n_ent = o["eq.entropy_nodes"]
    if n_ent:
        betas = np.linspace(0.0, beta, n_ent)
        fields = [DensityField.uniform(grid)]
        for b, steps in _beta_steps(o, beta)[1:]:
            pb = PhysicalParams(hbar=p.hbar, k_B=p.k_B, mass=p.mass,
                                friction=p.friction,
                                temperature=1.0 / (p.k_B * b),
                                omega0=p.omega0, force=p.force)
            f, _ = imaginary_time_density(U, pb, ImaginaryTimeConfig(
                beta_final=b, grid=grid, n_beta_steps=steps,
                boundary=o["eq.boundary"]))
            fields.append(f)
        s_q = quantum_entropy(fields, p, beta, beta_nodes=betas)
        headers.append("S_Q [entropy]")
        cols.append(s_q)
    write_csv(out / "density_equilibrium.csv", headers, cols)
    man.record_file("density_equilibrium.csv")
    man.section("route comparison")
    dev = float(np.max(np.abs(rho_it.rho - rho_e.rho)))
    zdev = abs(z_it - z_e) / z_e
    man.add(f"max |rho_it - rho_eigen| = {dev:.6e}")
    man.add(f"Z_imaginary_time = {_fmt(z_it)}")
    man.add(f"Z_eigen = {_fmt(z_e)}")
    man.add(f"n_states_retained = {spec.n_states}")
    man.verdict("route_equivalence", dev <= 1e-6 and zdev <= 1e-3,
                f"|drho| {dev:.3e}, Z rel dev {zdev:.3e}")
    return 0


_COMPARE_ALL = (ClosedForm.EINSTEIN, ClosedForm.PURE_QUANTUM,
                ClosedForm.SUPERPOSITION, ClosedForm.LAMBERT_EXACT,
                ClosedForm.COTH_INTERPOLATION, ClosedForm.SEMICLASSICAL_LOG,
                ClosedForm.ELEMENTARY_LOG_APPROX)


def _run_dispersion_compare(cfg, out, man):
    o, p = cfg.options, cfg.params
    sc = derived_scales(p)
    t = np.geomspace(1e-3 * sc.t_c, 1e3 * sc.t_c, o["time.points"])
    if o["models"] == "all":
        models = list(_COMPARE_ALL)
    else:
        models = [ClosedForm(name.strip()) for name in o["models"].split(",")]
    table = compare_models(p, t, models, sigma0=o["sigma0"])
    headers = ["t [time]"] + [f"sigma_x2_{lbl} [length^2]"
                              for lbl in table.columns]
    write_csv(out / "trajectory.csv",
              headers, [t] + list(table.columns.values()))
    man.record_file("trajectory.csv")
    for lbl, msg in table.errors.items():
        man.add(f"model {lbl} skipped: {msg}")
    for name, ok in table.verdicts.items():
        man.verdict(name, ok)
    return 0


def _run_acceptance(cfg, out, man):
    results = run_all(quick=cfg.options["quick"])
    for r in results:
        print(r.verdict_line)
        man.verdict(f"criterion_{r.number}_{r.name}", r.passed, r.details)
    return 0 if all(r.passed for r in results) else 1


_RUNNERS = {
    "free-zero-T": _run_free_zero_T,
    "free-high-friction": _run_free_high_friction,
    "vacuum-spreading": _run_vacuum_spreading,
    "harmonic": _run_harmonic,
    "classical-telegraph": _run_pde,
    "quantum-zero-T-pde": _run_pde,
    "semiclassical-pde": _run_pde,
    "equilibrium": _run_equilibrium,
    "dispersion-compare": _run_dispersion_compare,
    "acceptance": _run_acceptance,
}


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> int:
    """Execute one scenario; write outputs and the manifest; return exit code."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest(cfg)
    t0 = time.time()
    try:
        code = _RUNNERS[cfg.scenario](cfg, out, man)
    except (ConvergenceError, ScalesUndefinedError, ArithmeticError,
            ValueError, FloatingPointError) as exc:
        man.write(out, time.time() - t0, error=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    man.write(out, time.time() - t0)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbrown",
        description="Nonlinear quantum Brownian motion scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", default=None, help="output directory")

    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.add_argument("--quick", action="store_true",
                       help="coarser grids, same checks")
    p_acc.add_argument("--jobs", type=int, default=1)

    p_sca = sub.add_parser("scales", help="print the derived scales")
    p_sca.add_argument("config", help="path to a key = value config file")

    args = parser.parse_args(argv)

    if args.command == "accept":
        results = run_all(quick=args.quick, jobs=args.jobs)
        for r in results:
            print(r.verdict_line)
        return 0 if all(r.passed for r in results) else 1

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for ln, msg in exc.errors:
            where = f"line {ln}: " if ln else ""
            print(f"config error: {where}{msg}", file=sys.stderr)
        return 2

    if args.command == "scales":
        p = cfg.params
        try:
            sc = derived_scales(p)
        except ScalesUndefinedError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 1
        for name in ("lambda_T", "D", "t_c", "tau_m"):
            print(f"{name} = {_fmt(getattr(sc, name))}")
        print(f"quantum_overdamped = {sc.quantum_overdamped}")
        return 0

    return run_scenario(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
