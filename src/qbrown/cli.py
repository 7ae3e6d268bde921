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
from dataclasses import dataclass
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
             "semiclassical-pde", "equilibrium", "dispersion-compare")


class ConfigError(Exception):
    """Invalid configuration; carries the full list of (line, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {ln}: {msg}" if ln else msg
                                   for ln, msg in self.errors))


@dataclass
class ScenarioConfig:
    """One validated scenario: its physical parameters, and every key's
    value (the params.* keys among them) as options."""

    scenario: str
    params: PhysicalParams
    options: dict


# per-scenario key schema: key -> (type, default, validator or None)
_POSITIVE = ("must be positive", lambda v: v > 0)
_NONNEG = ("must be non-negative", lambda v: v >= 0)
_ZERO = ("must be 0", lambda v: v == 0)

# the PhysicalParams fields, which every scenario takes
_PARAMS = {
    "params.hbar": (float, 1.0, _POSITIVE),
    "params.k_B": (float, 1.0, _POSITIVE),
    "params.mass": (float, 1.0, _POSITIVE),
    "params.friction": (float, 1.0, _NONNEG),
    "params.temperature": (float, 1.0, _NONNEG),
    "params.omega0": (float, 0.0, _NONNEG),
    "params.force": (float, 0.0, None),
}

_TIME_KEYS = {
    "time.start": (float, 0.0, _NONNEG),
    "time.stop": (float, 10.0, _POSITIVE),
    "time.points": (int, 201, ("must be at least 2", lambda v: v >= 2)),
}
_GRID_KEYS = {
    "grid.x_min": (float, -8.0, None),
    "grid.x_max": (float, 8.0, None),
    "grid.n": (int, 401, ("must be at least 16", lambda v: v >= 16)),
}
_PDE_KEYS = {
    "pde.t_final": (float, 10.0, _POSITIVE),
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

# physical parameters a scenario defaults and constrains beyond _PARAMS:
# the thermal scenarios need T > 0, the damped ones b > 0
_WARM = {"params.temperature": (float, 1.0, _POSITIVE)}
_COLD = {"params.temperature": (float, 0.0, _ZERO)}
_DAMPED = {"params.friction": (float, 1.0, _POSITIVE)}
_SCENARIO_PARAMS = {
    "harmonic": {"params.omega0": (float, 1.0, _POSITIVE), **_WARM},
    "free-zero-T": _COLD,
    "quantum-zero-T-pde": {**_COLD, **_DAMPED},
    "vacuum-spreading": {**_COLD, "params.friction": (float, 0.0, _ZERO)},
    "equilibrium": _WARM,
    **{scen: {**_WARM, **_DAMPED}
       for scen in ("free-high-friction", "dispersion-compare",
                    "classical-telegraph", "semiclassical-pde")},
}

# the params that set the thermal scales, and the scenarios on a t_c
# time axis, which need t_c to be defined
_SCALE_KEYS = ("params.hbar", "params.k_B", "params.mass", "params.friction",
               "params.temperature")
_TC_AXIS = ("free-high-friction", "dispersion-compare")

# potential variants and the option each needs positive
_VARIANT_KEYS = {"harmonic": "potential.omega0", "quartic": "potential.k4"}

# (low, high) option pairs that must satisfy low < high; a t_c axis
# compares its time span once resolved (_time_span)
_ORDERED_KEYS = (("grid.x_min", "grid.x_max"), ("time.start", "time.stop"))

_SCENARIO_KEYS = {
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
        "time.points": (int, 60, ("must be at least 2", lambda v: v >= 2)),
    },
}
_SCHEMAS = {scen: {**_PARAMS, **_SCENARIO_PARAMS.get(scen, {}), **keys}
            for scen, keys in _SCENARIO_KEYS.items()}


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
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError
            return v
        return raw
    except ValueError:
        finite = "finite " if typ is float else ""
        errors.append((ln, f"value {raw!r} for key '{key}' is not a valid "
                           f"{finite}{typ.__name__}"))
        return None


def _cite(options, seen, keys):
    """The last line among keys, and 'key = value (line n)' for each key,
    '(default)' for a key the config leaves out."""
    return (max(seen.get(k, 0) for k in keys),
            ", ".join(f"{k} = {options[k]} "
                      f"({f'line {seen[k]}' if k in seen else 'default'})"
                      for k in keys))


def _time_span(o, p):
    """The span of a t_c time axis: time.start and time.stop where set,
    else (0 or no such key) 1e-3 t_c and 1e3 t_c."""
    t_c = derived_scales(p).t_c
    return o.get("time.start") or 1e-3 * t_c, o.get("time.stop") or 1e3 * t_c


def _times(cfg):
    """The time grid of a dispersion scenario: time.points times spaced
    geometrically over _time_span on a t_c axis, else linearly from
    time.start to time.stop."""
    o = cfg.options
    if cfg.scenario in _TC_AXIS:
        return np.geomspace(*_time_span(o, cfg.params), o["time.points"])
    return np.linspace(o["time.start"], o["time.stop"], o["time.points"])


def _cross_key_errors(scen, options, params, seen):
    """Errors of checks that span two keys or more, each citing the keys'
    lines."""
    errors = []
    for lo, hi in _ORDERED_KEYS:
        if (lo in options and scen not in _TC_AXIS
                and options[hi] <= options[lo]):
            ln, cited = _cite(options, seen, (hi, lo))
            errors.append((ln, f"{hi} must exceed {lo}: {cited}"))
    need = _VARIANT_KEYS.get(options.get("potential.variant"))
    if need is not None and options[need] <= 0:
        ln, cited = _cite(options, seen, ("potential.variant", need))
        errors.append((ln, f"potential.variant needs {need} > 0: {cited}"))
    if scen in _TC_AXIS:
        try:
            start, stop = _time_span(options, params)
            why = (f"the time span [{start:.6g}, {stop:.6g}] (time.start or "
                   f"1e-3 t_c, time.stop or 1e3 t_c) must be positive, "
                   f"finite and increasing")
        except ScalesUndefinedError:
            start = stop = math.nan
            why = "the time axis is in units of t_c, which is undefined"
        if not 0.0 < start < stop < math.inf:
            ln, cited = _cite(options, seen, [
                k for k in ("time.start", "time.stop") if k in options]
                + list(_SCALE_KEYS))
            errors.append((ln, f"{why} for {cited}"))
    return errors


def _beta_step_errors(options, params, seen):
    """An error, citing the keys' lines, when the Crank-Nicolson beta step
    at the target beta is too coarse for the grid
    (equilibrium.min_beta_steps) or its bound overflows a float."""
    keys = ("eq.n_beta_steps", "grid.x_min", "grid.x_max", "grid.n",
            "params.temperature", "params.hbar", "params.k_B", "params.mass")
    ln, cited = _cite(options, seen, keys)
    try:
        h = ((options["grid.x_max"] - options["grid.x_min"])
             / (options["grid.n"] - 1))
        need = min_beta_steps(params, h, params.beta)
    except ArithmeticError:
        return [(ln, f"the Crank-Nicolson beta step counts overflow a float "
                     f"for {cited}")]
    if options["eq.n_beta_steps"] >= need:
        return []
    return [(ln, f"{_cite(options, seen, keys[:1])[1]} is too coarse for "
                 f"grid.h = {h:.4g} at beta = {params.beta:.6g}: the "
                 f"Crank-Nicolson factor of the top grid mode turns negative "
                 f"and stays above 1e-12; use eq.n_beta_steps >= {need}")]


def _start_errors(cfg, seen):
    """Errors, citing the keys' lines, of a harmonic potential whose omega0
    disagrees with params.omega0, of a time grid that cannot be built or
    does not strictly increase, of grid nodes too large to allocate and of
    an initial PDE density with no mass on its grid."""
    options, errors = cfg.options, []
    if "potential.variant" in options:
        try:
            _potential(options).check_consistency(cfg.params)
        except ValueError:
            ln, cited = _cite(options, seen,
                              ("potential.omega0", "params.omega0"))
            errors.append((ln, f"the harmonic well and the bath disagree on "
                               f"omega0: {cited}"))
    if "time.points" in options:
        try:
            increasing = bool(np.all(np.diff(_times(cfg)) > 0))
            why = None if increasing else "does not strictly increase"
        except (ValueError, OverflowError, MemoryError) as exc:
            why = f"cannot be built: {exc}"
        if why is not None:
            ln, cited = _cite(options, seen, [
                k for k in ("time.start", "time.stop", "time.points")
                if k in options])
            errors.append((ln, f"the time grid {why} for {cited}"))
    if "grid.n" in options:
        pde = "pde.t_final" in options
        try:
            with np.errstate(all="ignore"):
                if pde:
                    _initial_density(options)
                else:
                    _grid(options).x     # allocates the nodes
        except (ValueError, MemoryError) as exc:
            keys = ("grid.x_min", "grid.x_max", "grid.n")
            ln, cited = _cite(options, seen,
                              ("mu0", "sigma0_sq") + keys if pde else keys)
            errors.append((ln, f"{'initial density' if pde else 'grid nodes'}"
                               f": {exc} for {cited}"))
    return errors


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config.

    Collects every error (unknown key, duplicate key, bad value, missing
    scenario key, out-of-range value, inconsistent keys, initial density
    with no mass) with its line number and raises one ConfigError
    carrying the full list.  Every key, params.* among them, goes through
    the scenario's schema in _SCHEMAS.
    """
    errors = []
    seen = {}        # key -> line number
    entries = {}     # key -> (line, raw string)
    for ln, line in enumerate(text.splitlines(), start=1):
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
    options = {}
    for key, (ln, raw) in entries.items():
        if key not in schema:
            errors.append((ln, f"unknown key '{key}' for scenario '{scen}'"))
            continue
        typ, _, check = schema[key]
        v = _parse_value(raw, typ, ln, key, errors)
        if v is None:
            continue
        if check is not None and not check[1](v):
            errors.append((ln, f"value {v!r} for key '{key}' {check[0]}"))
        else:
            options[key] = v
    if errors:  # keys are checked together only once each is valid alone
        raise ConfigError(sorted(errors))

    for key, (_, default, _) in schema.items():
        options.setdefault(key, default)
    params = PhysicalParams(**{key[len("params."):]: options[key]
                               for key in _PARAMS})
    cfg = ScenarioConfig(scenario=scen, params=params, options=options)
    errors = _cross_key_errors(scen, options, params, seen)
    if not errors:
        errors = _start_errors(cfg, seen)
    if not errors and scen == "equilibrium":
        errors = _beta_step_errors(options, params, seen)
    if errors:
        raise ConfigError(sorted(errors))
    return cfg


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


def _scale_lines(p: PhysicalParams) -> list:
    """The derived-scale lines of the manifest and the scales command."""
    try:
        sc = derived_scales(p)
    except ScalesUndefinedError as exc:
        return [f"undefined: {exc}"]
    return ([f"{name} = {_fmt(getattr(sc, name))}"
             for name in ("lambda_T", "D", "t_c", "tau_m")]
            + [f"quantum_overdamped = {sc.quantum_overdamped}"])


class Manifest:
    """Accumulates the run record; writable as manifest.txt."""

    def __init__(self, cfg: ScenarioConfig):
        self.lines = [f"scenario = {cfg.scenario}"]
        for key in sorted(cfg.options):
            self.lines.append(f"{key} = {cfg.options[key]}")
        self.section("derived scales")
        self.lines += _scale_lines(cfg.params)
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


def _grid(o) -> Grid1D:
    return Grid1D(o["grid.x_min"], o["grid.x_max"], o["grid.n"])


def _potential(o) -> PotentialSpec:
    """The potential.* keys; each variant reads only its own parameter."""
    return PotentialSpec(variant=o["potential.variant"], f=o["potential.f"],
                         omega0=o["potential.omega0"], k4=o["potential.k4"])


def _initial_density(o) -> DensityField:
    """The Gaussian start of the PDE scenarios; on a periodic ring each
    node takes its minimum-image distance to mu0 on the n h ring."""
    grid = _grid(o)
    d = grid.x - o["mu0"]
    if o["pde.boundary"] == "periodic":
        d -= grid.n * grid.h * np.round(d / (grid.n * grid.h))
    return DensityField(grid=grid, rho=np.exp(-d ** 2 / (2 * o["sigma0_sq"])))


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
    t = _times(cfg)
    traj = solve_inertial_zero_T(cfg.params, o["sigma0"], o["dsigma0"],
                                 o["mu0"], o["dmu0"], t)
    _write_trajectory(out, man, "inertial", traj)


def _run_free_high_friction(cfg, out, man):
    o, p = cfg.options, cfg.params
    t = _times(cfg)
    bounded = solve_overdamped_bounded(p, o["sigma0_sq"], t)
    lam = eval_closed_form(ClosedForm.LAMBERT_EXACT, t, p)
    headers = ["t [time]", "sigma_x2_bounded [length^2]",
               "sigma_x2_lambert [length^2]"]
    cols = [t, bounded.sigma_x2, lam]
    if o["full"]:
        _, full = solve_overdamped_full(p, t)
        headers.append("sigma_x2_full [length^2]")
        cols.append(full.sigma_x2)
        # the full surface starts from 0 whatever sigma0_sq, and so does
        # the Lambert law: the bounded law from 0
        excess = float(np.max((full.sigma_x2 - lam) / lam))
        man.verdict("full_below_bounded", excess <= 1e-6,
                    f"max relative excess {excess:.3e}")
    write_csv(out / "trajectory.csv", headers, cols)
    man.record_file("trajectory.csv")


def _run_vacuum_spreading(cfg, out, man):
    o = cfg.options
    t = _times(cfg)
    traj = solve_inertial_zero_T(cfg.params, o["sigma0"], 0.0, 0.0, 0.0, t)
    exact = eval_closed_form(ClosedForm.VACUUM_SPREADING, t, cfg.params,
                             sigma0=o["sigma0"])
    err = float(np.max(np.abs(traj.sigma_x2 - exact)
                       / np.maximum(exact, 1e-300)))
    man.verdict("matches_closed_form", err <= 1e-6, f"max rel err {err:.3e}")
    _write_trajectory(out, man, "vacuum", traj)


def _run_harmonic(cfg, out, man):
    o = cfg.options
    t = _times(cfg)
    _, traj = solve_harmonic(cfg.params, o["sigma0_sq"], o["dsigma0_sq"],
                             o["mu0"], o["dmu0"], t)
    _write_trajectory(out, man, "harmonic", traj)


def _run_pde(cfg, out, man):
    o, p = cfg.options, cfg.params
    U = _potential(o)
    if cfg.scenario == "classical-telegraph":
        model = PdeModel.CLASSICAL_TELEGRAPH
    elif cfg.scenario == "quantum-zero-T-pde":
        model = (PdeModel.QUANTUM_ZERO_T_TELEGRAPH if o["inertial"]
                 else PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI)
    else:
        model = (PdeModel.SEMICLASSICAL_TELEGRAPH if o["inertial"]
                 else PdeModel.SEMICLASSICAL_SMOLUCHOWSKI)
    rho0 = _initial_density(o)
    res = evolve(rho0, model, U, p, o["pde.t_final"],
                 boundary=o["pde.boundary"], n_records=o["pde.n_records"])
    write_csv(out / "trajectory.csv",
              ["t [time]", "mu [length]", "sigma_x2 [length^2]",
               "mass [1]"],
              [res.times, res.mu, res.sigma2, res.mass])
    man.record_file("trajectory.csv")
    write_csv(out / "density_final.csv",
              ["x [length]", "rho [1/length]"],
              [rho0.grid.x, res.density.rho])
    man.record_file("density_final.csv")
    man.section("solver settings")
    man.add(f"model = {model.value}")
    man.add(f"n_steps = {res.n_steps}")
    d = res.diagnostics
    man.add(f"dt_min = {_fmt(d['dt_min'])}")
    man.add(f"dt_max = {_fmt(d['dt_max'])}")
    man.add(f"rejected_steps = {d['rejected_steps']}")
    man.add(f"newton_failures = {d['newton_failures']}")
    man.add(f"newton_iterations = {d['newton_iterations']}")
    drift = float(np.max(np.abs(res.mass - res.mass[0])))
    man.verdict("mass_conserved", drift * 1000.0 / res.n_steps <= 1e-10,
                f"drift per 1e3 steps {drift * 1000.0 / res.n_steps:.3e}")


def _run_equilibrium(cfg, out, man):
    o, p = cfg.options, cfg.params
    grid = _grid(o)
    U = _potential(o)
    beta = p.beta
    it_cfg = ImaginaryTimeConfig(beta_final=beta, grid=grid,
                                 n_beta_steps=o["eq.n_beta_steps"],
                                 boundary=o["eq.boundary"])
    rho_it, z_it = imaginary_time_density(U, p, it_cfg)
    rho_e, z_e, energies = eigen_density(U, p, beta, grid,
                                         boundary=o["eq.boundary"])
    rho_sc = semiclassical_density(U, p, beta, grid)
    q = quantum_potential(rho_it, p)
    headers = ["x [length]", "rho_imaginary_time [1/length]",
               "rho_eigen [1/length]", "rho_semiclassical [1/length]",
               "Q [energy]"]
    cols = [grid.x, rho_it.rho, rho_e.rho, rho_sc.rho, q]
    n_ent = o["eq.entropy_nodes"]
    if n_ent:
        # the eigen route is exact for the same Hamiltonian at every node
        betas = np.linspace(0.0, beta, n_ent)
        fields = [DensityField.uniform(grid)] + [
            eigen_density(U, p, b, grid, boundary=o["eq.boundary"])[0]
            for b in betas[1:]]
        s_q = quantum_entropy(fields, p, betas)
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
    man.add(f"n_states_retained = {energies.size}")
    man.verdict("route_equivalence", dev <= 1e-6 and zdev <= 1e-3,
                f"|drho| {dev:.3e}, Z rel dev {zdev:.3e}")


def _run_dispersion_compare(cfg, out, man):
    t = _times(cfg)
    table = compare_models(cfg.params, t)
    headers = ["t [time]"] + [f"sigma_x2_{lbl} [length^2]"
                              for lbl in table.columns]
    write_csv(out / "trajectory.csv",
              headers, [t] + list(table.columns.values()))
    man.record_file("trajectory.csv")
    for name, ok in table.verdicts.items():
        man.verdict(name, ok)


def _accept(quick):
    """Run the acceptance suite and print each verdict line; exit code 0
    when every criterion passes."""
    results = run_all(quick=quick)
    for r in results:
        print(r.verdict_line)
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
}


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> int:
    """Execute one scenario; write outputs and the manifest; return exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest(cfg)
    t0 = time.perf_counter()
    try:
        _RUNNERS[cfg.scenario](cfg, out, man)
    except (ConvergenceError, ArithmeticError, ValueError) as exc:
        man.write(out, time.perf_counter() - t0, error=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    man.write(out, time.perf_counter() - t0)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbrown",
        description="Nonlinear quantum Brownian motion scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", default=".", help="output directory")

    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.add_argument("--quick", action="store_true",
                       help="coarser grids, same checks")

    p_sca = sub.add_parser("scales", help="print the derived scales")
    p_sca.add_argument("config", help="path to a key = value config file")

    args = parser.parse_args(argv)

    if args.command == "accept":
        return _accept(args.quick)

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
        print("\n".join(_scale_lines(cfg.params)))
        return 0

    return run_scenario(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
