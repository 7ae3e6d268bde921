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
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np

from .acceptance import run_all
from .dispersion import (ClosedForm, compare_models, eval_closed_form,
                         quantum_coefficient, solve_harmonic,
                         solve_inertial_zero_T, solve_overdamped_bounded,
                         solve_overdamped_full)
from .equilibrium import (ImaginaryTimeConfig, check_beta_steps,
                          eigen_density, imaginary_time_density,
                          quantum_entropy, semiclassical_density)
from .numerics import ConvergenceError
from .params import (PhysicalParams, ScalesUndefinedError, derived_scales)
from .pde import (DensityField, Grid1D, PdeModel, PotentialSpec,
                  effective_potential, evolve, quantum_potential, record_times)


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

# the PhysicalParams fields every scenario reads (derived scales read b)
_PARAMS = {
    "params.hbar": (float, 1.0, _POSITIVE),
    "params.mass": (float, 1.0, _POSITIVE),
    "params.friction": (float, 1.0, _NONNEG),
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
    "grid.boundary": (str, "box", None),    # Grid1D refuses another
}
_PDE_KEYS = {
    "pde.t_final": (float, 10.0, _POSITIVE),
    "pde.n_records": (int, 101, ("must be at least 2", lambda v: v >= 2)),
}
_POTENTIAL_KEYS = {
    "potential.variant": (str, "free",
                          ("must be one of free, linear, harmonic, quartic",
                           lambda v: v in ("free", "linear", "harmonic",
                                           "quartic"))),
    "potential.f": (float, 0.0, None),
    "potential.omega0": (float, 0.0, _NONNEG),
    "potential.k4": (float, 0.0, _NONNEG),
    "params.omega0": (float, 0.0, _NONNEG),  # a harmonic variant's, if > 0
}

# params a scenario reads beyond _PARAMS, with its bounds: the thermal
# ones need T > 0 and read k_B (k_B T = 0 at T = 0), the damped b > 0
_WARM = {"params.temperature": (float, 1.0, _POSITIVE),
         "params.k_B": (float, 1.0, _POSITIVE)}
_COLD = {"params.temperature": (float, 0.0, _ZERO)}
_DAMPED = {"params.friction": (float, 1.0, _POSITIVE)}


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
    '(default)' for a key the config leaves out; an int of more than 15
    digits shows as its exponent."""
    def shown(v):
        return f"{Decimal(v):.3e}" if isinstance(v, int) and v >= 1e15 else v
    return (max(seen.get(k, 0) for k in keys),
            ", ".join(f"{k} = {shown(options[k])} "
                      f"({f'line {seen[k]}' if k in seen else 'default'})"
                      for k in keys))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config.

    Collects every error (unknown key, duplicate key, bad value, missing
    scenario key, out-of-range value) with its line number and raises one
    ConfigError carrying the full list.  Every key goes through the
    scenario's schema in _SCHEMAS, which takes the params.* keys its run
    reads.  Then the scenario's checks build what its run builds, stage by
    stage; a stage runs only when the stages before it refused nothing,
    and each refusal cites the keys of the refused build.
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
    params = PhysicalParams(**{k[len("params."):]: v for k, v in
                               options.items() if k.startswith("params.")})
    cfg = ScenarioConfig(scenario=scen, params=params, options=options)
    # an overflow or invalid value refuses a build; an underflow does not
    with np.errstate(all="raise", under="ignore"):
        for stage in (1, 2, 3):
            for at, what, keys, build in _TABLE[scen].checks:
                if at != stage:
                    continue
                try:
                    build(cfg)
                except (ArithmeticError, ValueError, MemoryError) as exc:
                    ln, cited = _cite(options, seen,
                                      [k for k in keys if k in options])
                    errors.append((ln, f"{what}: {exc} for {cited}"))
            if errors:
                raise ConfigError(sorted(errors))
    return cfg


# ---------------------------------------------------------------------------
# Output writers


def _fmt(v) -> str:
    """Shortest round-trip decimal representation of a double."""
    return repr(float(v))


def write_csv(path: Path, headers, columns):
    # a Python float's repr is _fmt's, so the rows need no numpy scalars
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    lines = [",".join(headers)]
    lines += [",".join(map(repr, row)) for row in rows.tolist()]
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


def _grid(cfg) -> Grid1D:
    o = cfg.options
    return Grid1D(o["grid.x_min"], o["grid.x_max"], o["grid.n"],
                  o["grid.boundary"])


def _potential(cfg) -> PotentialSpec:
    """The potential.* keys, checked against params.omega0; each variant
    reads only its own parameter."""
    o = cfg.options
    U = PotentialSpec(variant=o["potential.variant"], f=o["potential.f"],
                      omega0=o["potential.omega0"], k4=o["potential.k4"])
    U.check_consistency(cfg.params)
    return U


def _initial_density(cfg) -> DensityField:
    """The Gaussian start of the PDE scenarios, by minimum image on a
    ring (DensityField.gaussian)."""
    o = cfg.options
    return DensityField.gaussian(_grid(cfg), o["mu0"], o["sigma0_sq"])


def _increasing(t):
    if not np.all(np.diff(t) > 0):
        raise ValueError("does not strictly increase")
    return t


def _linear_times(cfg):
    """time.points times spaced linearly from time.start to time.stop."""
    o = cfg.options
    return _increasing(np.linspace(o["time.start"], o["time.stop"],
                                   o["time.points"]))


def _tc_times(cfg):
    """time.points times spaced geometrically on a t_c axis, from
    time.start to time.stop where set, else (0 or no such key) from
    1e-3 t_c to 1e3 t_c."""
    o = cfg.options
    try:
        t_c = derived_scales(cfg.params).t_c
    except ScalesUndefinedError:
        raise ValueError("the time axis is in units of t_c, which is "
                         "undefined") from None
    start = o.get("time.start") or 1e-3 * t_c
    stop = o.get("time.stop") or 1e3 * t_c
    if not 0.0 < start < stop < math.inf:
        raise ValueError(f"the time span [{start:.6g}, {stop:.6g}] "
                         f"(time.start or 1e-3 t_c, time.stop or 1e3 t_c) "
                         f"must be positive, finite and increasing")
    return _increasing(np.geomspace(start, stop, o["time.points"]))


def _imaginary_time(cfg) -> ImaginaryTimeConfig:
    """The propagation of the equilibrium run, refused when its beta step
    is too coarse for the grid (equilibrium.check_beta_steps)."""
    p, grid = cfg.params, _grid(cfg)
    it = ImaginaryTimeConfig(beta_final=p.beta, grid=grid,
                             n_beta_steps=cfg.options["eq.n_beta_steps"])
    check_beta_steps(p, it)
    return it


def _entropy_betas(cfg):
    """The eq.entropy_nodes betas of the entropy sweep, from 0 to beta."""
    return np.linspace(0.0, cfg.params.beta, cfg.options["eq.entropy_nodes"])


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
    t = _linear_times(cfg)
    traj = solve_inertial_zero_T(cfg.params, o["sigma0"], o["dsigma0"],
                                 o["mu0"], o["dmu0"], t)
    _write_trajectory(out, man, "inertial", traj)


def _run_free_high_friction(cfg, out, man):
    o, p = cfg.options, cfg.params
    t = _tc_times(cfg)
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
    t = _linear_times(cfg)
    traj = solve_inertial_zero_T(cfg.params, o["sigma0"], 0.0, 0.0, 0.0, t)
    exact = eval_closed_form(ClosedForm.VACUUM_SPREADING, t, cfg.params,
                             sigma0=o["sigma0"])
    err = float(np.max(np.abs(traj.sigma_x2 - exact)
                       / np.maximum(exact, 1e-300)))
    man.verdict("matches_closed_form", err <= 1e-6, f"max rel err {err:.3e}")
    _write_trajectory(out, man, "vacuum", traj)


def _run_harmonic(cfg, out, man):
    o = cfg.options
    t = _linear_times(cfg)
    _, traj = solve_harmonic(cfg.params, o["sigma0_sq"], o["dsigma0_sq"],
                             o["mu0"], o["dmu0"], t)
    _write_trajectory(out, man, "harmonic", traj)


def _run_pde(first_order, inertial, cfg, out, man):
    """Evolve the first-order model, or the inertial one where the
    scenario's inertial key is true."""
    o, p = cfg.options, cfg.params
    model = inertial if o.get("inertial") else first_order
    rho0 = _initial_density(cfg)
    res = evolve(rho0, model, _potential(cfg), p, o["pde.t_final"],
                 n_records=o["pde.n_records"])
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
    it_cfg = _imaginary_time(cfg)
    grid, U, beta = it_cfg.grid, _potential(cfg), p.beta
    rho_it, z_it = imaginary_time_density(U, p, it_cfg)
    # the eigen route is exact for the same Hamiltonian at every entropy
    # node, so one spectrum serves beta and the nodes after beta' = 0
    betas = _entropy_betas(cfg) if o["eq.entropy_nodes"] else [0.0]
    (rho_e, z_e, energies), *sweep = eigen_density(
        U, p, [beta, *betas[1:]], grid)
    rho_sc = semiclassical_density(U, p, beta, grid)
    q = quantum_potential(rho_it, p)
    headers = ["x [length]", "rho_imaginary_time [1/length]",
               "rho_eigen [1/length]", "rho_semiclassical [1/length]",
               "Q [energy]"]
    cols = [grid.x, rho_it.rho, rho_e.rho, rho_sc.rho, q]
    if sweep:
        fields = [DensityField.uniform(grid)] + [f for f, _, _ in sweep]
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
    t = _tc_times(cfg)
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


# ---------------------------------------------------------------------------
# The scenario table

# A check builds from its keys what the run builds and refuses the config
# with that object's own refusal, citing the keys.  Stage 2 builds on the
# grid of stage 1, and stage 3 on the grid nodes of stage 2.
_Check = namedtuple("_Check", "stage what keys build")
_GRID = tuple(_GRID_KEYS)
_GRID_CHECK = _Check(1, "the grid", _GRID, _grid)
_POTENTIAL_CHECK = _Check(1, "the potential", tuple(_POTENTIAL_KEYS),
                          _potential)
_LINEAR_TIMES = _Check(1, "the time grid", tuple(_TIME_KEYS), _linear_times)
# a t_c axis also reads the params that set t_c
_TC_TIMES = _Check(1, "the time grid", (
    *_TIME_KEYS, "params.hbar", "params.k_B", "params.mass",
    "params.friction", "params.temperature"), _tc_times)
_PDE_CHECKS = (
    _GRID_CHECK, _POTENTIAL_CHECK,
    _Check(1, "the record times", ("pde.t_final", "pde.n_records"),
           lambda cfg: record_times(cfg.options["pde.t_final"],
                                    cfg.options["pde.n_records"])),
    _Check(2, "initial density", ("mu0", "sigma0_sq", *_GRID),
           _initial_density))
# the semiclassical run builds U + beta hbar^2 [3 U'' - beta U'^2] / 24m
_SEMICLASSICAL_PDE_CHECKS = (*_PDE_CHECKS, _Check(
    2, "the effective potential", (
        *_POTENTIAL_KEYS, *_GRID, "params.k_B", "params.temperature",
        "params.hbar", "params.mass"),
    lambda cfg: effective_potential(_potential(cfg), cfg.params.beta,
                                    cfg.params, _grid(cfg))))
_EQUILIBRIUM_CHECKS = (
    _GRID_CHECK, _POTENTIAL_CHECK,
    _Check(1, "the entropy beta nodes",
           ("eq.entropy_nodes", "params.k_B", "params.temperature"),
           _entropy_betas),
    _Check(2, "grid nodes", _GRID, lambda cfg: _grid(cfg).x),
    _Check(3, "the Crank-Nicolson beta step", (
        "eq.n_beta_steps", *_GRID, "params.temperature", "params.hbar",
        "params.k_B", "params.mass"),
        lambda cfg: _imaginary_time(cfg).dbeta))
_HARMONIC_CHECKS = (_LINEAR_TIMES, _Check(
    1, "the quantum coefficient", ("params.hbar", "params.mass", "sigma0_sq",
                                   "params.k_B", "params.temperature"),
    lambda cfg: quantum_coefficient(cfg.params, cfg.options["sigma0_sq"])))

# one row per scenario: its runner, its keys beyond _PARAMS (the params its
# run reads, with its bounds) and its checks; a PDE runner carries its models
_Scenario = namedtuple("_Scenario", "run keys checks")
_TABLE = {
    "free-zero-T": _Scenario(_run_free_zero_T, {
        **_COLD, "params.force": (float, 0.0, None),
        "sigma0": (float, 1.0, _POSITIVE),
        "dsigma0": (float, 0.0, None),
        "mu0": (float, 0.0, None),
        "dmu0": (float, 0.0, None),
        **_TIME_KEYS,
    }, (_LINEAR_TIMES,)),
    "free-high-friction": _Scenario(_run_free_high_friction, {
        **_WARM, **_DAMPED,
        "sigma0_sq": (float, 0.0, _NONNEG),
        "full": (bool, True, None),
        "time.start": (float, 0.0, _NONNEG),   # 0 = 1e-3 t_c
        "time.stop": (float, 0.0, _NONNEG),    # 0 = 1e3 t_c
        "time.points": (int, 61, ("must be at least 2", lambda v: v >= 2)),
    }, (_TC_TIMES,)),
    "vacuum-spreading": _Scenario(_run_vacuum_spreading, {
        **_COLD, "params.friction": (float, 0.0, _ZERO),
        "params.force": (float, 0.0, None),
        "sigma0": (float, 1.0, _POSITIVE),
        **_TIME_KEYS,
    }, (_LINEAR_TIMES,)),
    "harmonic": _Scenario(_run_harmonic, {
        "params.omega0": (float, 1.0, _POSITIVE), **_WARM,
        "params.force": (float, 0.0, None),
        "sigma0_sq": (float, 1.0, _POSITIVE),
        "dsigma0_sq": (float, 0.0, None),
        "mu0": (float, 1.0, None),
        "dmu0": (float, 0.0, None),
        **_TIME_KEYS,
    }, _HARMONIC_CHECKS),
    "classical-telegraph": _Scenario(partial(
        _run_pde, PdeModel.CLASSICAL_TELEGRAPH,
        PdeModel.CLASSICAL_TELEGRAPH), {
        **_WARM, **_DAMPED,
        "sigma0_sq": (float, 0.25, _POSITIVE),
        "mu0": (float, 0.0, None),
        **_GRID_KEYS, **_PDE_KEYS, **_POTENTIAL_KEYS,
    }, _PDE_CHECKS),
    "quantum-zero-T-pde": _Scenario(partial(
        _run_pde, PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI,
        PdeModel.QUANTUM_ZERO_T_TELEGRAPH), {
        **_COLD, **_DAMPED,
        "sigma0_sq": (float, 0.04, _POSITIVE),
        "mu0": (float, 0.0, None),
        "inertial": (bool, False, None),
        **_GRID_KEYS, **_PDE_KEYS, **_POTENTIAL_KEYS,
    }, _PDE_CHECKS),
    "semiclassical-pde": _Scenario(partial(
        _run_pde, PdeModel.SEMICLASSICAL_SMOLUCHOWSKI,
        PdeModel.SEMICLASSICAL_TELEGRAPH), {
        **_WARM, **_DAMPED,
        "sigma0_sq": (float, 0.25, _POSITIVE),
        "mu0": (float, 0.0, None),
        "inertial": (bool, False, None),
        **_GRID_KEYS, **_PDE_KEYS, **_POTENTIAL_KEYS,
    }, _SEMICLASSICAL_PDE_CHECKS),
    "equilibrium": _Scenario(_run_equilibrium, {
        **_WARM,
        **_GRID_KEYS, **_POTENTIAL_KEYS,
        "eq.n_beta_steps": (int, 512,
                            ("must be at least 16", lambda v: v >= 16)),
        "eq.entropy_nodes": (int, 0,
                             ("must be 0 or at least 2",
                              lambda v: v == 0 or v >= 2)),
    }, _EQUILIBRIUM_CHECKS),
    "dispersion-compare": _Scenario(_run_dispersion_compare, {
        **_WARM, **_DAMPED,
        "time.points": (int, 60, ("must be at least 2", lambda v: v >= 2)),
    }, (_TC_TIMES,)),
}
SCENARIOS = tuple(_TABLE)
_SCHEMAS = {scen: {**_PARAMS, **row.keys} for scen, row in _TABLE.items()}


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> int:
    """Execute one scenario; write outputs and the manifest; return exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest(cfg)
    t0 = time.perf_counter()
    try:
        _TABLE[cfg.scenario].run(cfg, out, man)
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
