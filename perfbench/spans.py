"""Spans and counters at the package's layer boundaries.

The tracer wraps each layer module's public functions from outside the
program: a wrapper replaces the function in every ``qbrown`` module
(and list) that holds it, i.e. where the calling module looks the name
up, so ``qbrown.dispersion.solve_ode`` is the call from ``dispersion``
into ``numerics``.  ``uninstall`` restores the originals.

Spans (id, name, start, end, parent) stay in memory; ``write`` dumps
them as JSON lines.  The right-hand sides handed to ``solve_ode`` are
called ~10^5 times per round, so they are timed and counted as
aggregated child spans instead of being recorded one by one.

A span's self time is its duration minus its children's durations;
each layer's self time is the sum over its spans, and the time inside
timed operations but outside every span is ``outside``.  These add up
to the traced wall time by construction.  A layer's busy time is the
time inside any of its spans, and its calls count the wrapped public
functions called (right-hand sides excluded).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "dispersion", "pde", "equilibrium", "cli", "acceptance")

METRICS = (
    ("numerics.solve_ode.calls", "count"),
    ("numerics.solve_ode.s", "s"),
    ("numerics.solve_ode.self_s", "s"),
    ("numerics.rhs_evals", "count"),
    ("numerics.rhs.s", "s"),
    ("numerics.lambert_w.points", "count"),
    ("numerics.lambert_w.us_per_point", "us"),
    ("numerics.self_s", "s"),
    ("dispersion.overdamped_full.calls", "count"),
    ("dispersion.overdamped_full.s", "s"),
    ("dispersion.overdamped_full.sweeps", "count"),
    ("dispersion.overdamped_full.sweep_ms", "ms"),
    ("dispersion.harmonic.calls", "count"),
    ("dispersion.harmonic.s", "s"),
    ("dispersion.harmonic.sweeps", "count"),
    ("dispersion.self_s", "s"),
    ("pde.quantum.steps", "count"),
    ("pde.quantum.s", "s"),
    ("pde.quantum.step_us", "us"),
    ("pde.classical.steps", "count"),
    ("pde.classical.s", "s"),
    ("pde.classical.step_us", "us"),
    ("pde.self_s", "s"),
    ("equilibrium.imaginary_time.calls", "count"),
    ("equilibrium.imaginary_time.s", "s"),
    ("equilibrium.imaginary_time.beta_steps", "count"),
    ("equilibrium.imaginary_time.beta_step_ms", "ms"),
    ("equilibrium.imaginary_time.kernel_mb", "MiB-computed"),
    ("equilibrium.eigen.s", "s"),
    ("equilibrium.entropy_sweep.propagations", "count"),
    ("equilibrium.entropy_sweep.s", "s"),
    ("equilibrium.self_s", "s"),
    ("cli.scenario_runs", "count"),
    ("cli.run_scenario.s", "s"),
    ("cli.self_s", "s"),
    ("cli.write_csv.s", "s"),
    ("cli.csv_bytes", "bytes"),
    *((f"acceptance.criterion_{i:02d}.s", "s") for i in range(1, 14)),
    ("acceptance.surface_solves_per_input", "ratio"),
    ("acceptance.self_s", "s"),
    *((f"{layer}.{kind}", unit) for layer in LAYERS
      for kind, unit in (("calls", "count"), ("busy_s", "s"))),
    ("trace.wall_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class _Frame:
    __slots__ = ("id", "name", "start", "child", "seen")

    def __init__(self, span_id, name, start):
        self.id = span_id
        self.name = name
        self.start = start
        self.child = 0.0
        self.seen = 0


class Tracer:
    """Records spans at layer boundaries and the per-layer counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._next_id = 0
        self.reset()

    # -- span bookkeeping -------------------------------------------------

    def reset(self):
        """Start the counters of a new round; recorded spans are kept."""
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._depth = defaultdict(int)
        self.stats = defaultdict(float)
        self.top_s = 0.0
        self._surface_inputs = set()
        self._first_span = len(self.spans)

    def _enter(self, name, layer):
        self._next_id += 1
        self._depth[layer] += 1
        frame = _Frame(self._next_id, name, perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame, layer, record=True):
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.self_s[layer] += duration - frame.child
        self._depth[layer] -= 1
        if not self._depth[layer]:
            # outermost span of this layer: busy time counts each
            # interval once however the layers nest inside it
            self.busy_s[layer] += duration
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent_id = parent.id
        else:
            self.top_s += duration
            parent_id = None
        if record:
            self.spans.append((frame.id, frame.name, frame.start, end,
                               parent_id))
        return duration

    def _parent(self):
        return self._stack[-2] if len(self._stack) > 1 else None

    def _inside(self, prefix):
        return any(f.name.startswith(prefix) for f in self._stack)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, layer):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, layer)
            tracer.calls[layer] += 1
            parent = tracer._parent()
            if name == "numerics.solve_ode":
                args = (tracer._counted(args[0]),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame, layer)
            if hook is not None:
                hook(tracer, frame, parent, duration, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, rhs):
        tracer = self
        layer = rhs.__module__.split(".")[-1]

        def counted(*args):
            frame = tracer._enter("rhs", layer)
            try:
                return rhs(*args)
            finally:
                tracer.stats["numerics.rhs.s"] += tracer._exit(
                    frame, layer, record=False)
                tracer.stats["numerics.rhs_evals"] += 1

        return counted

    def install(self, package):
        """Wrap every public function of each layer module of ``package``."""
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                  for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(fn, f"{layer}.{attr}", layer)
                for holder in modules:
                    if vars(holder).get(attr) is fn:
                        self._saved.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        criteria = layers["acceptance"].ALL_CRITERIA
        for i, fn in enumerate(list(criteria)):
            self._saved.append((criteria, i, fn))
            criteria[i] = self.wrap(fn, f"acceptance.criterion_{i + 1:02d}",
                                    "acceptance")

    def uninstall(self):
        for holder, key, fn in reversed(self._saved):
            if isinstance(holder, list):
                holder[key] = fn
            else:
                setattr(holder, key, fn)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, wall):
        """Per-layer metrics of the round just traced, ``wall`` its op time."""
        s = self.stats
        out = {name: 0.0 for name, _ in METRICS}
        out.update(s)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.busy_s"] = self.busy_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out["numerics.lambert_w.us_per_point"] = _ratio(
            1e6 * s["numerics.lambert_w.s"], s["numerics.lambert_w.points"])
        out["dispersion.overdamped_full.sweep_ms"] = _ratio(
            1e3 * s["dispersion.overdamped_full.sweep_s"],
            s["dispersion.overdamped_full.sweeps"])
        for kind in ("quantum", "classical"):
            out[f"pde.{kind}.step_us"] = _ratio(
                1e6 * s[f"pde.{kind}.s"], s[f"pde.{kind}.steps"])
        out["equilibrium.imaginary_time.beta_step_ms"] = _ratio(
            1e3 * s["equilibrium.imaginary_time.s"],
            s["equilibrium.imaginary_time.beta_steps"])
        out["acceptance.surface_solves_per_input"] = _ratio(
            s["acceptance.surface_solves"], len(self._surface_inputs))
        out["trace.wall_s"] = wall
        out["trace.outside_s"] = wall - self.top_s
        out["trace.spans"] = len(self.spans) - self._first_span
        return {name: out[name] for name, _ in METRICS}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# -- per-function counters ---------------------------------------------------
# Each hook runs after its span closed: (tracer, its frame, the parent
# frame, duration, call arguments, result).


def _solve_ode(tr, frame, parent, dt, args, kwargs, result):
    s = tr.stats
    s["numerics.solve_ode.calls"] += 1
    s["numerics.solve_ode.s"] += dt
    s["numerics.solve_ode.self_s"] += dt - frame.child
    if parent is None:
        return
    if parent.name == "dispersion.solve_overdamped_full":
        s["dispersion.overdamped_full.sweeps"] += 1
        s["dispersion.overdamped_full.sweep_s"] += dt
    elif parent.name == "dispersion.solve_harmonic":
        # the first solve of each call integrates the mean, not a sweep
        parent.seen += 1
        if parent.seen > 1:
            s["dispersion.harmonic.sweeps"] += 1


def _lambert(tr, frame, parent, dt, args, kwargs, result):
    tr.stats["numerics.lambert_w.points"] += int(np.size(args[0]))
    tr.stats["numerics.lambert_w.s"] += dt


def _overdamped_full(tr, frame, parent, dt, args, kwargs, result):
    s = tr.stats
    s["dispersion.overdamped_full.calls"] += 1
    s["dispersion.overdamped_full.s"] += dt
    if tr._inside("acceptance."):
        p = _arg(args, kwargs, 0, "p")
        t_grid = _arg(args, kwargs, 1, "t_grid")
        beta_grid = _arg(args, kwargs, 2, "beta_grid")
        key = hashlib.sha1(repr(p).encode() + t_grid.tobytes()
                           + beta_grid.tobytes()).hexdigest()
        tr._surface_inputs.add(key)
        s["acceptance.surface_solves"] += 1


def _harmonic(tr, frame, parent, dt, args, kwargs, result):
    tr.stats["dispersion.harmonic.calls"] += 1
    tr.stats["dispersion.harmonic.s"] += dt


def _evolve(tr, frame, parent, dt, args, kwargs, result):
    kind = "quantum" if _arg(args, kwargs, 1, "model").quantum else "classical"
    tr.stats[f"pde.{kind}.steps"] += result.n_steps
    tr.stats[f"pde.{kind}.s"] += dt


def _imaginary_time(tr, frame, parent, dt, args, kwargs, result):
    s = tr.stats
    cfg = _arg(args, kwargs, 2, "cfg")
    s["equilibrium.imaginary_time.calls"] += 1
    s["equilibrium.imaginary_time.s"] += dt
    s["equilibrium.imaginary_time.beta_steps"] += cfg.n_beta_steps
    s["equilibrium.imaginary_time.kernel_mb"] = max(
        s["equilibrium.imaginary_time.kernel_mb"],
        cfg.grid.n ** 2 * 8 / 2 ** 20)
    if parent is not None and parent.name == "cli.run_scenario":
        # the scenario's first propagation is the equilibrium route; the
        # rest are the entropy sweep's beta nodes
        parent.seen += 1
        if parent.seen > 1:
            s["equilibrium.entropy_sweep.propagations"] += 1
            s["equilibrium.entropy_sweep.s"] += dt


def _quantum_entropy(tr, frame, parent, dt, args, kwargs, result):
    tr.stats["equilibrium.entropy_sweep.s"] += dt


def _eigen(tr, frame, parent, dt, args, kwargs, result):
    tr.stats["equilibrium.eigen.s"] += dt


def _run_scenario(tr, frame, parent, dt, args, kwargs, result):
    tr.stats["cli.scenario_runs"] += 1
    tr.stats["cli.run_scenario.s"] += dt


def _write_csv(tr, frame, parent, dt, args, kwargs, result):
    tr.stats["cli.write_csv.s"] += dt
    tr.stats["cli.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _criterion(tr, frame, parent, dt, args, kwargs, result):
    tr.stats[f"acceptance.criterion_{result.number:02d}.s"] += dt


_HOOKS = {
    "numerics.solve_ode": _solve_ode,
    "numerics.lambert_w_minus1": _lambert,
    "dispersion.solve_overdamped_full": _overdamped_full,
    "dispersion.solve_harmonic": _harmonic,
    "pde.evolve": _evolve,
    "equilibrium.imaginary_time_density": _imaginary_time,
    "equilibrium.quantum_entropy": _quantum_entropy,
    "equilibrium.eigen_density": _eigen,
    "cli.run_scenario": _run_scenario,
    "cli.write_csv": _write_csv,
    **{f"acceptance.criterion_{i:02d}": _criterion for i in range(1, 14)},
}
