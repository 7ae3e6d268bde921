"""Quick self-test of the benchmark itself (not part of the test suite).

    python3 perfbench/selftest.py

Every checker must accept an exact answer and reject one perturbed just
beyond its tolerance (sigma^2 x 1.01, mass 1.001, ...); the printers
must emit exactly the metrics BENCHMARK.json names; and the span self
times must add up to the traced wall time.  Takes a few seconds.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

FAILURES = []


def verdict(fn, *args):
    try:
        fn(*args)
        return True
    except ck.CheckError:
        return False


def expect(label, accept, reject):
    """``accept`` and ``reject`` are (fn, args...) tuples."""
    if not verdict(*accept):
        FAILURES.append(f"{label}: exact answer rejected")
    if verdict(*reject):
        FAILURES.append(f"{label}: perturbed answer accepted")


def test_dispersion_checks():
    t = np.geomspace(1e-3, 1e3, 61)
    D, lam2 = 1.0, 0.25
    s = ck.bounded_reference(t, D, lam2)
    expect("implicit bounded law", (ck.check_implicit_bounded, t, s, D, lam2),
           (ck.check_implicit_bounded, t, s * 1.01, D, lam2))
    expect("full below bounded", (ck.check_full_below_bounded, 0.99 * s, s),
           (ck.check_full_below_bounded, 1.01 * s, s))
    pq = np.sqrt(t)
    expect("cold column", (ck.check_cold_column, t, pq, 1.0, 1.0, 1.0, 1.0),
           (ck.check_cold_column, t, 1.03 * pq, 1.0, 1.0, 1.0, 1.0))
    sp = ck.momentum_dispersion(s, 1.0, 1.0, 1.0)
    expect("heisenberg", (ck.check_heisenberg, s, sp, 1.0),
           (ck.check_heisenberg, s, 0.99 * ck.momentum_dispersion(s, 1, 0, 1),
            1.0))
    tv = np.linspace(0.0, 10.0, 101)
    sv = 1.0 + (tv / 2.0) ** 2
    expect("vacuum spreading", (ck.check_vacuum, tv, sv, 1.0, 1.0, 1.0),
           (ck.check_vacuum, tv, 1.01 * sv, 1.0, 1.0, 1.0))
    mu = 0.7 * (1.0 - np.exp(-tv))
    expect("damped mean", (ck.check_damped_mean, tv, mu, 0.0, 0.7, 1.0, 1.0),
           (ck.check_damped_mean, tv, mu + 1e-3, 0.0, 0.7, 1.0, 1.0))
    mu = (1.1 + 1.1 * tv) * np.exp(-tv)
    expect("critical oscillator",
           (ck.check_critical_oscillator, tv, mu, 1.1, 0.0, 1.0),
           (ck.check_critical_oscillator, tv, mu * 1.001, 1.1, 0.0, 1.0))
    s2 = 0.5 / math.tanh(0.5)
    expect("harmonic sigma^2",
           (ck.check_harmonic_sigma2, "", s2, 1, 1, 1, 1.0, 2e-3),
           (ck.check_harmonic_sigma2, "", 1.01 * s2, 1, 1, 1, 1.0, 2e-3))


def test_lambert_check():
    x = -np.exp(-1.0 - np.geomspace(1e-6, 50.0, 40))
    sample = np.arange(0, 40, 4)
    ref = ck.lambert_reference(x[sample])
    w = ck.lambert_reference(x)
    expect("lambert", (ck.check_lambert, x, w, ref, sample),
           (ck.check_lambert, x, 1.01 * w, ref, sample))


def test_density_checks():
    n = 4000
    mass = np.ones(11)
    bad = mass.copy()
    bad[-1] = 1.001
    expect("mass", (ck.check_mass, mass, n), (ck.check_mass, bad, n))
    rho = np.exp(-np.linspace(-3, 3, 61) ** 2)
    neg = rho.copy()
    neg[0] = -1e-3
    expect("non-negative", (ck.check_nonnegative, rho),
           (ck.check_nonnegative, neg))
    t = np.geomspace(0.01, 10.0, 101)
    s2 = np.sqrt(0.04 ** 2 + t / 100.0)
    s2[0] = 0.04
    t[0] = 0.0
    expect("quartic root law",
           (ck.check_quartic_root_law, t, s2, 1.0, 1.0, 100.0),
           (ck.check_quartic_root_law, t, 1.02 * s2, 1.0, 1.0, 100.0))
    tl = np.linspace(0.0, 5.0, 51)
    shift = 0.025 * (tl - 0.05 * (1.0 - np.exp(-tl / 0.05)))
    expect("ehrenfest",
           (ck.check_ehrenfest, tl, shift, 0.0, 0.5, 1.0, 20.0, True, 0.5),
           (ck.check_ehrenfest, tl, 1.01 * shift, 0.0, 0.5, 1.0, 20.0, True,
            0.5))
    expect("constant mean", (ck.check_constant_mean, np.full(5, 0.1), 0.1),
           (ck.check_constant_mean, np.full(5, 0.101), 0.1))
    tele = 0.01 + 2.0 * (tl - (1.0 - np.exp(-tl)))
    expect("telegraph", (ck.check_telegraph, tl, tele, 0.01, 1.0, 1.0, 1.0),
           (ck.check_telegraph, tl, 1.03 * tele, 0.01, 1.0, 1.0, 1.0))
    x = np.linspace(-6, 6, 161)
    eq = ck.boltzmann(x, 0.5 * x ** 2, 1.0)
    expect("relaxed density", (ck.check_relaxed, "", eq, eq, 2e-3),
           (ck.check_relaxed, "", 1.01 * eq, eq, 2e-3))


def test_equilibrium_checks():
    x = np.linspace(-8.0, 8.0, 321)
    h = x[1] - x[0]
    beta = 2.0
    rho, z = ck.eigen_reference(0.5 * x ** 2, 1.0, 1.0, h, beta)
    z_exact = 1.0 / (2.0 * math.sinh(0.5 * beta))
    expect("eigen reference Z vs closed form", (ck.check_z, "", z, z_exact, 1e-3),
           (ck.check_z, "", 1.01 * z, z_exact, 1e-3))
    expect("density", (ck.check_density, "", rho, rho, 1e-5),
           (ck.check_density, "", rho + 1e-4, rho, 1e-5))
    expect("eigen sigma^2 vs coth",
           (ck.check_harmonic_sigma2, "", ck.grid_moments(x, rho)[1], 1, 1, 1,
            beta, 1e-3),
           (ck.check_harmonic_sigma2, "", 1.01 * ck.grid_moments(x, rho)[1],
            1, 1, 1, beta, 1e-3))
    betas = np.linspace(0.0, beta, 9)
    s_ref = ck.entropy_reference(x, beta, betas, 1.0, 1.0, 1.0)
    expect("entropy", (ck.check_entropy, s_ref, s_ref, rho),
           (ck.check_entropy, 1.01 * s_ref, s_ref, rho))


class _Criterion:
    def __init__(self, number, passed, **measured):
        self.number, self.passed, self.measured = number, passed, measured
        self.details = ""


def test_criterion_checks():
    expect("criterion verdict", (ck.check_criterion, _Criterion(3, True)),
           (ck.check_criterion, _Criterion(3, False)))
    expect("criterion 1 ordering",
           (ck.check_criterion, _Criterion(1, False, ratio_full=1.02,
                                           ratio_lambert=1.04)),
           (ck.check_criterion, _Criterion(1, False, ratio_full=1.05,
                                           ratio_lambert=1.04)))
    expect("criterion 7 PDE clause",
           (ck.check_criterion, _Criterion(7, False, err_pde=0.007)),
           (ck.check_criterion, _Criterion(7, False, err_pde=0.021)))
    expect("criterion 9 ordering",
           (ck.check_criterion, _Criterion(9, False, above=True, excess=2.3)),
           (ck.check_criterion, _Criterion(9, False, above=False, excess=2.3)))


def test_printers():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ref = run.CALIBRATION_REF_S
    e2e = run.end_to_end([([1.0, 2.0], [ref] * 3),
                          ([1.1, 2.1], [ref, 2 * ref, 2 * ref])], [0.3, 0.4])
    # the second round ran at half the reference speed after its first op
    if abs(e2e["scaled_wall_s"]["value"] - 0.5 * (3.0 + 1.1 / 1.5 + 1.05)) > 1e-12:
        FAILURES.append("scaled_wall_s does not scale each op by the "
                        "calibrations around it")
    if set(e2e) != {m["name"] for m in bench["end_to_end"]}:
        FAILURES.append(f"end-to-end printer emits {sorted(e2e)}")
    for m in bench["end_to_end"]:
        if e2e.get(m["name"], {}).get("unit") != m["unit"]:
            FAILURES.append(f"unit of {m['name']} differs from BENCHMARK.json")
    layer = spans.Tracer().metrics(1.0)
    names = [m["name"] for m in bench["per_layer"]]
    if list(layer) != names:
        FAILURES.append("per-layer printer and BENCHMARK.json disagree")
    units = dict(spans.METRICS)
    if any(units[m["name"]] != m["unit"] for m in bench["per_layer"]
           if m["name"] in units):
        FAILURES.append("per-layer units differ from BENCHMARK.json")


def test_self_times_add_up():
    import qbrown
    from qbrown import dispersion
    from qbrown.params import PhysicalParams

    tracer = spans.Tracer()
    tracer.install(qbrown)
    try:
        start = time.perf_counter()
        dispersion.solve_overdamped_bounded(PhysicalParams.natural(), 0.0,
                                            np.geomspace(1e-3, 1e3, 31))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    m = tracer.metrics(wall)
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    if abs(total + m["trace.outside_s"] - wall) > 1e-9:
        FAILURES.append("self times do not add up to the traced wall time")
    if m["numerics.solve_ode.calls"] != 1 or m["numerics.rhs_evals"] == 0:
        FAILURES.append("solve_ode or its right-hand side was not traced")
    if dispersion.solve_ode.__module__ != "qbrown.numerics" or hasattr(
            dispersion.solve_ode, "__wrapped__"):
        FAILURES.append("uninstall left a wrapper in place")


def main():
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    for line in FAILURES:
        print(f"FAIL {line}")
    print("selftest:", "failed" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
