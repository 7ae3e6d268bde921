import math

import numpy as np
import pytest

from qbrown import numerics
from qbrown.numerics import (ConvergenceError, coth, cumulative_trapezoid,
                             fixed_point, lambert_w_minus1, solve_ode)

# ---------------------------------------------------------------------------
# Lambert W, lower branch


def test_lambert_round_trip():
    x = -np.geomspace(1e-12, math.exp(-1) - 1e-9, 200)
    w = lambert_w_minus1(x)
    np.testing.assert_allclose(w * np.exp(w), x, rtol=1e-12)
    assert np.all(w <= -1.0)


def test_lambert_branch_point():
    w = lambert_w_minus1(-math.exp(-1) + 1e-16)
    assert w == pytest.approx(-1.0, abs=1e-6)
    w = lambert_w_minus1(-math.exp(-1) + 1e-12)
    assert w == pytest.approx(-1.0, abs=3e-6)


def test_lambert_scalar_and_domain():
    w = lambert_w_minus1(-0.1)
    assert isinstance(w, float)
    assert w * math.exp(w) == pytest.approx(-0.1, rel=1e-13)
    for bad in (0.0, 0.5, -1.0, -0.5):
        with pytest.raises(ValueError):
            lambert_w_minus1(bad)


# ---------------------------------------------------------------------------
# coth


def test_coth_matches_definition():
    x = np.array([-5.0, -1.0, -0.3, 0.3, 1.0, 5.0])
    np.testing.assert_allclose(coth(x), np.cosh(x) / np.sinh(x), rtol=1e-14)


def test_coth_small_and_large():
    assert coth(1e-10) == pytest.approx(1e10, rel=1e-12)
    assert coth(50.0) == 1.0
    assert coth(-50.0) == -1.0
    with pytest.raises(ValueError):
        coth(0.0)


# ---------------------------------------------------------------------------
# quadrature


def test_tanh_squared_integral():
    # int_0^2 tanh^2 = 2 - tanh(2)
    nodes = np.linspace(0.0, 2.0, 4001)
    val = cumulative_trapezoid(np.tanh(nodes) ** 2, nodes)[-1]
    assert val == pytest.approx(2.0 - math.tanh(2.0), rel=1e-7)


def test_cumulative_trapezoid_nonuniform():
    nodes = np.array([0.0, 0.1, 0.5, 1.3, 2.0])
    vals = 3.0 * nodes ** 2
    out = cumulative_trapezoid(vals, nodes)
    assert out[0] == 0.0
    # trapezoid of a quadratic overshoots slightly but converges
    assert out[-1] == pytest.approx(2.0 ** 3, rel=0.1)
    dense = np.linspace(0.0, 2.0, 20001)
    out = cumulative_trapezoid(3.0 * dense ** 2, dense)
    assert out[-1] == pytest.approx(8.0, rel=1e-7)


# ---------------------------------------------------------------------------
# ODE solvers


def _harmonic_rhs(t, y):
    return np.array([y[1], -y[0]])


@pytest.mark.parametrize("fixed_step", [1e-3, None], ids=["rk4", "rk45"])
def test_harmonic_oscillator_period(fixed_step):
    t = np.array([0.0, 2.0 * math.pi])
    y = solve_ode(_harmonic_rhs, [1.0, 0.0], t, fixed_step)
    np.testing.assert_allclose(y[-1], [1.0, 0.0], atol=1e-8)


def test_rk45_lands_on_grid_times():
    t = np.geomspace(1e-3, 10.0, 37)
    t = np.concatenate(([0.0], t))
    y = solve_ode(lambda tt, yy: -yy, [1.0], t)
    np.testing.assert_allclose(y[:, 0], np.exp(-t), rtol=1e-8, atol=1e-12)


def test_ode_failure_modes(monkeypatch):
    with pytest.raises(ConvergenceError):
        solve_ode(lambda t, y: np.array([math.nan]), [1.0], [0.0, 1.0])
    monkeypatch.setattr(numerics, "_MAX_STEPS", 10)
    with pytest.raises(ConvergenceError, match="step budget"):
        solve_ode(lambda t, y: -1e12 * y, [1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        solve_ode(lambda t, y: y, [1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        solve_ode(lambda t, y: y, [1.0], [0.0, 1.0], fixed_step=0.0)


# ---------------------------------------------------------------------------
# fixed point


def test_babylonian_sqrt2():
    res = fixed_point(lambda x: 0.5 * (x + 2.0 / x), 1.0, tol=1e-14)
    assert res.value[0] == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert res.iterations < 10


def test_dottie_number():
    res = fixed_point(np.cos, 1.0, relaxation=1.0, tol=1e-12, max_iter=200)
    assert res.value[0] == pytest.approx(0.7390851332151607, rel=1e-10)


def test_fixed_point_divergence_reports_history():
    with pytest.raises(ConvergenceError) as exc:
        fixed_point(lambda x: 2.0 * x + 1.0, 1.0, max_iter=20)
    assert len(exc.value.residuals) == 20


def test_fixed_point_validation():
    with pytest.raises(ValueError):
        fixed_point(lambda x: x, 1.0, relaxation=0.0)
    with pytest.raises(ValueError):
        fixed_point(lambda x: x, 1.0, tol=-1.0)
    with pytest.raises(ValueError):
        fixed_point(lambda x: np.array([1.0, 2.0]), 1.0)


def test_fixed_point_elementwise_residual():
    # x = 0.5 x + c with components six decades apart: the sup-norm
    # change relative to the largest component stops after 7 iterations
    # with the small one 0.8% short; the elementwise rule takes 27
    c = np.array([1.0, 1e-6])
    res = fixed_point(lambda x: 0.5 * x + c, [2.0, 0.0], tol=1e-8)
    assert res.iterations == 27
    assert len(res.residuals) == 27 and res.residuals[-1] <= 1e-8
    np.testing.assert_allclose(res.value, 2.0 * c, rtol=2e-8)

    x, sup_iterations = np.array([2.0, 0.0]), 0
    while True:
        new = 0.5 * x + c
        sup_iterations += 1
        done = np.max(np.abs(new - x)) / np.max(np.abs(new)) <= 1e-8
        x = new
        if done:
            break
    assert sup_iterations == 7
    assert x[1] == pytest.approx(1.984375e-6, rel=1e-12)


def test_fixed_point_map_failure_keeps_history():
    calls = []

    def halving(x):
        calls.append(1)
        if len(calls) > 4:
            raise ConvergenceError("map failed at its fifth call")
        return 0.5 * x

    with pytest.raises(ConvergenceError, match="fifth call") as exc:
        fixed_point(halving, 1.0, tol=1e-12)
    assert len(exc.value.residuals) == 4


def test_fixed_point_failure_names_its_caller():
    def damped_solver():
        def double(x):
            return 2.0 * x + 1.0
        return fixed_point(double, 1.0, max_iter=5)

    with pytest.raises(ConvergenceError) as exc:
        damped_solver()
    assert "damped_solver.<locals>.double not converged in 5" in str(exc.value)
    assert len(exc.value.residuals) == 5
