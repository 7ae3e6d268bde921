import math

import numpy as np
import pytest

from qbrown import numerics
from qbrown.numerics import (ConvergenceError, coth, cumulative_trapezoid,
                             lambert_w_minus1, solve_ode)

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
