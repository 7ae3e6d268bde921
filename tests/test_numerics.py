import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbrown import numerics
from qbrown.numerics import (ConvergenceError, coth, lambert_w_minus1,
                             solve_ode)

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


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    # x = -exp(-1 - c), c log-uniform over the bounded law's Lambert range
    st.floats(math.log(1e-12), math.log(700.0)).map(
        lambda u: -math.exp(-1.0 - math.exp(u))),
    # within 1e-9 of the branch point -1/e
    st.floats(1e-16, 1e-9).map(lambda d: -math.exp(-1.0) + d)))
@example(-math.exp(-701.0))
@example(-math.exp(-1.0) + 1e-16)
def test_lambert_residual_property(x):
    w = lambert_w_minus1(x)
    assert w <= -1.0
    assert abs(w * math.exp(w) - x) <= 1e-13 * abs(x)


def test_lambert_scalar_and_domain():
    w = lambert_w_minus1(-0.1)
    assert isinstance(w, float)
    assert w * math.exp(w) == pytest.approx(-0.1, rel=1e-13)
    # NaN and subnormal x are outside the domain too
    for bad in (0.0, 0.5, -1.0, -0.5, math.nan, -math.inf, -5e-324):
        with pytest.raises(ValueError):
            lambert_w_minus1(bad)
    with pytest.raises(ValueError):
        lambert_w_minus1(np.array([-0.1, math.nan]))


def test_lambert_converges_in_a_few_halley_steps(caplog, monkeypatch):
    # the benchmark's range: c from 1e-9 to 600, points near -1/e included
    rng = np.random.default_rng(7)
    c = np.geomspace(1e-9, 600.0, 20_000) * rng.uniform(0.5, 1.0, 20_000)
    with caplog.at_level(logging.DEBUG, logger="qbrown.numerics"):
        lambert_w_minus1(-np.exp(-1.0 - c))
    steps = re.search(r"20000 points, (\d+) Halley steps", caplog.text)
    assert steps is not None and int(steps.group(1)) <= 5
    # a cap reached without convergence raises instead of returning
    monkeypatch.setattr(numerics, "_HALLEY_MAX", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        lambert_w_minus1(-np.exp(-1.0 - c))


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
# ODE solvers


def _harmonic_rhs(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_period():
    t = np.array([0.0, 2.0 * math.pi])
    y = solve_ode(_harmonic_rhs, [1.0, 0.0], t)
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


def test_first_step_probe_stays_inside_the_span():
    # y' = -1e-4 y gives the estimate h0 = 0.01 y / y' = 100, far beyond
    # the span of 1; the right-hand side is undefined past the last time
    def rhs(t, y):
        if t > 1.0 + 1e-12:
            raise AssertionError(f"right-hand side called at t = {t}")
        return -1e-4 * y

    y = solve_ode(rhs, [1.0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(y[:, 0], np.exp(-1e-4 * np.array([0.0, 0.5, 1.0])),
                               rtol=1e-12)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_stage_is_a_convergence_error(bad):
    # the oscillator's steps put stages, not step ends, in (0.3, 0.31); the
    # later stages of that step see the non-finite value before the
    # step's one check, and pytest turns any RuntimeWarning into an error
    def rhs(t, y):
        f = np.array([y[1], -y[0]])
        if 0.3 < t < 0.31:
            f[0] = bad
        return f

    with pytest.raises(ConvergenceError,
                       match=r"non-finite right-hand side at t = 0\.30"):
        solve_ode(rhs, [1.0, 0.0], [0.0, 1.0])


def test_first_step_is_estimated_from_the_rhs():
    # the first trial step must come from the rhs: span / 100 = 1e4
    # overflows y' = -y^2 in its first stages
    y = solve_ode(lambda t, y: -y * y, [1.0], [0.0, 1e6])
    assert y[-1, 0] == pytest.approx(1.0 / (1.0 + 1e6), rel=1e-6)
