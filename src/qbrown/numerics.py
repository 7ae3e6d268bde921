"""Self-contained numerical kernels.

Lambert W on the lower branch, a stable coth, cumulative trapezoid
quadrature over inverse temperature, explicit Runge-Kutta integration
(fixed RK4, which marches the self-consistent beta-surfaces, and
adaptive Dormand-Prince 5(4)) and the damped fixed-point iterator of
the stationary harmonic profile.  Everything here is a pure function
over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_INV_E = math.exp(-1.0)


class ConvergenceError(RuntimeError):
    """An iterative method failed to reach its tolerance.

    Carries the residual history in ``residuals`` when available.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


# ---------------------------------------------------------------------------
# Lambert W, lower branch


def lambert_w_minus1(x):
    """Lambert W on the branch W_-1, the lower real inverse of w e^w.

    Valid for x in (-1/e, 0); returns w <= -1 with relative residual
    |w e^w - x| / |x| below 1e-13.  Initial guess from the asymptotic
    series w ~ L - ln(-L) with L = ln(-x), switched to the square-root
    branch-point expansion near -1/e, then polished by Halley steps.
    Accepts scalars or arrays.
    """
    scalar = np.isscalar(x)
    z = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(z >= 0) or np.any(z <= -_INV_E - 1e-300):
        bad = z[(z >= 0) | (z <= -_INV_E)]
        raise ValueError(f"lambert_w_minus1 requires -1/e < x < 0, got {bad}")

    w = np.empty_like(z)
    near = z + _INV_E <= 1e-15
    w[near] = -1.0

    rest = ~near
    zr = z[rest]
    # branch-point expansion for moderate closeness, asymptotic series otherwise
    p = -np.sqrt(np.maximum(2.0 * (1.0 + math.e * zr), 0.0))
    w_bp = -1.0 + p - p ** 2 / 3.0 + 11.0 * p ** 3 / 72.0
    L = np.log(-zr)
    with np.errstate(invalid="ignore", divide="ignore"):
        w_as = L - np.log(-L)
    guess = np.where(zr > -0.25, w_as, w_bp)

    for _ in range(50):
        ew = np.exp(guess)
        f = guess * ew - zr
        wp1 = guess + 1.0
        denom = ew * wp1 - (guess + 2.0) * f / (2.0 * wp1)
        step = f / denom
        guess = guess - step
        if np.all(np.abs(f) <= 1e-14 * np.abs(zr) + 1e-300):
            break
    w[rest] = guess
    if np.any(w > -1.0 + 1e-12):
        raise ArithmeticError("Lambert iteration left the lower branch")
    return float(w[0]) if scalar else w.reshape(np.shape(x))


def coth(x):
    """cosh(x)/sinh(x), stable near 0 (Laurent 1/x + x/3) and at large |x|.

    Raises on x = 0.  Accepts scalars or arrays.
    """
    scalar = np.isscalar(x)
    z = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(z == 0):
        raise ValueError("coth is singular at x = 0")
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    big = np.abs(z) > 20.0
    mid = ~(small | big)
    out[small] = 1.0 / z[small] + z[small] / 3.0
    out[big] = np.sign(z[big])
    out[mid] = np.cosh(z[mid]) / np.sinh(z[mid])
    return float(out[0]) if scalar else out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# Quadrature over inverse temperature


def cumulative_trapezoid(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of sampled values along the last axis.

    Works on possibly non-uniform nodes; used by the self-consistent
    solvers so that quadrature shares the solver's beta grid exactly.
    """
    values = np.asarray(values, dtype=float)
    d = np.diff(nodes)
    segs = 0.5 * (values[..., 1:] + values[..., :-1]) * d
    out = np.zeros_like(values)
    out[..., 1:] = np.cumsum(segs, axis=-1)
    return out


# ---------------------------------------------------------------------------
# ODE integration


# adaptive Dormand-Prince 5(4): tolerances, step budget and tableau
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_STEPS = 1_000_000
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + h / 2 * k1)
    k3 = rhs(t + h / 2, y + h / 2 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def equal_substeps(span, max_step):
    """Equal steps per output interval, ceil(span / max_step) and at least
    1: the time grid of the fixed RK4 and the explicit density equations."""
    return np.maximum(1, np.ceil(np.asarray(span) / max_step)).astype(int)


def solve_ode(rhs, y0, t_grid, fixed_step=None):
    """Integrate y' = rhs(t, y) and return the states at each grid time.

    fixed_step None is adaptive Dormand-Prince 5(4), which substeps
    internally and lands exactly on every requested grid time (output
    clipping, no interpolation error); a positive fixed_step is classical
    RK4 in equal_substeps(span, fixed_step) equal steps per grid interval.
    NaN in the right-hand side or step-count exhaustion raise
    ConvergenceError with the time of failure.
    """
    if fixed_step is not None and not fixed_step > 0:
        raise ValueError("fixed_step must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()

    def call(t, yv):
        f = np.atleast_1d(np.asarray(rhs(t, yv), dtype=float))
        if not np.all(np.isfinite(f)):
            raise ConvergenceError(f"non-finite right-hand side at t = {t}")
        return f

    out = np.empty((t_grid.size, y.size))
    out[0] = y
    if fixed_step is not None:
        for i in range(t_grid.size - 1):
            span = t_grid[i + 1] - t_grid[i]
            nsub = int(equal_substeps(span, fixed_step))
            h = span / nsub
            t = t_grid[i]
            for _ in range(nsub):
                y = _rk4_step(call, t, y, h)
                t += h
            out[i + 1] = y
        return out

    # adaptive Dormand-Prince
    t = t_grid[0]
    h = (t_grid[-1] - t_grid[0]) / 100.0
    steps = 0
    k = [None] * 7
    k[0] = call(t, y)
    for i in range(1, t_grid.size):
        t_target = t_grid[i]
        while t < t_target:
            h = min(h, t_target - t)
            for s in range(1, 7):
                ys = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[s]))
                k[s] = call(t + _DP_C[s] * h, ys)
            y5 = y + h * sum(b * k[j] for j, b in enumerate(_DP_B5) if b)
            err_vec = h * sum((_DP_B5[j] - _DP_B4[j]) * k[j] for j in range(7))
            scale = _ABS_TOL + _REL_TOL * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
            steps += 1
            if steps > _MAX_STEPS:
                raise ConvergenceError(f"step budget exhausted at t = {t}")
            if err <= 1.0:
                t += h
                y = y5
                k[0] = k[6]  # FSAL
            else:
                k[0] = call(t, y)
            h *= float(np.clip(0.9 * (max(err, 1e-16)) ** (-0.2), 0.2, 5.0))
        out[i] = y
    return out


# ---------------------------------------------------------------------------
# Damped fixed-point iteration


@dataclass
class FixedPointResult:
    value: np.ndarray
    iterations: int
    residuals: list = field(default_factory=list)


def fixed_point(map_fn, init, relaxation: float = 1.0, tol: float = 1e-10,
                max_iter: int = 200) -> FixedPointResult:
    """Damped iteration x <- (1 - theta) x + theta map(x).

    The residual is the elementwise relative change max |map(x) - x| /
    |map(x)|, taken before relaxation; the loop stops at the first
    residual <= tol.  Failure to converge raises ConvergenceError with
    the residual history, naming map_fn by its qualified name (so a
    solver's map reads "solver.<locals>.map"); a ConvergenceError raised
    by map_fn itself propagates with the history up to that iteration.
    """
    if not 0.0 < relaxation <= 1.0:
        raise ValueError("relaxation must lie in (0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    residuals = []
    for it in range(1, max_iter + 1):
        try:
            fx = np.atleast_1d(np.asarray(map_fn(x), dtype=float))
        except ConvergenceError as exc:
            exc.residuals = list(residuals)
            raise
        if fx.shape != x.shape:
            raise ValueError("map must preserve the iterate shape")
        res = float(np.max(np.abs(fx - x) / np.maximum(np.abs(fx), 1e-300)))
        residuals.append(res)
        x = (1.0 - relaxation) * x + relaxation * fx
        if res <= tol:
            return FixedPointResult(value=x, iterations=it, residuals=residuals)
    name = getattr(map_fn, "__qualname__", repr(map_fn))
    raise ConvergenceError(
        f"fixed point of {name} not converged in {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)
