"""Self-contained numerical kernels.

Lambert W on the lower branch, a stable coth and adaptive Dormand-Prince
5(4) integration, which marches every ODE of the library.  Everything
here is a pure function over immutable inputs.
"""

from __future__ import annotations

import logging
import math

import numpy as np

_INV_E = math.exp(-1.0)
_TWO_EPS = 2.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
_HALLEY_MAX = 50
_log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    """A solver failed: a non-finite value, an exhausted step budget or a
    state that left its domain."""


# ---------------------------------------------------------------------------
# Lambert W, lower branch


def lambert_w_minus1(x):
    """Lambert W on the branch W_-1, the lower real inverse of w e^w.

    Valid for x in (-1/e, -tiny], tiny = 2.2e-308 the smallest normal
    float (for subnormal x, w e^w cannot carry the residual); NaN and
    every x outside raise ValueError.  Returns w <= -1 with relative
    residual |w e^w - x| / |x| below 1e-13 wherever e^w is normal.
    Initial guess from the asymptotic series w ~ L - ln(-L) with
    L = ln(-x), switched to the square-root branch-point expansion near
    -1/e, then polished by Halley steps to
    |w e^w - x| <= (1e-14 + 2 eps |w|) |x|: a correctly rounded w leaves a
    residual of about eps |w| |x|, so a bound without the |w| term is out
    of reach for w below about -100.  Each point is swept until it meets
    the bound, takes that sweep's step and leaves, so its answer does not
    depend on the other points of the array.  A point still above the
    bound after _HALLEY_MAX = 50 steps raises ArithmeticError.  Each call
    logs its point count and Halley steps (the sweeps of its slowest
    point) at DEBUG on qbrown.numerics.  Accepts scalars or arrays.
    """
    scalar = np.isscalar(x)
    z = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (z <= -_TINY) & (z > -_INV_E)
    if not inside.all():
        raise ValueError(f"lambert_w_minus1 requires -1/e < x <= {-_TINY}, "
                         f"got {z[~inside]}")

    w = np.empty_like(z)
    near = z + _INV_E <= 1e-15
    w[near] = -1.0

    # every other point, by index, with a = -x = |x|
    idx = np.flatnonzero(~near)
    a = -z[idx]
    # branch-point expansion for moderate closeness, asymptotic series otherwise
    p = -np.sqrt(np.maximum(2.0 * (1.0 - math.e * a), 0.0))
    w_bp = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    L = np.log(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        w_as = L - np.log(-L)
    g = np.where(a < 0.25, w_as, w_bp)
    del p, w_bp, L, w_as

    # a sweep takes one Halley step at every point not yet written; a point
    # that met the bound before the step is written after it and leaves
    for steps in range(1, _HALLEY_MAX + 1):
        ew = np.exp(g)
        f = g * ew + a
        done = np.abs(f) <= (1e-14 + _TWO_EPS * np.abs(g)) * a
        wp1 = g + 1.0
        g = g - f / (ew * wp1 - (g + 2.0) * f / (2.0 * wp1))
        w[idx[done]] = g[done]
        if done.all():
            break
        live = np.flatnonzero(~done)
        idx, a, g = idx[live], a[live], g[live]
    else:
        raise ArithmeticError("Lambert W_-1: Halley iteration did not "
                              f"converge in {_HALLEY_MAX} steps")
    _log.debug("lambert_w_minus1: %d points, %d Halley steps", z.size, steps)
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
# ODE integration


# adaptive Dormand-Prince 5(4): tolerances, step budget and the padded
# Butcher matrix, whose last row is the fifth-order weights (FSAL)
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_STEPS = 1_000_000
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# fifth- minus fourth-order weights: the local error estimate
_DP_E = _DP_A[6] - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                             -92097 / 339200, 187 / 2100, 1 / 40])


def _norm(v, scale):
    """The root-mean-square of v / scale: the step control's error norm."""
    q = v / scale
    return math.sqrt(q.dot(q) / q.size)


def solve_ode(rhs, y0, t_grid):
    """Integrate y' = rhs(t, y) and return the states at each grid time.

    Adaptive Dormand-Prince 5(4), which substeps internally and lands
    exactly on every requested grid time (output clipping, no
    interpolation error).  The first trial step is the Hairer-Norsett-
    Wanner estimate (Solving ODEs I, sec. II.4) from y0, rhs(t0, y0) and
    one Euler probe, in the step control's norm; the probe step and the
    first trial step are both capped at the span, so no stage leaves it.
    The six stage values of a step are checked once, together, before
    its error estimate: a NaN or infinity in any stage, or step-count
    exhaustion, raises ConvergenceError with the time of failure.  Inside
    the march numpy's invalid and divide-by-zero warnings are off, in the
    right-hand side too: the check reports what they would.  Each call
    logs its accepted and rejected steps at DEBUG on qbrown.numerics.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()

    def call(t, yv):
        f = np.atleast_1d(np.asarray(rhs(t, yv), dtype=float))
        if not np.isfinite(f).all():
            raise ConvergenceError(f"non-finite right-hand side at t = {t}")
        return f

    out = np.empty((t_grid.size, y.size))
    out[0] = y
    t = t_grid[0]
    span = t_grid[-1] - t
    k = np.empty((7, y.size))
    k[0] = call(t, y)
    if span > 0:
        # where y0 or f0 vanishes the fallbacks are fractions of the span:
        # the library runs in SI and in natural units
        scale = _ABS_TOL + _REL_TOL * np.abs(y)
        d0, d1 = _norm(y, scale), _norm(k[0], scale)
        h0 = min(0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6 * span,
                 span)
        d2 = _norm(call(t + h0, y + h0 * k[0]) - k[0], scale) / h0
        h1 = ((0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 1e-15
              else max(1e-6 * span, 1e-3 * h0))
        h = min(100.0 * h0, h1, span)
    steps = rejected = 0
    # h * _DP_A is formed in place once per step; stage s reads its row of
    # it, sliced to the earlier stages, against those stages' rates
    hA = np.empty_like(_DP_A)
    stages = [(hA[s, :s], k[:s], s, float(_DP_C[s])) for s in range(1, 7)]
    # the sum of every stage's rates, one dot product, is finite unless a
    # stage holds a NaN or an infinity (or the sum overflows, which the
    # exact test then clears)
    k_flat, ones = k.reshape(-1), np.ones(k.size)
    abs_y = np.abs(y)
    # a non-finite stage flows into the later stages of its step before
    # the step's one check, which reports it: no floating-point warning
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(1, t_grid.size):
            t_target = t_grid[i]
            while t < t_target:
                h = min(h, t_target - t)
                np.multiply(_DP_A, h, out=hA)
                for a, ks, s, c in stages:
                    ys = a.dot(ks)
                    ys += y
                    k[s] = rhs(t + c * h, ys)
                if (not math.isfinite(k_flat.dot(ones))
                        and not np.isfinite(k).all()):
                    s = int(np.argmin(np.isfinite(k).all(axis=1)))
                    raise ConvergenceError(
                        f"non-finite right-hand side at t = {t + _DP_C[s] * h}")
                # the last stage's state is the fifth-order solution
                abs_ys = np.abs(ys)
                scale = np.maximum(abs_y, abs_ys)
                scale *= _REL_TOL
                scale += _ABS_TOL
                err = h * _norm(_DP_E.dot(k), scale)
                steps += 1
                if steps > _MAX_STEPS:
                    raise ConvergenceError(f"step budget exhausted at t = {t}")
                if err <= 1.0:
                    t += h
                    y, abs_y = ys, abs_ys
                    k[0] = k[6]  # FSAL
                else:
                    rejected += 1
                h *= min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.2))
            out[i] = y
    _log.debug("solve_ode: %d accepted and %d rejected steps, %d components",
               steps - rejected, rejected, y.size)
    return out
