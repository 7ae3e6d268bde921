"""Self-contained numerical kernels.

Lambert W on the lower branch, a stable coth and adaptive Dormand-Prince
8(5,3) integration, which marches every ODE of the library.  Everything
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
_BLOCK = 8192
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
    depend on the other points of the array.  That lets the sweeps run
    over the flattened input in blocks of _BLOCK = 8192 points, whose
    arrays (64 KiB each) stay in cache, with the same answer bit for bit.
    A point still above the bound after _HALLEY_MAX = 50 steps raises
    ArithmeticError.  Each call logs its point count and Halley steps
    (the sweeps of its slowest point) at DEBUG on qbrown.numerics.
    Accepts scalars or arrays of any shape.
    """
    scalar = np.isscalar(x)
    z = np.asarray(x, dtype=float).ravel()
    inside = (z <= -_TINY) & (z > -_INV_E)
    if not inside.all():
        raise ValueError(f"lambert_w_minus1 requires -1/e < x <= {-_TINY}, "
                         f"got {z[~inside]}")
    del inside

    w = np.empty_like(z)
    steps = 0
    for start in range(0, z.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        steps = max(steps, _lambert_block(z[block], w[block]))
    _log.debug("lambert_w_minus1: %d points, %d Halley steps", z.size, steps)
    if np.any(w > -1.0 + 1e-12):
        raise ArithmeticError("Lambert iteration left the lower branch")
    return float(w[0]) if scalar else w.reshape(np.shape(x))


def _lambert_block(z, w):
    """Write W_-1(z) into w for one block of lambert_w_minus1's flat
    input; return the Halley sweeps of its slowest point."""
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
        if done.all():
            w[idx] = g
            return steps
        if done.any():
            w[idx[done]] = g[done]
            live = np.flatnonzero(~done)
            idx, a, g = idx[live], a[live], g[live]
    raise ArithmeticError("Lambert W_-1: Halley iteration did not "
                          f"converge in {_HALLEY_MAX} steps")


def coth(x):
    """cosh(x)/sinh(x) as 1/tanh(x), which tanh keeps accurate near 0 and
    at large |x|, where it rounds to +-1.

    Raises on x = 0.  Accepts scalars or arrays.
    """
    z = np.asarray(x, dtype=float)
    if np.any(z == 0):
        raise ValueError("coth is singular at x = 0")
    out = 1.0 / np.tanh(z)
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# ODE integration


# adaptive Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.5 and II.10): tolerances, step budget, the nodes c and the rows
# of the padded Butcher matrix as {column: coefficient}; its last row is
# the eighth-order weights b (FSAL: that stage is the next step's first)
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_STEPS = 100_000
_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 1 / 3, 0.25, 4 / 13, 127 / 195, 0.6,
    6 / 7, 1.0, 1.0])
_DOP_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2,
     3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
)
_DOP_A = np.array([[row.get(j, 0.0) for j in range(13)] for row in _DOP_ROWS])
# the error weights: b minus the fifth-order weights (e5) and b minus the
# third-order ones (e3), which scale e5's estimate (sec. II.10)
_DOP_E = np.zeros((2, 13))
_DOP_E[0, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_DOP_E[1] = _DOP_A[12]
_DOP_E[1, [0, 8, 11]] -= [0.244094488188976377952755905512,
                          0.733846688281611857341361741547,
                          0.220588235294117647058823529412e-1]


def _norm(v, scale):
    """The root-mean-square of v / scale: the step control's error norm."""
    q = v / scale
    return math.sqrt(q.dot(q) / q.size)


def solve_ode(rhs, y0, t_grid):
    """Integrate y' = rhs(t, y) and return the states at each grid time.

    Adaptive Dormand-Prince 8(5,3): an eighth-order step of twelve
    right-hand-side calls (its last stage is the next step's first), which
    substeps internally and lands exactly on every requested grid time
    (output clipping, no interpolation error).  The error estimate is
    h |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2), from the fifth- and third-order
    embedded weights (Hairer, Norsett & Wanner, Solving ODEs I,
    sec. II.10), each norm the root-mean-square over the components scaled
    by _ABS_TOL + _REL_TOL max(|y|, |y_new|).  The first trial step is the
    Hairer-Norsett-Wanner estimate (sec. II.4) from y0, rhs(t0, y0) and one
    Euler probe, in the step control's norm; the probe step and the first
    trial step are both capped at the span, so no stage leaves it.  The
    stage values of a step are checked once, together, before its error
    estimate: a NaN or infinity in any stage, or exhaustion of the
    _MAX_STEPS budget, raises ConvergenceError with the time of failure.
    Inside the march numpy's invalid and divide-by-zero warnings are off,
    in the right-hand side too: the check reports what they would.  Each
    call logs its accepted and rejected steps and its right-hand-side
    calls at DEBUG on qbrown.numerics.
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
    k = np.empty((13, y.size))
    k[0] = call(t, y)
    calls = 1
    if span > 0:
        # where y0 or f0 vanishes the fallbacks are fractions of the span:
        # the library runs in SI and in natural units
        scale = _ABS_TOL + _REL_TOL * np.abs(y)
        d0, d1 = _norm(y, scale), _norm(k[0], scale)
        h0 = min(0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6 * span,
                 span)
        d2 = _norm(call(t + h0, y + h0 * k[0]) - k[0], scale) / h0
        calls = 2
        h1 = ((0.01 / max(d1, d2)) ** 0.125 if max(d1, d2) > 1e-15
              else max(1e-6 * span, 1e-3 * h0))
        h = min(100.0 * h0, h1, span)
    steps = rejected = 0
    # h * _DOP_A is formed in place once per step; stage s reads its row
    # of it, sliced to the earlier stages, against those stages' rates
    hA = np.empty_like(_DOP_A)
    stages = [(hA[s, :s], k[:s], s, float(_DOP_C[s])) for s in range(1, 13)]
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
                np.multiply(_DOP_A, h, out=hA)
                for a, ks, s, c in stages:
                    ys = a.dot(ks)
                    ys += y
                    k[s] = rhs(t + c * h, ys)
                if (not math.isfinite(k_flat.dot(ones))
                        and not np.isfinite(k).all()):
                    s = int(np.argmin(np.isfinite(k).all(axis=1)))
                    raise ConvergenceError(
                        f"non-finite right-hand side at t = {t + _DOP_C[s] * h}")
                # the last stage's state is the eighth-order solution
                abs_ys = np.abs(ys)
                scale = np.maximum(abs_y, abs_ys)
                scale *= _REL_TOL
                scale += _ABS_TOL
                e = _DOP_E.dot(k)
                e /= scale
                e5 = e[0].dot(e[0])
                den = (e5 + 0.01 * e[1].dot(e[1])) * y.size
                # zero only where both estimates vanish; an overflowed
                # (NaN) estimate fails the test below and shrinks the step
                err = h * e5 / math.sqrt(den) if den else 0.0
                steps += 1
                if steps > _MAX_STEPS:
                    raise ConvergenceError(f"step budget exhausted at t = {t}")
                if err <= 1.0:
                    t += h
                    y, abs_y = ys, abs_ys
                    k[0] = k[12]  # FSAL
                else:
                    rejected += 1
                h *= min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.125))
            out[i] = y
    _log.debug("solve_ode: %d accepted and %d rejected steps, %d "
               "right-hand-side calls, %d components", steps - rejected,
               rejected, calls + 12 * steps, y.size)
    return out
