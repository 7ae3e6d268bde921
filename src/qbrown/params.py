"""Physical parameters and derived scales shared by all solvers.

All quantities are dimensionful reals in whatever consistent unit system
the caller chooses.  The ``natural()`` preset (hbar = k_B = m = b = T = 1)
exists for tests and quick experiments only.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass


class ScalesUndefinedError(ValueError):
    """Thermal scales are undefined: they require T > 0, b > 0 and
    parameters whose scales are finite positive floats.

    Callers hitting this at T = 0 or b = 0 should switch to the
    zero-temperature / vacuum code paths instead of working with
    infinite beta or infinite D.
    """


@dataclass(frozen=True)
class PhysicalParams:
    """Particle and bath parameters of one scenario.

    hbar, k_B and mass are strictly positive.  friction = 0 (vacuum),
    temperature = 0 and omega0 = 0 (free particle) are each legal
    degenerate cases and are represented literally, not as tiny epsilons.
    force is a constant external force (may be 0 or negative).
    """

    hbar: float = 1.0
    k_B: float = 1.0
    mass: float = 1.0
    friction: float = 1.0
    temperature: float = 1.0
    omega0: float = 0.0
    force: float = 0.0

    def __post_init__(self):
        for name in ("hbar", "k_B", "mass", "friction",
                     "temperature", "omega0", "force"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.k_B <= 0:
            raise ValueError("k_B must be positive")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.friction < 0:
            raise ValueError("friction must be non-negative")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")

    @classmethod
    def natural(cls, **overrides) -> "PhysicalParams":
        """Natural-units preset: hbar = k_B = m = b = T = 1, free, no force."""
        return cls(**overrides)

    @property
    def beta(self) -> float:
        """Inverse temperature 1/(k_B T).  Undefined at T = 0, and where
        it is not a finite float (k_B T underflows)."""
        if self.temperature == 0:
            raise ScalesUndefinedError(
                "beta is undefined at T = 0; use the zero-temperature code paths")
        kT = self.k_B * self.temperature
        beta = 1.0 / kT if kT > 0 else math.inf
        if beta == math.inf:
            raise ScalesUndefinedError(
                f"beta = 1/(k_B T) is not a finite float at k_B = {self.k_B}, "
                f"temperature = {self.temperature}")
        return beta

    @property
    def tau_m(self) -> float:
        """Momentum relaxation time m/b.  Undefined in vacuum (b = 0)."""
        if self.friction == 0:
            raise ScalesUndefinedError("tau_m is undefined at b = 0 (vacuum)")
        return self.mass / self.friction


@dataclass(frozen=True)
class DerivedScales:
    """Thermal length/time scales of a parameter set.

    lambda_T = hbar / (2 sqrt(m k_B T))   thermal de Broglie wavelength
    D        = k_B T / b                  Einstein diffusion constant
    t_c      = lambda_T^2 / (2 D)         decoherence time
    tau_m    = m / b                      momentum relaxation time
    """

    lambda_T: float
    D: float
    t_c: float
    tau_m: float

    @property
    def quantum_overdamped(self) -> bool:
        """True when inertia is negligible but quantum diffusion observable.

        Equivalent to b > 2 m k_B T / hbar, i.e. 2 t_c > tau_m.
        """
        return 2.0 * self.t_c > self.tau_m


def derived_scales(p: PhysicalParams) -> DerivedScales:
    """Compute the thermal scales of ``p``.

    Raises ScalesUndefinedError at T = 0 or b = 0, which have dedicated
    solvers and no finite thermal scales, and wherever a scale is not a
    finite positive float (it overflows or underflows to 0).
    """
    if p.temperature == 0 or p.friction == 0:
        raise ScalesUndefinedError(
            "scales undefined at T = 0 or b = 0; "
            "use the zero-temperature / vacuum code paths")
    try:   # / raises by an underflowed 0, ** on overflow
        lambda_T = p.hbar / (2.0 * math.sqrt(p.mass * p.k_B * p.temperature))
        D = p.k_B * p.temperature / p.friction
        sc = DerivedScales(lambda_T=lambda_T, D=D, t_c=lambda_T ** 2 / (2.0 * D),
                           tau_m=p.mass / p.friction)
    except ArithmeticError:
        sc = None
    if sc is None or not all(0.0 < v < math.inf for v in astuple(sc)):
        raise ScalesUndefinedError(
            f"scales undefined at hbar = {p.hbar}, k_B = {p.k_B}, "
            f"mass = {p.mass}, friction = {p.friction}, temperature = "
            f"{p.temperature}: lambda_T, D, t_c and tau_m must be finite "
            f"positive floats")
    return sc


def momentum_dispersion(sigma_x2, p: PhysicalParams):
    """Non-equilibrium momentum dispersion m k_B T + hbar^2 / (4 sigma_x^2).

    At T = 0 this is the minimal-uncertainty value hbar^2 / (4 sigma_x^2).
    Accepts scalars or arrays; every entry must be positive.
    """
    import numpy as np

    s = np.asarray(sigma_x2, dtype=float)
    if np.any(s <= 0):
        raise ValueError("sigma_x2 must be positive")
    out = p.mass * p.k_B * p.temperature + p.hbar ** 2 / (4.0 * s)
    return float(out) if np.isscalar(sigma_x2) or s.ndim == 0 else out
