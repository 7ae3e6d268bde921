import math

import numpy as np
import pytest

from qbrown import (PhysicalParams, ScalesUndefinedError, derived_scales,
                    momentum_dispersion)


def test_natural_defaults():
    p = PhysicalParams.natural()
    assert p.hbar == p.k_B == p.mass == p.friction == p.temperature == 1.0
    assert p.omega0 == 0.0 and p.force == 0.0


@pytest.mark.parametrize("field,value", [
    ("hbar", 0.0), ("hbar", -1.0), ("k_B", -2.0), ("mass", 0.0),
    ("friction", -0.5), ("temperature", -1.0), ("omega0", -1.0),
    ("mass", math.nan), ("force", math.inf),
])
def test_invalid_params_rejected(field, value):
    with pytest.raises(ValueError):
        PhysicalParams.natural(**{field: value})


def test_degenerate_limits_are_legal_but_guarded():
    p = PhysicalParams.natural(temperature=0.0, friction=0.0)
    with pytest.raises(ScalesUndefinedError):
        p.beta
    with pytest.raises(ScalesUndefinedError):
        p.tau_m
    with pytest.raises(ScalesUndefinedError):
        derived_scales(p)


def test_natural_scales():
    sc = derived_scales(PhysicalParams.natural())
    assert sc.lambda_T == 0.5
    assert sc.D == 1.0
    assert sc.t_c == 0.125
    assert sc.tau_m == 1.0
    assert not sc.quantum_overdamped


def test_quantum_overdamped_flag():
    # b > 2 m k_B T / hbar marks the quantum-overdamped window
    assert derived_scales(PhysicalParams.natural(friction=10.0)).quantum_overdamped
    assert not derived_scales(PhysicalParams.natural(friction=1.9)).quantum_overdamped


def test_beta_and_tau():
    p = PhysicalParams.natural(temperature=0.5, friction=4.0, mass=2.0)
    assert p.beta == 2.0
    assert p.tau_m == 0.5


@pytest.mark.parametrize("overrides", [
    {"k_B": 5e-324},                                  # 1/(k_B T) = inf
    {"k_B": 1e-200, "temperature": 1e-200},           # k_B T = 0
], ids=["kT-subnormal", "kT-underflow"])
def test_beta_beyond_the_floats_is_undefined(overrides):
    with pytest.raises(ScalesUndefinedError, match="not a finite float"):
        PhysicalParams.natural(**overrides).beta


def test_momentum_dispersion_scalar_and_array():
    p = PhysicalParams.natural()
    assert momentum_dispersion(1.0, p) == pytest.approx(1.25)
    p0 = PhysicalParams.natural(temperature=0.0)
    s = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(momentum_dispersion(s, p0), 0.25 / s)
    with pytest.raises(ValueError):
        momentum_dispersion(0.0, p)


@pytest.mark.parametrize("overrides", [
    {"hbar": 1e200},                                  # lambda_T^2 overflows
    {"hbar": 1e-200},                                 # lambda_T^2 underflows
    {"k_B": 1e-300, "friction": 4e23},                # t_c = inf
    {"mass": 1e-300, "k_B": 1e-300, "temperature": 1e-30},  # m k_B T = 0
    {"friction": 1e-320},                             # D = inf
], ids=["lambda_T2-overflow", "lambda_T2-underflow", "t_c-inf",
        "mkT-underflow", "D-inf"])
def test_scales_beyond_the_floats_are_undefined(overrides):
    with pytest.raises(ScalesUndefinedError, match="finite positive floats"):
        derived_scales(PhysicalParams.natural(**overrides))
