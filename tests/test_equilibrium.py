import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgtsv

from qbrown import (DensityField, Grid1D, ImaginaryTimeConfig, PhysicalParams,
                    PotentialSpec, eigen_density, imaginary_time_density,
                    moments, quantum_entropy, quantum_potential,
                    semiclassical_density)
from qbrown.equilibrium import GridMismatchError, min_beta_steps
from qbrown.numerics import coth

NAT = PhysicalParams.natural()


def _harmonic_setup(bho, n=257, half_width=None):
    p = PhysicalParams.natural(omega0=1.0, temperature=1.0 / bho)
    exact = 0.5 * coth(bho / 2.0)
    if half_width is None:
        half_width = max(8.0 * math.sqrt(exact), 6.0)
    g = Grid1D(-half_width, half_width, n)
    return p, g, exact


# ---------------------------------------------------------------------------
# route equivalence


def test_harmonic_routes_agree():
    p, g, exact = _harmonic_setup(2.0)
    U = PotentialSpec.harmonic(1.0)
    cfg = ImaginaryTimeConfig(beta_final=2.0, grid=g, n_beta_steps=256)
    rho_it, z_it = imaginary_time_density(U, p, cfg)
    rho_e, z_e, energies = eigen_density(U, p, 2.0, g)
    assert np.max(np.abs(rho_it.rho - rho_e.rho)) <= 1e-6
    assert abs(z_it - z_e) / z_e <= 1e-3
    # discrete spectrum approximates (n + 1/2) omega0
    np.testing.assert_allclose(energies[:4], [0.5, 1.5, 2.5, 3.5],
                               rtol=1e-3)
    assert moments(rho_it).dispersion == pytest.approx(exact, rel=1e-3)


def test_hot_harmonic_routes_agree():
    # criterion 5's beta = 0.1 box, [-25.31, 25.31], whose kernel powers
    # hold subnormal entries that the kernel flushes to zero
    p, g, exact = _harmonic_setup(0.1)
    U = PotentialSpec.harmonic(1.0)
    cfg = ImaginaryTimeConfig(beta_final=0.1, grid=g, n_beta_steps=256)
    rho_it, z_it = imaginary_time_density(U, p, cfg)
    rho_e, z_e, _ = eigen_density(U, p, 0.1, g)
    assert np.max(np.abs(rho_it.rho - rho_e.rho)) <= 1e-6
    assert abs(z_it - z_e) / z_e <= 1e-3
    assert moments(rho_it).dispersion == pytest.approx(exact, rel=1e-3)


def test_quartic_routes_agree():
    p = PhysicalParams.natural()
    g = Grid1D(-4.0, 4.0, 257)
    U = PotentialSpec.quartic(1.0)
    cfg = ImaginaryTimeConfig(beta_final=1.0, grid=g, n_beta_steps=256)
    rho_it, z_it = imaginary_time_density(U, p, cfg)
    rho_e, z_e, _ = eigen_density(U, p, 1.0, g)
    assert np.max(np.abs(rho_it.rho - rho_e.rho)) <= 1e-6
    assert abs(z_it - z_e) / z_e <= 1e-3


def test_periodic_routes_agree():
    # a 128-node ring: the kernel's corner entries against a dense
    # eigen-solve of the same ring Hamiltonian
    p = PhysicalParams.natural()
    g = Grid1D(0.0, 2.0 * math.pi * 127 / 128, 128, "periodic")
    U = PotentialSpec.tabulated(np.cos(g.x))
    cfg = ImaginaryTimeConfig(beta_final=1.0, grid=g, n_beta_steps=256,
                              boundary="periodic")
    rho_it, z_it = imaginary_time_density(U, p, cfg)
    rho_e, z_e, _ = eigen_density(U, p, 1.0, g)
    assert np.max(np.abs(rho_it.rho - rho_e.rho)) <= 1e-6
    assert abs(z_it - z_e) / z_e <= 1e-3
    # the box spectrum misses the ring's translation symmetry
    rho_box, _, _ = eigen_density(U, p, 1.0, Grid1D(g.x_min, g.x_max, g.n))
    assert np.max(np.abs(rho_it.rho - rho_box.rho)) > 1e-2
    with pytest.raises(ValueError):
        Grid1D(g.x_min, g.x_max, g.n, boundary="reflecting")


def test_config_boundary_defaults_to_the_grid():
    # a ring grid with no boundary given propagates the ring kernel; the
    # box stencil there misses the eigen route by 0.158 of the peak
    p = PhysicalParams.natural()
    g = Grid1D(0.0, 2.0 * math.pi * 127 / 128, 128, "periodic")
    U = PotentialSpec.tabulated(np.cos(g.x))
    cfg = ImaginaryTimeConfig(beta_final=1.0, grid=g, n_beta_steps=256)
    assert cfg.boundary == "periodic"
    assert ImaginaryTimeConfig(beta_final=1.0,
                               grid=Grid1D(-5.0, 5.0, 65)).boundary == "box"
    rho_e, _, _ = eigen_density(U, p, 1.0, g)
    peak = np.max(rho_e.rho)
    rho, _ = imaginary_time_density(U, p, cfg)
    assert np.max(np.abs(rho.rho - rho_e.rho)) <= 1e-6 * peak
    rho_box, _ = imaginary_time_density(U, p, ImaginaryTimeConfig(
        beta_final=1.0, grid=g, n_beta_steps=256, boundary="box"))
    assert np.max(np.abs(rho_box.rho - rho_e.rho)) > 0.1 * peak


@settings(max_examples=25, deadline=2000)
@given(periodic=st.booleans(), n=st.integers(33, 65),
       a=st.floats(0.0, 1.0), c=st.floats(0.0, 0.2), d=st.floats(-1.0, 1.0),
       k=st.integers(1, 3), temperature=st.floats(0.3, 5.0))
def test_routes_agree_on_random_smooth_potentials(periodic, n, a, c, d, k,
                                                   temperature):
    # a rippled confining well a x^2 + c x^4 + d cos(kx) in a box, a cos/sin
    # mixture on a ring; N = 256 keeps rho within 5e-5 of the peak there
    # (an inverted well, which presses the density on the walls, reaches
    # 1e-3)
    if periodic:
        g = Grid1D(0.0, 2.0 * math.pi * (n - 1) / n, n, "periodic")
        u = a * np.cos(g.x) + d * np.sin(k * g.x) + c * np.cos(2.0 * g.x)
    else:
        g = Grid1D(-4.0, 4.0, n)
        u = a * g.x ** 2 + c * g.x ** 4 + d * np.cos(k * g.x)
    p = PhysicalParams.natural(temperature=temperature)
    U = PotentialSpec.tabulated(u)
    rho_e, z_e, _ = eigen_density(U, p, p.beta, g)

    def deviations(steps):
        cfg = ImaginaryTimeConfig(beta_final=p.beta, grid=g,
                                  n_beta_steps=steps, boundary=g.boundary)
        rho_it, z_it = imaginary_time_density(U, p, cfg)
        return np.max(np.abs(rho_it.rho - rho_e.rho)), abs(z_it - z_e) / z_e

    n_steps = max(256, min_beta_steps(p, g.h, p.beta))
    d_rho, d_z = deviations(n_steps)
    assert d_rho <= 1e-4 * np.max(rho_e.rho)
    assert d_z <= 1e-3
    # the Strang splitting is second order in dbeta
    if d_rho > 1e-9:
        assert 3.9 <= d_rho / deviations(2 * n_steps)[0] <= 4.1


def test_high_temperature_is_boltzmann():
    beta = 0.01
    p = PhysicalParams.natural(omega0=1.0, temperature=1.0 / beta)
    g = Grid1D(-40.0, 40.0, 513)
    U = PotentialSpec.harmonic(1.0)
    rho_e, _, _ = eigen_density(U, p, beta, g)
    boltz = DensityField(grid=g, rho=np.exp(-beta * U.energy(g, p)))
    assert np.max(np.abs(rho_e.rho - boltz.rho)) <= 1e-4 * np.max(boltz.rho)


def test_eigen_density_positive_and_truncated():
    p, g, _ = _harmonic_setup(1.0)
    U = PotentialSpec.harmonic(1.0)
    rho, _, energies = eigen_density(U, p, 1.0, g)
    assert np.all(rho.rho >= 0)
    # the tail rule keeps the states down to 1e-12 of the ground term
    assert 1 < energies.size < g.n
    assert math.exp(-(energies[-1] - energies[0])) >= 1e-12


@pytest.mark.parametrize("boundary", ["box", "periodic"])
def test_beta_sequence_shares_one_spectrum_bit_for_bit(boundary):
    # each beta keeps its own truncation: 0.05 keeps far more states than 3
    p = PhysicalParams.natural()
    g = Grid1D(-6.0, 6.0 * 95 / 96, 96, boundary)
    U = PotentialSpec.tabulated(0.5 * g.x ** 2 + 0.3 * np.cos(2.0 * g.x))
    betas = [1.0, 0.05, 3.0]
    triples = eigen_density(U, p, betas, g)
    assert len(triples) == len(betas)
    for b, (rho, z, energies) in zip(betas, triples):
        rho_1, z_1, energies_1 = eigen_density(U, p, b, g)
        assert np.array_equal(rho.rho, rho_1.rho)
        assert np.array_equal(z, z_1)
        assert np.array_equal(energies, energies_1)
        assert rho.grid == g
    assert triples[1][2].size > triples[2][2].size


@pytest.mark.parametrize("beta", [0.0, -1.0, [1.0, 0.0, 2.0],
                                  [1.0, 2.0, -0.5], [-1.0], [], [[1.0]]])
def test_eigen_density_refuses_a_non_positive_beta(beta):
    # a non-positive entry anywhere, as a non-positive scalar; no betas,
    # or a table of them, is no sequence
    p, g, _ = _harmonic_setup(1.0, n=65)
    with pytest.raises(ValueError):
        eigen_density(PotentialSpec.harmonic(1.0), p, beta, g)


# ---------------------------------------------------------------------------
# kernel by squaring against the stepped Strang loop


def _stepped_kernel(U, p, cfg):
    """Apply the Strang step n_beta_steps times, rescaling after each step."""
    g = cfg.grid
    db = cfg.beta_final / cfg.n_beta_steps
    u = U.energy(g, p)
    half_pot = np.exp(-0.5 * db * (u - u.min()))[:, None]
    kin = p.hbar ** 2 / (2.0 * p.mass * g.h ** 2)
    T = kin * (2.0 * np.eye(g.n) - np.eye(g.n, k=1) - np.eye(g.n, k=-1))
    if cfg.boundary == "periodic":
        T[0, -1] = T[-1, 0] = -kin
    lu = lu_factor(np.eye(g.n) + 0.5 * db * T)
    B = np.eye(g.n) - 0.5 * db * T
    M = np.eye(g.n)
    log_scale = -cfg.beta_final * u.min()
    for _ in range(cfg.n_beta_steps):
        M = half_pot * lu_solve(lu, B @ (half_pot * M))
        peak = np.max(np.abs(M))
        M /= peak
        log_scale += math.log(peak)
    rho = DensityField(grid=g, rho=np.maximum(np.diag(M), 0.0))
    return rho, float(np.trace(M)) * math.exp(log_scale)


@pytest.mark.parametrize("boundary, n_steps", [("box", 300), ("box", 39),
                                               ("periodic", 18)])
def test_squared_kernel_matches_stepped_loop(boundary, n_steps):
    if boundary == "box":
        p = PhysicalParams.natural(omega0=1.0, temperature=0.5)
        U, g = PotentialSpec.harmonic(1.0), Grid1D(-8.0, 8.0, 121)
    else:
        p = PhysicalParams.natural()
        g = Grid1D(0.0, 2.0 * math.pi * 31 / 32, 32, "periodic")
        U = PotentialSpec.tabulated(np.cos(g.x))
    cfg = ImaginaryTimeConfig(beta_final=p.beta, grid=g, n_beta_steps=n_steps,
                              boundary=boundary)
    rho, z = imaginary_time_density(U, p, cfg)
    rho_ref, z_ref = _stepped_kernel(U, p, cfg)
    assert np.max(np.abs(rho.rho - rho_ref.rho)) <= 1e-12 * np.max(rho_ref.rho)
    assert abs(z - z_ref) <= 1e-12 * z_ref


def test_kernel_flush_leaves_rho_and_z_bit_identical():
    # the same square-and-multiply with no flush, on criterion 5's
    # beta = 0.1 box: S^256 by 7 squarings and the diagonal of the eighth
    p, g, _ = _harmonic_setup(0.1)
    U = PotentialSpec.harmonic(1.0)
    cfg = ImaginaryTimeConfig(beta_final=0.1, grid=g, n_beta_steps=256)
    rho, z = imaginary_time_density(U, p, cfg)

    db = 0.1 / 256
    u = U.energy(g, p)
    half_pot = np.exp(-0.5 * db * (u - np.min(u)))
    half_kin = 0.5 * db * p.hbar ** 2 / (2.0 * p.mass * g.h ** 2)
    off = np.full(g.n - 1, -half_kin)
    # S = P (2 A^-1 - I) P, A = I + dbeta/2 T
    X = dgtsv(off, np.full(g.n, 1.0 + 2.0 * half_kin), off,
              np.diag(2.0 * half_pot).T)[3]
    M = half_pot[:, None] * X
    M.flat[::g.n + 1] -= half_pot ** 2
    M = 0.5 * (M + M.T)
    subnormal = []

    def unit_peak(M):
        peak = max(float(M.max()), -float(M.min()))
        M /= peak
        subnormal.append(int(np.count_nonzero(
            (M != 0.0) & (np.abs(M) < np.finfo(float).tiny))))
        return math.log(peak)

    log_m = unit_peak(M)
    for _ in range(7):
        M = M @ M.T
        log_m = 2.0 * log_m + unit_peak(M)
    assert sum(subnormal) > 0
    diag = np.einsum("ij,ji->i", M, M)
    z_ref = float(np.sum(diag)) * math.exp(2.0 * log_m
                                           - 0.1 * float(np.min(u)))
    rho_ref = DensityField(grid=g, rho=np.maximum(diag, 0.0))
    np.testing.assert_array_equal(rho.rho, rho_ref.rho)
    assert z == z_ref


def test_kernel_logs_squarings(caplog):
    p = PhysicalParams.natural(omega0=1.0, temperature=0.5)
    cfg = ImaginaryTimeConfig(beta_final=2.0, grid=Grid1D(-8.0, 8.0, 121),
                              n_beta_steps=300)
    with caplog.at_level(logging.DEBUG, logger="qbrown.equilibrium"):
        imaginary_time_density(PotentialSpec.harmonic(1.0), p, cfg)
    # 300 = 0b100101100: 8 squarings and 3 extra products
    assert ("imaginary-time kernel: 121 nodes, S^300 by 8 squarings + 3 "
            "products, final log scale" in caplog.text)


# ---------------------------------------------------------------------------
# semiclassical closed form


def test_semiclassical_harmonic_dispersion():
    # exact O(hbar^2) result for the harmonic well:
    # sigma^2 = (k_B T / m omega0^2) / (1 - (beta hbar omega0)^2 / 12)
    bho = 0.3
    p, g, _ = _harmonic_setup(bho, n=385, half_width=12.0)
    rho = semiclassical_density(PotentialSpec.harmonic(1.0), p, bho, g)
    pred = (1.0 / bho) / (1.0 - bho ** 2 / 12.0)
    assert moments(rho).dispersion == pytest.approx(pred, rel=2e-3)


def test_semiclassical_quartic_vs_eigen():
    p = PhysicalParams.natural()
    U = PotentialSpec.quartic(1.0)
    # the O(hbar^2) correction grows as x^6: stay on the core domain
    g = Grid1D(-1.5, 1.5, 301)
    s_sc = moments(semiclassical_density(U, p, 1.0, g)).dispersion
    g_wide = Grid1D(-4.0, 4.0, 513)
    rho_e, _, _ = eigen_density(U, p, 1.0, g_wide)
    s_e = moments(rho_e).dispersion
    assert abs(s_sc - s_e) / s_e <= 0.03


def test_semiclassical_hbar_zero_is_classical():
    p = PhysicalParams.natural(omega0=1.0, hbar=1e-14)
    g = Grid1D(-6.0, 6.0, 201)
    U = PotentialSpec.harmonic(1.0)
    rho = semiclassical_density(U, p, 1.0, g)
    boltz = DensityField(grid=g, rho=np.exp(-U.energy(g, p)))
    np.testing.assert_allclose(rho.rho, boltz.rho, rtol=1e-12)


# ---------------------------------------------------------------------------
# configuration guards


def test_imaginary_time_config_validation():
    g = Grid1D(-5.0, 5.0, 65)
    with pytest.raises(ValueError):
        ImaginaryTimeConfig(beta_final=0.0, grid=g)
    with pytest.raises(ValueError):
        ImaginaryTimeConfig(beta_final=1.0, grid=g, n_beta_steps=4)
    with pytest.raises(ValueError):
        ImaginaryTimeConfig(beta_final=1.0, grid=g, boundary="open")
    # params temperature must agree with beta_final
    p = PhysicalParams.natural(temperature=2.0)
    cfg = ImaginaryTimeConfig(beta_final=1.0, grid=g)
    with pytest.raises(ValueError):
        imaginary_time_density(PotentialSpec.free(), p, cfg)


def test_coarse_beta_step_is_refused():
    # x = dbeta 2 hbar^2/(m h^2) = 48.8: the top Crank-Nicolson factor
    # is -0.92 per step, and S^17 has a negative diagonal
    p = PhysicalParams.natural()
    g = Grid1D(0.0, 2.0 * math.pi * 127 / 128, 128, "periodic")
    U = PotentialSpec.tabulated(np.cos(g.x))
    assert min_beta_steps(p, g.h, 1.0) == 76
    with pytest.raises(ValueError, match=r"x = .* = 48\.8 > 2.*2\.48e-01; "
                                         r"use n_beta_steps >= 76"):
        imaginary_time_density(U, p, ImaginaryTimeConfig(
            beta_final=1.0, grid=g, n_beta_steps=17, boundary="periodic"))
    rho, _ = imaginary_time_density(U, p, ImaginaryTimeConfig(
        beta_final=1.0, grid=g, n_beta_steps=76, boundary="periodic"))
    assert np.min(rho.rho) > 0.0
    # S^18 on the ring and S^16 in the harmonic box keep a positive
    # diagonal but miss the converged density by up to 5% and 1%
    with pytest.raises(ValueError, match=r"use n_beta_steps >= 76"):
        imaginary_time_density(U, p, ImaginaryTimeConfig(
            beta_final=1.0, grid=g, n_beta_steps=18, boundary="periodic"))
    p = PhysicalParams.natural(omega0=1.0, temperature=0.5)
    g = Grid1D(-8.0, 8.0, 121)
    with pytest.raises(ValueError, match=r"use n_beta_steps >= 39"):
        imaginary_time_density(PotentialSpec.harmonic(1.0), p,
                               ImaginaryTimeConfig(beta_final=2.0, grid=g,
                                                   n_beta_steps=16))


def test_periodic_free_particle_is_uniform():
    p = PhysicalParams.natural()
    g = Grid1D(0.0, 10.0 * 63 / 64, 64, "periodic")
    cfg = ImaginaryTimeConfig(beta_final=1.0, grid=g, n_beta_steps=64,
                              boundary="periodic")
    rho, _ = imaginary_time_density(PotentialSpec.free(), p, cfg)
    np.testing.assert_allclose(rho.rho, 0.1, atol=1e-12)


# ---------------------------------------------------------------------------
# quantum entropy


def test_quantum_entropy_uniform_is_zero():
    g = Grid1D(-5.0, 5.0, 101)
    fields = [DensityField.uniform(g) for _ in range(5)]
    s = quantum_entropy(fields, PhysicalParams.natural(),
                        np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(s, 0.0, atol=1e-10)


def test_quantum_entropy_is_the_trapezoid_on_uneven_nodes():
    # S_Q = k_B (beta Q(beta) - int_0^beta Q dbeta'), the integral by the
    # trapezoid rule over the beta nodes
    p = PhysicalParams.natural(k_B=2.0, hbar=0.7)
    g = Grid1D(-6.0, 6.0, 121)
    nodes = np.array([0.0, 0.05, 0.3, 0.35, 1.1, 2.0])
    fields = [DensityField.uniform(g)] + [
        DensityField.gaussian(g, 0.2 * b, 0.5 + b) for b in nodes[1:]]
    q = np.array([quantum_potential(f, p) for f in fields])
    want = 2.0 * (2.0 * q[-1] - trapezoid(q, nodes, axis=0))
    np.testing.assert_allclose(quantum_entropy(fields, p, nodes), want,
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


_G = Grid1D(-5.0, 5.0, 65)
_FIELDS = [DensityField.uniform(_G), DensityField.gaussian(_G, 0.0, 2.0),
           DensityField.gaussian(_G, 0.0, 1.0)]


@pytest.mark.parametrize("build, match", [
    (lambda: semiclassical_density(PotentialSpec.free(), NAT, 0.0, _G),
     "beta must be positive"),
    (lambda: semiclassical_density(PotentialSpec.free(), NAT, -1.0, _G),
     "beta must be positive"),
    (lambda: quantum_entropy(_FIELDS[:1], NAT, [0.0]),
     "need at least two beta nodes"),
    (lambda: quantum_entropy(_FIELDS, NAT, [0.0, 1.0]),
     "beta_nodes length must match the field list"),
    (lambda: quantum_entropy(_FIELDS, NAT, [0.5, 0.75, 1.0]),
     "beta_nodes must increase from 0"),
    (lambda: quantum_entropy(_FIELDS, NAT, [0.0, 1.0, 0.5]),
     "beta_nodes must increase from 0"),
], ids=["semiclassical-zero-beta", "semiclassical-negative-beta",
        "entropy-one-node", "entropy-node-count", "entropy-not-from-zero",
        "entropy-not-increasing"])
def test_equilibrium_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_quantum_entropy_grid_mismatch():
    fields = [DensityField.uniform(Grid1D(-5.0, 5.0, 101)),
              DensityField.uniform(Grid1D(-4.0, 4.0, 101))]
    with pytest.raises(GridMismatchError):
        quantum_entropy(fields, PhysicalParams.natural(), [0.0, 1.0])


def test_quantum_entropy_vanishes_classically():
    # coth-Gaussian harmonic family: the density-weighted mean entropy
    # shrinks with beta hbar omega0
    p = PhysicalParams.natural(omega0=1.0)
    g = Grid1D(-15.0, 15.0, 601)

    def mean_entropy(beta):
        nodes = np.linspace(0.0, beta, 17)
        fields = [DensityField.uniform(g)]
        for b in nodes[1:]:
            s2 = 0.5 * coth(b / 2.0)
            fields.append(DensityField.gaussian(g, 0.0, s2))
        s = quantum_entropy(fields, p, nodes)
        rho = fields[-1].rho
        trapz = getattr(np, "trapezoid", None) or np.trapz
        return abs(float(trapz(s * rho, g.x)))

    assert mean_entropy(0.05) < 1e-3
    assert mean_entropy(0.05) < mean_entropy(2.0)
