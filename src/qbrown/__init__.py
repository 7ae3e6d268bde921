"""Numerical toolkit for nonlinear quantum Brownian motion.

Dispersion-dynamics ODE models with their closed-form solutions,
telegraph/Smoluchowski density PDEs with the Bohm quantum potential,
and equilibrium densities from imaginary-time propagation.
"""

from .params import (DerivedScales, PhysicalParams, ScalesUndefinedError,
                     derived_scales, momentum_dispersion)
from .numerics import ConvergenceError, coth, lambert_w_minus1, solve_ode
from .dispersion import (BetaGridFunction, ClosedForm, DispersionTrajectory,
                         ModelCompatibilityError, compare_models,
                         eval_closed_form, make_beta_grid,
                         solve_harmonic, solve_inertial_zero_T,
                         solve_overdamped_bounded, solve_overdamped_full,
                         stationary_harmonic_dispersion)
from .pde import (DensityField, Grid1D, PdeModel, PotentialSpec,
                  effective_potential, evolve, moments, quantum_potential)
from .equilibrium import (ImaginaryTimeConfig, eigen_density,
                          imaginary_time_density, quantum_entropy,
                          semiclassical_density)

__version__ = "0.1.0"
