"""Smooth-particle solvers for the 1D space-fractional diffusion equation

    du/dt = D^alpha u,   1 < alpha < 2,

on an unbounded domain, with four schemes for the fractional diffusion term
(direct differentiation, flux PSE, regularized-Riesz PSE, Green's-function
PSE), explicit RK time integration, spectral stability analysis, and the
error/convergence harness to study them.
"""

__version__ = "0.1.0"

from .errors import (AccuracyError, ConfigError, DomainError, FracdiffError,
                     InstabilityError)
from .greens import (FractionalOrder, characteristic_width, green_function,
                     reduced_green)
from .specfun import s_combo, t_combo
from .kernels import (ODD_KINDS, KernelKind, eta1, kernel_f, kernel_gd, kernel_k,
                      kernel_kappa, scaled)
from .field import ParticleField, init_uniform, total_strength
from .schemes import SchemeKind, make_rate_operator
from .timeint import (IntegratorSpec, RKOrder, StabilityReport, integrate,
                      make_gpse_stepper, power_iteration_min_eig)
from .analysis import conservation_drift, rel_l1_error, self_convergence_order
from .experiments import ExperimentConfig, StudyKind, parse_config, run
