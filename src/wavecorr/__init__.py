"""Spectral simulation and mode-covariance statistics for weakly nonlinear
random dispersive waves (KdV, BBM, KP-I, KP-II) on the torus."""

from .covariance import CovarianceReport, compare_prediction, g_table, mc_covariance
from .dispersion import (
    BBM, KDV, KPI, KPII, MODELS, DispersionModel, delta_exact, enumerate_triads,
    get_model, omega_exact,
)
from .field import (
    SpectralField, apply_semigroup, coefficient, field_from_modes, full_array,
    sobolev_norm,
)
from .kernels import f_kernel, tilde_f_kernel
from .picard import (
    decompose, first_iterate_closed_form, first_iterate_quadrature,
    remainder_growth_scan,
)
from .sampling import (
    EnsembleConfig, NoiseLaw, SpectrumProfile, build_spectrum, complex_gaussian,
    moment_report, random_phase, sample_initial_field, tail_report,
)
from .solver import (
    SolverBlowUp, conserved_functional, dealiased_square, evolve_array,
    interaction_rhs,
)

__version__ = "0.1.0"
