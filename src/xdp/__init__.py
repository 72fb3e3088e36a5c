"""Approximation distances, zero census, and orthogonal-system lower bounds
for Dirichlet polynomials at arbitrary precision."""

from .acceptance import AcceptanceResult, run_acceptance
from .cache import cache_gc, load_gram, store_gram
from .config import (DEFAULT_SCHEDULE, ExperimentConfig, config_from_json,
                     geometric_schedule, load_config, parse_rect,
                     parse_schedule)
from .distance import (DistanceResult, GramSystem, approximant_distance,
                       distance_profile, distance_squared, gram_system,
                       mellin_identity_residual)
from .dpcore import (DirichletPolynomial, InverseCoeffs, KappaProfile,
                     StripBounds, dp_eval, inverse_coeffs,
                     kappa_partial_sums, strip_bounds)
from .errors import (ContourTooClose, DuplicateOrdinates, NonConvergent,
                     NSingular, PrecisionExhausted, QuadratureNotConverged,
                     XdpError)
from .exact import GaussianRational, as_fraction
from .experiments import (CriterionReport, DecayFit, SweepRow,
                          run_criterion_report, run_decay_fit,
                          run_distance_sweep)
from .linalg import LDLFactors, LDLProfile, ldl_factor, ldl_profile, ldl_solve
from .lubinsky import (KernelAsymptoticsRow, KernelMatrix, MinNormSolution,
                       kernel, kernel_asymptotics_report, kernel_matrix,
                       min_norm, psi_eval, psi_inner, psi_inner_max_deviation)
from .precision import (DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS,
                        get_default_precision, set_default_precision)
from .zeros import (ConstantC, Rectangle, ZeroSet, constant_C, find_zeros,
                    winding_count, zeros_on_line)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceResult", "run_acceptance",
    "cache_gc", "load_gram", "store_gram",
    "DEFAULT_SCHEDULE", "ExperimentConfig", "config_from_json",
    "geometric_schedule", "load_config", "parse_rect", "parse_schedule",
    "DistanceResult", "GramSystem", "approximant_distance", "distance_profile",
    "distance_squared", "gram_system", "mellin_identity_residual",
    "DirichletPolynomial", "InverseCoeffs", "KappaProfile", "StripBounds",
    "dp_eval", "inverse_coeffs", "kappa_partial_sums", "strip_bounds",
    "ContourTooClose", "DuplicateOrdinates", "NonConvergent",
    "NSingular", "PrecisionExhausted", "QuadratureNotConverged", "XdpError",
    "GaussianRational", "as_fraction",
    "CriterionReport", "DecayFit", "SweepRow", "run_criterion_report",
    "run_decay_fit", "run_distance_sweep",
    "LDLFactors", "LDLProfile", "ldl_factor", "ldl_profile", "ldl_solve",
    "KernelAsymptoticsRow", "KernelMatrix", "MinNormSolution", "kernel",
    "kernel_asymptotics_report", "kernel_matrix", "min_norm", "psi_eval",
    "psi_inner", "psi_inner_max_deviation",
    "DEFAULT_PRECISION_BITS", "MIN_PRECISION_BITS", "get_default_precision",
    "set_default_precision",
    "ConstantC", "Rectangle", "ZeroSet", "constant_C", "find_zeros",
    "winding_count", "zeros_on_line",
]
