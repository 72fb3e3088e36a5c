"""Approximation distances, zero census, and orthogonal-system lower bounds
for Dirichlet polynomials at arbitrary precision."""

from .acceptance import AcceptanceResult, run_acceptance
from .cache import cache_gc, load_gram, store_gram
from .config import (DEFAULT_SCHEDULE, ExperimentConfig, config_from_json,
                     geometric_schedule, load_config, parse_rect,
                     parse_schedule)
from .distance import (DistanceResult, distance_profile, distance_squared,
                       mellin_identity_residual)
from .dpcore import (DirichletPolynomial, KappaProfile, StripBounds, dp_eval,
                     kappa_partial_sums, strip_bounds)
from .errors import (ContourTooClose, DuplicateOrdinates, NonConvergent,
                     NSingular, PrecisionExhausted, QuadratureNotConverged,
                     RemainderNotProven, XdpError)
from .exact import GaussianRational, as_fraction
from .experiments import (CriterionReport, DecayFit, SweepRow,
                          run_criterion_report, run_decay_fit,
                          run_distance_sweep)
from .linalg import LDLProfile, ldl_profile
from .lubinsky import (KernelAsymptoticsRow, KernelMatrix, MinNormSolution,
                       kernel, kernel_asymptotics_report, kernel_matrix,
                       min_norm, psi_inner, psi_inner_max_deviation)
from .precision import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .zeros import (ConstantC, Rectangle, ZeroSet, constant_C, find_zeros,
                    winding_count)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceResult", "run_acceptance",
    "cache_gc", "load_gram", "store_gram",
    "DEFAULT_SCHEDULE", "ExperimentConfig", "config_from_json",
    "geometric_schedule", "load_config", "parse_rect", "parse_schedule",
    "DistanceResult", "distance_profile", "distance_squared",
    "mellin_identity_residual",
    "DirichletPolynomial", "KappaProfile", "StripBounds", "dp_eval",
    "kappa_partial_sums", "strip_bounds",
    "ContourTooClose", "DuplicateOrdinates", "NonConvergent",
    "NSingular", "PrecisionExhausted", "QuadratureNotConverged",
    "RemainderNotProven", "XdpError",
    "GaussianRational", "as_fraction",
    "CriterionReport", "DecayFit", "SweepRow", "run_criterion_report",
    "run_decay_fit", "run_distance_sweep",
    "LDLProfile", "ldl_profile",
    "KernelAsymptoticsRow", "KernelMatrix", "MinNormSolution", "kernel",
    "kernel_asymptotics_report", "kernel_matrix", "min_norm", "psi_inner",
    "psi_inner_max_deviation",
    "DEFAULT_PRECISION_BITS", "MIN_PRECISION_BITS",
    "ConstantC", "Rectangle", "ZeroSet", "constant_C", "find_zeros",
    "winding_count",
]
