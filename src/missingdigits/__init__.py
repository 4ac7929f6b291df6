"""Missing-digits measures: digit-restricted self-similar measures on
[0,1]^n, their Fourier decay and dimension bounds, densities of their
radial and linear projections, and enumeration of integers with digit
restrictions in several bases."""

from .budget import DEFAULT_BUDGET, EvalBudget
from .certify import (CertificateReport, Theorem, Verdict, certify_linear,
                      certify_radial_Lp, preset)
from .cylinders import cylinder_mass, ray_tube_masses
from .dimension import (BoundKind, DimensionBound, best_lower_bound,
                        crude_bound, f_theta, grid_lower_bound,
                        partial_sum_S_k, rectangle_bound, sup_f)
from .errors import BudgetExceededError, ConfigError, SymbolicBaseError
from .fourier import (digit_symbol, fourier_oracle, fourier_transform,
                      fourier_transform_batch, truncation_depth)
from .graham import (Restriction, RestrictionSystem, density_report,
                     digits_ok, enumerate_restricted, enumerate_scaled,
                     parse_system, system)
from .measure import (BasePower, DigitInterval, ExplicitDigits,
                      MissingDigitsSpec, ProductMeasureSpec, Spec,
                      explicit_spec, hausdorff_dim, interval_spec,
                      lebesgue_spec, parse_spec, product, sample, square,
                      total_dim)
from .projection import (DensityProfile, LatticeDiagnostics, ProfileAxis,
                         ProfileMethod, exceptional_directions,
                         linear_density, linear_density_mc,
                         lp_criterion_integral, radial_density_mc,
                         radial_l2_norm, radial_tube_profile, slab_integral,
                         stripe_integral, stripe_scan, tube_mass_mc)

__version__ = "0.1.0"

__all__ = [
    "BasePower", "BoundKind", "BudgetExceededError",
    "CertificateReport", "ConfigError", "DEFAULT_BUDGET", "DensityProfile",
    "DigitInterval", "DimensionBound", "EvalBudget", "ExplicitDigits",
    "LatticeDiagnostics", "MissingDigitsSpec", "ProductMeasureSpec",
    "ProfileAxis", "ProfileMethod", "Restriction", "RestrictionSystem",
    "Spec", "SymbolicBaseError", "Theorem", "Verdict",
    "best_lower_bound", "certify_linear", "certify_radial_Lp",
    "crude_bound", "cylinder_mass", "density_report", "digit_symbol",
    "digits_ok", "enumerate_restricted", "enumerate_scaled",
    "exceptional_directions", "explicit_spec", "f_theta", "fourier_oracle",
    "fourier_transform", "fourier_transform_batch", "grid_lower_bound",
    "hausdorff_dim", "interval_spec", "lebesgue_spec",
    "linear_density", "linear_density_mc", "lp_criterion_integral",
    "parse_spec", "parse_system", "partial_sum_S_k", "preset", "product",
    "radial_density_mc", "radial_l2_norm", "radial_tube_profile",
    "ray_tube_masses", "rectangle_bound",
    "sample", "slab_integral", "square", "stripe_integral", "stripe_scan",
    "sup_f", "system", "total_dim", "truncation_depth", "tube_mass_mc",
]
