"""Missing-digits measures: digit-restricted self-similar measures on
[0,1]^n, their Fourier decay and dimension bounds, densities of their
radial and linear projections, and enumeration of integers with digit
restrictions in several bases.

The public names resolve lazily (PEP 562): `missingdigits.sup_f` imports
`dimension` on first use, so a process imports only the modules whose
names it touches, and numpy only with the first module that needs it.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module
_NAMES = {
    "budget": ("DEFAULT_BUDGET", "EvalBudget"),
    "certify": ("CertificateReport", "Theorem", "Verdict", "certify_linear",
                "certify_radial_Lp", "preset"),
    "cylinders": ("cylinder_mass", "ray_tube_masses"),
    "dimension": ("BoundKind", "DimensionBound", "best_lower_bound", "crude_bound", "f_theta",
                  "grid_lower_bound", "rectangle_bound", "sup_f"),
    "errors": ("BudgetExceededError", "ConfigError", "SymbolicBaseError"),
    "fourier": ("digit_symbol", "fourier_transform_batch", "truncation_depth"),
    "graham": ("Restriction", "RestrictionSystem", "density_report", "digits_ok",
               "enumerate_restricted", "enumerate_scaled", "parse_system", "system"),
    "measure": ("BasePower", "DigitInterval", "ExplicitDigits", "MissingDigitsSpec",
                "ProductMeasureSpec", "Spec", "explicit_spec", "hausdorff_dim",
                "interval_spec", "lebesgue_spec", "parse_spec", "product", "sample", "square",
                "total_dim"),
    "projection": ("DensityProfile", "LatticeDiagnostics", "ProfileAxis", "ProfileMethod",
                   "exceptional_directions", "linear_density", "linear_density_mc",
                   "lp_criterion_integral", "radial_density_mc", "radial_tube_profile",
                   "slab_integral", "stripe_scan"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
