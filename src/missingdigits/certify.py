"""Certificates tying dimension bounds to projection-theorem thresholds.

For a measure on R^n with l1 Fourier dimension above n - 1/p, radial
projections from any viewpoint off the support are absolutely
continuous with an L^p density on the sphere; above n - 1, linear
projections carry a continuous density.  Both hypotheses are decided
here by comparing a rigorous lower bound for dim_l1 (the best of the
grid, crude and rectangle methods, summed over factors) against the
threshold.

Everything reduces to log-arithmetic on the digit configuration, so the
flagship parameter scales -- bases like 10^10000 with interval digit
sets of comparable size -- certify in well under a second through the
same code path as desk-scale examples.  The named presets rebuild those
parameter sets exactly:

    theorem-a              two factors base 10^10000, digits 1..10^8000,
                           radial L^2 threshold 3/2
    theorem-b              base 10^10000, digits 1..10^5005 paired with
                           base 11^10000, digits 1..11^5005, linear
                           threshold 1
    theorem-b-homogeneous  the first theorem-b factor squared

Strict inequality is required throughout: a certificate needs margin
strictly above zero, produced by a rigorous bound, with no outstanding
side conditions.
"""

from __future__ import annotations

import enum
import json

from .budget import PRESET_NAMES, EvalBudget
from .dimension import DimensionBound, best_lower_bound
from .errors import ConfigError
from .measure import BasePower, Spec, interval_spec, product, square, total_dim
from .value import Value


class Theorem(enum.Enum):
    RADIAL_LP = "RadialLp"
    LINEAR_CONTINUOUS = "LinearContinuous"
    THEOREM_A = "TheoremA"
    THEOREM_B = "TheoremB"


class Verdict(enum.Enum):
    CERTIFIED = "Certified"
    NOT_CERTIFIED = "NotCertified"
    INCONCLUSIVE = "Inconclusive"


class CertificateReport(Value):
    """Outcome of one hypothesis check.

    Certified requires all three of: margin strictly positive, a
    rigorous bound, and no side conditions left open.  A positive
    margin from a non-rigorous bound, or an open side condition, is
    Inconclusive; a nonpositive margin is NotCertified."""

    _fields = ("theorem", "threshold", "bound_used", "margin", "verdict", "p_exp",
               "side_conditions")

    def __init__(self, theorem: Theorem, threshold: float, bound_used: DimensionBound,
                 margin: float, verdict: Verdict, p_exp: int | None = None,
                 side_conditions: tuple = ()):
        self._set(theorem=theorem, threshold=threshold, bound_used=bound_used, margin=margin,
                  verdict=verdict, p_exp=p_exp, side_conditions=side_conditions)

    def as_dict(self) -> dict:
        """The report as plain JSON values."""
        return {
            "theorem": self.theorem.value,
            "p_exp": self.p_exp,
            "threshold": self.threshold,
            "bound": self.bound_used.value,
            "bound_kind": self.bound_used.kind.value,
            "bound_rigorous": self.bound_used.rigorous,
            "margin": self.margin,
            "verdict": self.verdict.value,
            "side_conditions": list(self.side_conditions),
        }

    def to_json(self) -> str:
        """Deterministic serialization: identical reports give
        identical bytes."""
        return json.dumps(self.as_dict(), sort_keys=True)


def _decide(margin: float, bound: DimensionBound, side_conditions: tuple) -> Verdict:
    if side_conditions:
        return Verdict.INCONCLUSIVE
    if margin <= 0.0:
        return Verdict.NOT_CERTIFIED
    return Verdict.CERTIFIED if bound.rigorous else Verdict.INCONCLUSIVE


def _certified_report(bound: DimensionBound, threshold: float, theorem: Theorem,
                      p_exp: int | None, side_conditions: tuple) -> CertificateReport:
    margin = bound.value - threshold
    return CertificateReport(
        theorem=theorem,
        threshold=threshold,
        bound_used=bound,
        margin=margin,
        verdict=_decide(margin, bound, side_conditions),
        p_exp=p_exp,
        side_conditions=side_conditions,
    )


def certify_radial_Lp(spec: Spec, p_exp: int,
                      budget: EvalBudget | None = None) -> CertificateReport:
    """Certificate for: radial projections of the measure have a
    density in L^p of the sphere, threshold dim_l1 > n - 1/p_exp.

    The p_exp = 1 statement carries an extra hypothesis (the radial
    image must have full dimension n - 1) that no bound computed here
    can discharge, so that case always reports Inconclusive, with the
    dim_l1 > n - 1 part of the check recorded as a side condition."""
    if int(p_exp) != p_exp or p_exp < 1:
        raise ConfigError("p_exp must be an integer >= 1")
    n = total_dim(spec)
    threshold = n - 1.0 / p_exp
    bound = best_lower_bound(spec, budget=budget)
    side = ()
    if p_exp == 1:
        part = "passes" if bound.value > threshold else "fails"
        side = (
            "L^1 radial density additionally requires the radial image "
            "to have full dimension n-1, which is not computable here",
            f"dim_l1 > n-1 check {part} with bound {bound.value!r}",
        )
    return _certified_report(bound, threshold, Theorem.RADIAL_LP, int(p_exp), side)


def certify_linear(spec: Spec, budget: EvalBudget | None = None) -> CertificateReport:
    """Certificate for: linear projections of the measure are
    absolutely continuous with a continuous density, threshold
    dim_l1 > n - 1."""
    n = total_dim(spec)
    bound = best_lower_bound(spec, budget=budget)
    return _certified_report(bound, n - 1.0, Theorem.LINEAR_CONTINUOUS, None, ())


# ------------------------------------------------------------------ presets


def _theorem_a_spec() -> Spec:
    factor = interval_spec(BasePower(10, 10000), 1, BasePower(10, 8000))
    return square(factor)


def _theorem_b_factors():
    lam1 = interval_spec(BasePower(10, 10000), 1, BasePower(10, 5005))
    lam2 = interval_spec(BasePower(11, 10000), 1, BasePower(11, 5005))
    return lam1, lam2


def preset(name: str, budget: EvalBudget | None = None):
    """Build a named flagship parameter set and certify it; returns
    (spec, CertificateReport).  Theorem A is the radial L^2 check,
    Theorem B the linear one."""
    if name == "theorem-a":
        spec, theorem = _theorem_a_spec(), Theorem.THEOREM_A
        report = certify_radial_Lp(spec, 2, budget)
    elif name in ("theorem-b", "theorem-b-homogeneous"):
        lam1, lam2 = _theorem_b_factors()
        spec, theorem = product(lam1, lam2 if name == "theorem-b" else lam1), Theorem.THEOREM_B
        report = certify_linear(spec, budget)
    else:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return spec, _certified_report(report.bound_used, report.threshold, theorem, report.p_exp,
                                   report.side_conditions)
