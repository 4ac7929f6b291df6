"""Lower bounds for the l1-average Fourier dimension.

The l1 dimension of a measure is the largest s such that shifted
lattice sums of |lambda_hat| over balls of radius R grow like
R^(n - s).  For missing-digits measures everything reduces to the
periodized digit symbol

    f(theta) = sum_{i in {0..p-1}^n} |g((i + theta) / p)|,

because one period of p^k lattice residues per axis telescopes through
k digit levels:

    sup_theta sum_{xi in [0, p^k)^n} |lambda_hat(xi + theta)| <= (sup f)^k.

The symmetric window |xi|_inf < p^k is covered by 2^n such periods
(per axis, [-p^k + 1, 0] and [1, p^k - 1]), so it obeys
2^n * (sup f)^k.  Consequently

    dim_l1 >= n - log(sup f) / log p,

and any certified upper bound for sup f gives a rigorous dimension
bound.  Since sum_i |g((i+theta)/p)|^2 = p^n / #D pointwise, f >= 1 and
the bound never exceeds log(#D)/log(p), the Hausdorff dimension.

Two closed-form relatives need no grid: for #D = p^n - t,

    crude:     n - log[(t p^n + (2 p log p)^n) / (p^n - t)] / log p,

valid for p >= 4, and for digit sets that are products of integer
intervals the sharper

    rectangle: dim_H - n * log(2 log p) / log p.

Both are pure log-arithmetic, so they apply to symbolic bases like
10^10000.  All logs are natural.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .budget import EvalBudget, ensure_budget
from .errors import ConfigError, SymbolicBaseError
from .fourier import (box_blocks, fourier_transform_batch, gather_points, lattice_rows,
                      symbol_modulus)
from .measure import DigitInterval, MissingDigitsSpec, Spec, as_product


class BoundKind(enum.Enum):
    GRID_SUP = "GridSup"
    CRUDE = "Crude"
    RECTANGLE = "Rectangle"
    PRODUCT_SUM = "ProductSum"


@dataclass(frozen=True)
class DimensionBound:
    """A dimension value with provenance: how it was computed and
    whether it is backed by a certificate (rigorous) or is merely an
    estimate."""

    value: float
    kind: BoundKind
    rigorous: bool

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("dimension bound must be finite")


def _clamp(value: float, ambient: float) -> float:
    return min(max(value, 0.0), float(ambient))


# ---------------------------------------------------------------- f(theta)


# Entries per temporary array in f_theta: thetas x residues, times #D
# for explicit digit sets.  sup_f walks its theta grid in blocks of as
# many thetas.
F_THETA_BLOCK = 1 << 20

# Largest residue grid p^n that f_theta accepts.
_RESIDUE_CAP = 100_000_000


def _residue_terms(factor: MissingDigitsSpec) -> tuple[int, int]:
    """(p^n, terms per residue) of f(theta): 1 for interval digit sets,
    #D for explicit ones.  SymbolicBaseError when the residue grid
    cannot be enumerated."""
    if not factor.is_enumerable():
        raise SymbolicBaseError("f(theta) needs an enumerable factor")
    p, n = factor.p_int(), factor.ambient_dim
    if p ** n > _RESIDUE_CAP:
        raise SymbolicBaseError(f"residue grid {p}^{n} is too large")
    return p ** n, 1 if isinstance(factor.digits, DigitInterval) else factor.digit_count()


def f_theta(factor: MissingDigitsSpec, thetas, budget: EvalBudget | None = None) -> np.ndarray:
    """f(theta) = sum_i |g((i+theta)/p)| over the full residue grid
    i in {0..p-1}^n; thetas has shape (K, n) (or (K,) when n = 1).

    Interval digit sets sum the Dirichlet modulus
    |sin(pi N eta) / (N sin(pi eta))| with no complex phase; explicit
    digit sets average their #D digit exponentials.  The whole call is
    charged up front as "f(theta) residues": one cell per residue term
    for interval sets (K p^n) and one per digit term for explicit sets
    (K p^n #D).  Thetas and residues are taken in blocks of about
    F_THETA_BLOCK entries (counting #D for explicit sets), so memory
    stays bounded whatever K and p^n are.
    """
    size, terms = _residue_terms(factor)
    thetas = np.asarray(thetas, dtype=np.float64)
    n = factor.ambient_dim
    if n == 1 and (thetas.ndim < 2 or thetas.shape[-1] != 1):
        thetas = thetas.reshape(-1, 1)
    elif thetas.ndim == 1:
        thetas = thetas[None, :]
    p = factor.p_int()
    count = thetas.shape[0]
    ensure_budget(budget).charge(count * size * terms, "f(theta) residues")
    cols = min(size, max(1, F_THETA_BLOCK // terms))
    rows = max(1, F_THETA_BLOCK // (cols * terms))
    out = np.zeros(count, dtype=np.float64)
    for r0 in range(0, count, rows):
        block = thetas[r0: r0 + rows]
        for c0 in range(0, size, cols):
            part = lattice_rows(p, n, c0, min(size, c0 + cols))
            eta = (block[:, None, :] + part[None, :, :]) / p
            out[r0: r0 + rows] += symbol_modulus(factor, eta).sum(axis=1)
    return out


def lipschitz_f(factor: MissingDigitsSpec) -> float:
    """Upper bound for the Lipschitz constant of f: each of the p^n
    terms moves at most 2 pi M / p per unit of theta."""
    p = factor.p_int()
    return p ** factor.ambient_dim * 2.0 * math.pi * factor.max_digit_norm() / p


@dataclass(frozen=True)
class SupF:
    """Grid maximum of f with a Lipschitz-certified upper bound."""

    sup_estimate: float
    certified_upper: float
    argmax: tuple
    grid_step: float
    lipschitz: float


def sup_f(
    factor: MissingDigitsSpec,
    h: float = 1e-4,
    budget: EvalBudget | None = None,
) -> SupF:
    """Maximize f over the period cube [0,1]^n on a step-h grid.

    certified_upper = grid max + L * h * sqrt(n) / 2 dominates the true
    sup because no point of the cube is farther than h sqrt(n)/2 from
    the grid; sup_estimate and argmax are the grid max and its theta.
    Each axis holds the m points of np.arange(0, 1 + h/2, h), and the
    m^n grid is walked in blocks of F_THETA_BLOCK thetas.  A grid the
    budget cannot pay for is refused before any block is built.
    """
    if not (0 < h <= 0.5):
        raise ValueError("grid step must be in (0, 1/2]")
    n = factor.ambient_dim
    bud = ensure_budget(budget)
    size, terms = _residue_terms(factor)
    m = math.ceil((1.0 + h / 2) / h)
    count = m ** n
    bud.check(count * size * terms, "f(theta) residues")
    best, arg = -math.inf, None
    for start in range(0, count, F_THETA_BLOCK):
        # index * h is bit for bit the value np.arange gives at index
        thetas = lattice_rows(m, n, start, min(count, start + F_THETA_BLOCK)) * h
        vals = f_theta(factor, thetas, bud)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, arg = float(vals[i]), thetas[i]
    lip = lipschitz_f(factor)
    return SupF(
        sup_estimate=best,
        certified_upper=best + lip * h * math.sqrt(n) / 2.0,
        argmax=tuple(float(a) for a in arg),
        grid_step=float(h),
        lipschitz=float(lip),
    )


# ---------------------------------------------------------------- bounds
#
# Each method has a per-factor kernel; product_bound adds up a spec's
# factors.


def grid_lower_bound(spec: Spec, budget: EvalBudget | None = None) -> DimensionBound:
    """dim_l1 >= sum over factors of n_f - log(certified sup f)/log p_f,
    sup f from sup_f's default grid."""
    bud = ensure_budget(budget)
    return product_bound(_grid_factor(f, bud) for f in as_product(spec).factors)


def _grid_factor(factor: MissingDigitsSpec, budget: EvalBudget) -> DimensionBound:
    sup = sup_f(factor, budget=budget)
    raw = factor.ambient_dim - math.log(sup.certified_upper) / factor.log_base()
    return DimensionBound(_clamp(raw, factor.ambient_dim), BoundKind.GRID_SUP, rigorous=True)


def crude_bound(spec: Spec) -> DimensionBound:
    """Closed-form bound from #D = p^n - t; needs p >= 4.  Pure
    log-arithmetic, hence available for symbolic bases."""
    return product_bound(_crude_factor(f) for f in as_product(spec).factors)


def _crude_factor(factor: MissingDigitsSpec) -> DimensionBound:
    log_p = factor.log_base()
    if log_p < math.log(4.0) - 1e-12:
        raise ValueError("crude bound requires base >= 4")
    n = factor.ambient_dim
    log_card = factor.log_digit_count()
    log_pn = n * log_p
    if factor.is_enumerable():
        # Exact t = p^n - #D: rebuilding it from the two logs cancels
        # catastrophically once #D/p^n is within ~1e-12 of 1.
        t = factor.p_int() ** n - factor.digit_count()
        log_t = math.log(t) if t else -math.inf
    else:
        # t in log space; ratio < 1 unless the digit set is full.
        ratio = math.exp(min(log_card - log_pn, 0.0))
        if ratio >= 1.0 - 1e-15:
            log_t = -math.inf  # full digit set, t = 0
        else:
            log_t = log_pn + math.log1p(-ratio)
    term_a = log_t + log_pn
    term_b = n * (math.log(2.0) + log_p + math.log(log_p))
    log_num = np.logaddexp(term_a, term_b)
    raw = n - (log_num - log_card) / log_p
    return DimensionBound(_clamp(raw, n), BoundKind.CRUDE, rigorous=True)


def rectangle_bound(spec: Spec) -> DimensionBound:
    """dim_H - n log(2 log p)/log p for digit sets that are products of
    integer intervals; needs p >= 4.  Pure log-arithmetic."""
    return product_bound(_rectangle_factor(f) for f in as_product(spec).factors)


def _rectangle_factor(factor: MissingDigitsSpec) -> DimensionBound:
    if not factor.digits.is_rectangle():
        raise ValueError("rectangle bound needs a rectangle digit set")
    log_p = factor.log_base()
    if log_p < math.log(4.0) - 1e-12:
        raise ValueError("rectangle bound requires base >= 4")
    n = factor.ambient_dim
    penalty = n * math.log(2.0 * log_p) / log_p
    return DimensionBound(_clamp(factor.hausdorff_dim() - penalty, n), BoundKind.RECTANGLE,
                          rigorous=True)


def product_bound(parts) -> DimensionBound:
    """Sum of factor bounds, rigorous only when every part is; a single
    part is returned as it is."""
    parts = list(parts)
    if not parts:
        raise ValueError("product bound needs at least one part")
    if len(parts) == 1:
        return parts[0]
    return DimensionBound(sum(p.value for p in parts), BoundKind.PRODUCT_SUM,
                          rigorous=all(p.rigorous for p in parts))


def _applicable(compute):
    """compute(), or None where the method does not apply."""
    try:
        return compute()
    except ValueError:  # includes SymbolicBaseError
        return None


def factor_candidates(spec: Spec, budget: EvalBudget | None = None) -> list:
    """Every method's bound for every factor: one (factor, {method:
    DimensionBound, or None where the method does not apply}) pair per
    factor, in factor order.

    Each distinct factor is evaluated once per call, so both halves of
    square(f) share one grid pass; nothing is kept between calls.
    """
    bud = ensure_budget(budget)
    factors = as_product(spec).factors
    per = {}
    for factor in factors:
        if factor not in per:
            per[factor] = {
                "grid": _applicable(lambda: grid_lower_bound(factor, bud)),
                "crude": _applicable(lambda: _crude_factor(factor)),
                "rectangle": _applicable(lambda: _rectangle_factor(factor)),
            }
    return [(factor, per[factor]) for factor in factors]


def best_of_candidates(candidates) -> DimensionBound:
    """The largest bound per factor of factor_candidates' output,
    summed over factors; ConfigError when no method applies to a
    factor."""
    parts = []
    for factor, per in candidates:
        found = sorted((b for b in per.values() if b is not None), key=lambda b: b.value)
        if not found:
            raise ConfigError(f"no dimension bound applies to factor {factor}")
        parts.append(found[-1])
    return product_bound(parts)


def best_lower_bound(spec: Spec, budget: EvalBudget | None = None) -> DimensionBound:
    """Best rigorous l1 lower bound per factor (max over applicable
    methods), summed over factors.  Repeated factors are bounded once
    (see factor_candidates)."""
    return best_of_candidates(factor_candidates(spec, budget))


# ---------------------------------------------------------------- S_k sums


def partial_sum_S_k(
    spec: Spec,
    theta,
    k: int,
    tol: float = 1e-9,
    budget: EvalBudget | None = None,
) -> float:
    """S_k(theta) = sum over integer xi with |xi|_inf < p^k of
    |lambda_hat(xi + theta)|.

    All factors must share one base p so the window is well defined.
    The symmetric window is covered by 2^n residue periods, so
    S_k <= 2^n (sup f)^k; one period, such as [0, p^k)^n, obeys the
    bare (sup f)^k.  A window the budget cannot pay for is refused
    (BudgetExceededError) before it is built.
    """
    prod = as_product(spec)
    bases = {f.p_int() for f in prod.factors}
    if len(bases) != 1:
        raise ValueError("S_k needs a single common base across factors")
    if k < 0:
        raise ValueError("k must be >= 0")
    p = bases.pop()
    n = prod.total_dim
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.shape != (n,):
        raise ValueError(f"theta must have shape ({n},)")
    bud = ensure_budget(budget)
    window = box_blocks(2 * p ** k - 1, n, bud, "S_k window")
    points = gather_points(spec, (block + theta[None, :] for block in window), tol, bud)
    values, _ = fourier_transform_batch(spec, points, tol, bud)
    return float(np.abs(values).sum())
