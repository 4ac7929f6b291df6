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
from itertools import product
from operator import add, mul
from typing import TYPE_CHECKING

from .budget import EvalBudget, ensure_budget
from .errors import ConfigError, SymbolicBaseError
from .measure import DigitInterval, MissingDigitsSpec, Spec, as_product
from .value import Value

if TYPE_CHECKING:
    import numpy as np

# numpy and the transform (fourier) are imported only where f_theta
# evaluates f: the closed-form bounds of symbolic bases, and sup_f
# searches of at most _LIST_CELLS cells, run without them.


class BoundKind(enum.Enum):
    GRID_SUP = "GridSup"
    CRUDE = "Crude"
    RECTANGLE = "Rectangle"
    PRODUCT_SUM = "ProductSum"


class DimensionBound(Value):
    """A dimension value with provenance: how it was computed and
    whether it is backed by a certificate (rigorous) or is merely an
    estimate."""

    _fields = ("value", "kind", "rigorous")

    def __init__(self, value: float, kind: BoundKind, rigorous: bool):
        if not math.isfinite(value):
            raise ValueError("dimension bound must be finite")
        self._set(value=value, kind=kind, rigorous=rigorous)


def _clamp(value: float, ambient: float) -> float:
    return min(max(value, 0.0), float(ambient))


# ---------------------------------------------------------------- f(theta)


# Entries per temporary array in f_theta: thetas x residues, times #D
# for explicit digit sets.
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
    stays bounded whatever K and p^n are.  sup_f calls it only once its
    search passes _LIST_CELLS cells; until then it evaluates with
    _f_theta_lists, which needs no numpy.
    """
    size, terms = _residue_terms(factor)
    import numpy as np

    from .fourier import lattice_rows, symbol_modulus

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


# Most "f(theta) residues" cells that one sup_f search evaluates on
# Python lists; the level that would pass it, and every later one, goes
# to f_theta.  Spawned dim-bound runs on 2 cores break even with numpy
# (whose import costs about 0.13 s) near 300k cells for interval digit
# sets and 480k for the carpet; the benchmark's factors spend 5,664 to
# 179,712 per search.
_LIST_CELLS = 1 << 18


def _f_theta_lists(factor: MissingDigitsSpec):
    """An evaluator `evaluate(thetas, budget=None)` of f(theta) at each
    n-tuple of thetas, in Python floats, which charges as f_theta charges
    before it evaluates anything.  What does not depend on theta (the
    residues, or the explicit-set table below) is built once, here, so
    that a sup_f search builds it once for all of its levels.

    Interval digit sets sum f_theta's terms |sin(pi N r) / (N sin(pi r))|
    with eta = (t + i)/p and r = eta - (eta > 1/2), which is exact for
    eta in [1/2, 1] (Sterbenz), and 1 at r = 0, as f_theta's
    eta - round(eta) gives them for theta in [0, 1).  Explicit digit sets
    split e(-d.(i + theta)/p) into a table entry e(-((d.i) mod p)/p) and
    a digit phase e(-d.theta/p), so each theta computes #D phases, and
    each residue term is |sum_d phase_d entry_d| / #D.  The residue
    terms are added by math.fsum.

    For theta in [0, 1)^n, with u = 2^-53, M the largest digit norm and
    sin and cos within one ulp, the result is within

        interval sets:  p (2 pi M + 17) u,
        explicit sets:  p^n (2 #D + 32 + 9 n (2n + 3)) u

    of the exact f at theta.  Interval sets: the two roundings of eta
    move a term by at most 2 pi M u, since |g| is pi (N - 1)-Lipschitz,
    and the sines, the ratio and fsum add at most 15 u.  Explicit sets,
    per residue term: a table entry is within 24 u and a phase within
    sqrt(2) (2 u + its angle's error) <= (3 + 9 n (2n + 3)) u; the
    product adds 3 u, sum() sqrt(2) (#D - 1) u, abs 2 u, and fsum and
    the division by #D 2 u.
    """
    size, terms = _residue_terms(factor)
    p, sin, fsum = factor.p_int(), math.sin, math.fsum
    if isinstance(factor.digits, DigitInterval):
        count = factor.digit_count()
        scale, each, pi = math.pi * count, float(count), math.pi
        residues = [float(i) for i in range(p)]

        def evaluate(thetas: list, budget: EvalBudget | None = None) -> list:
            ensure_budget(budget).charge(len(thetas) * size * terms, "f(theta) residues")
            sums = []
            for (t,) in thetas:
                moduli = []
                for i in residues:
                    r = (t + i) / p
                    if r > 0.5:
                        r -= 1.0
                    moduli.append(abs(sin(scale * r) / (each * sin(pi * r))) if r else 1.0)
                sums.append(fsum(moduli))
            return sums

        return evaluate
    digits, cos, n = factor.digits.vectors, math.cos, factor.ambient_dim
    tau = 2.0 * math.pi / p
    roots = [complex(cos(tau * k), -sin(tau * k)) for k in range(p)]
    table = [[roots[sum(map(mul, d, i)) % p] for d in digits]
             for i in product(range(p), repeat=n)]

    def evaluate(thetas: list, budget: EvalBudget | None = None) -> list:
        ensure_budget(budget).charge(len(thetas) * size * terms, "f(theta) residues")
        sums = []
        for theta in thetas:
            phases = [complex(cos(a), -sin(a))
                      for a in [tau * sum(map(mul, d, theta)) for d in digits]]
            sums.append(fsum([abs(sum(map(mul, phases, row))) for row in table]) / len(digits))
        return sums

    return evaluate


def _centred_square_sum(digits) -> int:
    """sum over d in D of |2(d - c)|^2, exactly, with c the midpoint of
    each coordinate's digit range: N(N^2 - 1)/3 for an interval of N
    digits, which needs no digit array."""
    if isinstance(digits, DigitInterval):
        count = digits.count()
        return count * (count * count - 1) // 3
    columns = list(zip(*digits.vectors))
    return sum((2 * d - min(col) - max(col)) ** 2 for col in columns for d in col)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _parseval_lipschitz(factor: MissingDigitsSpec) -> float:
    """L' = p^(n-1) 2 pi sqrt(sum_d |d - c|^2) / #D, a Lipschitz constant
    of f (Euclidean norm on theta), rounded upward.

    |g| does not change when every digit d is shifted to d - c, so take
    g_c(eta) = e(c . eta) g(eta) with c the midpoint of each coordinate's
    digit range.  The p^n points eta_i = (i + theta)/p cover Z_p^n, and
    distinct digits are distinct mod p, so Parseval gives

        sum_i |grad g_c(eta_i)|^2 = p^n (2 pi)^2 sum_d |d - c|^2 / #D^2,

    and Cauchy-Schwarz bounds |grad f| <= sum_i |grad g_c(eta_i)| / p by
    L'.  |g(a)| - |g(b)| <= |g(a) - g(b)| covers the zeros of g.  With
    S = sum_d |2(d - c)|^2, an exact integer, L' = p^(n-1) pi sqrt(S)/#D;
    every float step below is rounded up.  One digit gives S = 0, L' = 0.
    """
    p, n = factor.p_int(), factor.ambient_dim
    total = _centred_square_sum(factor.digits)
    if total == 0:
        return 0.0
    root = _up(math.sqrt(_up(float(total))))
    return _up(_up(_up(_up(math.pi) * p ** (n - 1)) * root) / factor.digit_count())


class SupF(Value):
    """sup f lies in [sup_estimate, certified_upper]; sup_estimate is f
    at argmax.  The boxes were bounded with the Lipschitz constant
    `lipschitz`, and none of side <= h was split.  f was evaluated at
    `evaluations` thetas."""

    _fields = ("sup_estimate", "certified_upper", "argmax", "h", "lipschitz", "evaluations")

    def __init__(self, sup_estimate: float, certified_upper: float, argmax: tuple, h: float,
                 lipschitz: float, evaluations: int):
        self._set(sup_estimate=sup_estimate, certified_upper=certified_upper, argmax=argmax,
                  h=h, lipschitz=lipschitz, evaluations=evaluations)


# Boxes per axis of sup_f's first level.
_START_BOXES = 16


def sup_f(
    factor: MissingDigitsSpec,
    h: float = 1e-4,
    budget: EvalBudget | None = None,
) -> SupF:
    """Certified upper bound for sup f over the period cube [0,1]^n, by
    branch-and-bound over theta-boxes (Moore, Interval Analysis, 1966;
    Tucker, Validated Numerics, 2011).

    On a box of side s and centre t, f <= f(t) + L' s sqrt(n)/2, with L'
    from _parseval_lipschitz, capped by the crude constant
    L = p^(n-1) 2 pi M (M the largest digit norm).  The search starts
    from the 16^n boxes of side 1/16 and evaluates each level's centres
    in one call: with the one _f_theta_lists evaluator of the search
    while the search, this level included, spends at most _LIST_CELLS
    cells, so that a small search loads no numpy, and with f_theta from
    the level that passes it on.  A box is split
    into its 2^n children while its bound exceeds best + eps, where best
    is the largest f seen and eps = (L - L') h sqrt(n)/2; a box of
    side <= h is never split.
    certified_upper is the largest bound among the retired boxes, so

        sup f <= certified_upper <= sup f + max(eps, L' h sqrt(n)/2).

    As sup f <= grid max + L' h sqrt(n)/2 on the step-h grid, this is at
    most that grid's max + L h sqrt(n)/2 whenever 2 L' <= L.  Each
    level's thetas x p^n x terms cells are checked against the budget
    before its centres are built, so a search the budget cannot pay for
    is refused before it allocates.
    """
    if not (0 < h <= 0.5):
        raise ValueError("box side h must be in (0, 1/2]")
    n = factor.ambient_dim
    bud = ensure_budget(budget)
    size, terms = _residue_terms(factor)
    crude = factor.p_int() ** (n - 1) * 2.0 * math.pi * factor.max_digit_norm()
    lip = min(crude, _parseval_lipschitz(factor))
    half_diagonal = math.sqrt(n) / 2.0  # of a box of side 1
    eps = (crude - lip) * h * half_diagonal
    side = 1.0 / _START_BOXES
    first = _START_BOXES ** n * size * terms
    bud.check(first, "f(theta) residues")
    # a search whose first level passes _LIST_CELLS never evaluates on lists
    lists = _f_theta_lists(factor) if first <= _LIST_CELLS else None
    centres = [tuple((c + 0.5) * side for c in box)
               for box in product(range(_START_BOXES), repeat=n)]
    offsets = list(product((-0.25, 0.25), repeat=n))  # child centres, per unit side
    best, arg, upper, evaluations = -math.inf, None, -math.inf, 0
    while centres:
        vals = (lists(centres, bud)
                if (evaluations + len(centres)) * size * terms <= _LIST_CELLS
                else f_theta(factor, centres, bud).tolist())
        evaluations += len(centres)
        i = vals.index(max(vals))
        if vals[i] > best:
            best, arg = vals[i], centres[i]
        slack, cut, deep = lip * side * half_diagonal, best + eps, side > h
        bounds = [v + slack for v in vals]
        split = [deep and b > cut for b in bounds]
        upper = max(upper, max((b for b, s in zip(bounds, split) if not s), default=-math.inf))
        bud.check(sum(split) * 2 ** n * size * terms, "f(theta) residues")
        steps = [tuple(o * side for o in offset) for offset in offsets]
        centres = [tuple(map(add, centre, step))
                   for centre, s in zip(centres, split) if s for step in steps]
        side /= 2
    return SupF(
        sup_estimate=best,
        certified_upper=upper,
        argmax=arg,
        h=float(h),
        lipschitz=lip,
        evaluations=evaluations,
    )


# ---------------------------------------------------------------- bounds
#
# Each method has a per-factor kernel; product_bound adds up a spec's
# factors.


def grid_lower_bound(spec: Spec, budget: EvalBudget | None = None) -> DimensionBound:
    """dim_l1 >= sum over factors of n_f - log(certified sup f)/log p_f,
    sup f from sup_f at its default h."""
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
    log_num = _logaddexp(term_a, term_b)
    raw = n - (log_num - log_card) / log_p
    return DimensionBound(_clamp(raw, n), BoundKind.CRUDE, rigorous=True)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y), with numpy.logaddexp's branches, so bit for bit
    its value: x + log 2 at a tie (-inf stays -inf), else the larger
    plus log1p(exp(-|x - y|)), and NaN for a NaN difference."""
    if x == y:
        return x + math.log(2.0)
    diff = x - y
    if diff > 0:
        return x + math.log1p(math.exp(-diff))
    if diff <= 0:
        return y + math.log1p(math.exp(diff))
    return diff


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
