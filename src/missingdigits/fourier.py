"""Fourier transforms of missing-digits measures.

For a factor with base p and digit set D the digit symbol is

    g(eta) = (1/#D) * sum_{d in D} exp(-2 pi i (d, eta)),

a Z^n-periodic trigonometric polynomial with g(integer) = 1 and
|g| <= 1.  The random series S = sum_{i>=1} p^-i d_i has transform

    lambda_hat(xi) = E exp(-2 pi i (S, xi)) = prod_{j>=1} g(xi / p^j),

and a product measure multiplies the factor transforms on the matching
coordinate blocks.  The infinite product is truncated at depth J with
the exact tail estimate |1 - g(eta)| <= 2 pi M |eta| (M the largest
digit norm), which geometrically sums to

    tail(J) <= 2 pi M |xi| / (p^J (p - 1)).

The lattice ball and annulus hold no batch: half_ball and
half_annulus walk their points whose first nonzero coordinate is
positive, one of each pair +-xi, a block of rows at a time, and charge
what they evaluate; their per-axis level tables are argued in _walk.

lambda is a real measure, so lambda_hat(-xi) = conj lambda_hat(xi).  A
batch takes row K-1-i as the conjugate of row i wherever it is row i's
bitwise negation (a -0.0 pairs only with a +0.0): every point of a ray
t = k dt but t = 0, and the symmetric points of a linspace or slab.  The
other rows are evaluated.  This is bit-exact, not only exact in
arithmetic: round-to-nearest commutes with negation, so the phases
(d, -eta) are the negated phases; the platform's cos is even and its
sin odd, so each exponential is the conjugate; and the sums,
the division by #D and each complex product then conjugate term by
term.  The norms of xi and -xi, and so the depths and tail bounds, are
equal bit for bit.  The tests pin this on every benchmark spec, since
the symmetry of cos and sin is a property of the libm.  The charge is
(evaluated rows) x sum_f max(depth_f, 1).

An explicit digit set averages its #D phases by adding the digit
columns left to right and dividing by #D: numpy's mean bit for bit when
#D <= 2, and within the rounding bound stated in digit_symbol otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import TOL_FLOOR, EvalBudget, ensure_budget
from .errors import ConfigError, SymbolicBaseError
from .measure import DigitInterval, MissingDigitsSpec, Spec, as_product

# Largest N*|eta| for which the closed-form Dirichlet ratio of an
# interval digit set is trusted in double precision.
_PHASE_CAP = float(1 << 46)

# Points per block of a lattice walk (_walk) and of the slab's columns.
LATTICE_BLOCK = 1 << 16

# Complex phases (128 KiB) per row chunk of an explicit digit average,
# so that the column adds read the chunk from cache.
_PHASE_CHUNK = 1 << 13


# ------------------------------------------------------------ digit symbol


def digit_symbol(factor: MissingDigitsSpec, eta) -> np.ndarray:
    """Evaluate g at eta, shape (..., n) (or (...,) when n = 1).

    Explicit digit sets are averaged directly: the digit columns of the
    (..., #D) phase array are added left to right and the sum divided
    by #D, which is numpy's mean bit for bit when #D <= 2.  The phases
    and their adds are taken over row chunks of _PHASE_CHUNK phases,
    which changes no bit of the result.  For more
    digits the sum is within (#D - 1) u sum_d |exp(-2 pi i (d, eta))|
    (u = 2^-53) of the exact sum of the computed phases, per real and
    imaginary part, and the division adds one rounding of relative size
    u.  Interval digit sets use the closed geometric-sum (Dirichlet)
    form, so their cost does not grow with #D.
    """
    eta = np.asarray(eta, dtype=np.float64)
    n = factor.ambient_dim
    if n == 1 and (eta.ndim == 0 or eta.shape[-1] != 1):
        eta = eta[..., None]
    if eta.shape[-1] != n:
        raise ValueError(f"eta last axis must be {n}")
    if isinstance(factor.digits, DigitInterval):
        return _interval_symbol(factor, eta[..., 0])
    mat = factor.digit_matrix().astype(np.float64)
    dots = eta @ mat.T
    count = dots.shape[-1]
    rows = dots.reshape(-1, count)
    total = np.empty(rows.shape[0], dtype=np.complex128)
    # column adds: a per-row mean(axis=-1) over few digits costs about as
    # much as the exponentials; a chunk's columns are read from cache
    step = max(1, _PHASE_CHUNK // count)
    for start in range(0, rows.shape[0], step):
        phases = np.exp(-2j * np.pi * rows[start:start + step])
        part = total[start:start + step]
        part[:] = phases[:, 0]
        for column in range(1, count):
            part += phases[:, column]
    total /= count
    return total.reshape(dots.shape[:-1])[()]  # a scalar for a scalar eta, as mean gave


def _interval_symbol(factor: MissingDigitsSpec, eta: np.ndarray) -> np.ndarray:
    """g on an interval digit set, from the closed geometric sum: the
    midpoint's phase times the Dirichlet ratio
    sin(pi N eta_r) / (N sin(pi eta_r)), with value 1 at eta_r = 0."""
    digits = factor.digits
    if digits.is_symbolic():
        raise SymbolicBaseError(
            "pointwise evaluation needs materializable digit endpoints"
        )
    count = digits.count()
    if count * float(np.max(np.abs(eta), initial=0.0)) > _PHASE_CAP:
        raise SymbolicBaseError(
            "digit interval too large for trustworthy pointwise evaluation"
        )
    # g is 1-periodic; reduce to |eta_r| <= 1/2 so the Dirichlet ratio
    # is singular only at eta_r = 0, where its limit is 1.
    eta_r = eta - np.round(eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(np.pi * count * eta_r) / (count * np.sin(np.pi * eta_r))
    phase = np.exp(-1j * np.pi * (2 * float(digits.lo) + count - 1) * eta_r)
    return phase * np.where(eta_r == 0.0, 1.0, ratio)


# ------------------------------------------------------- truncation depth


def truncation_depth(factor: MissingDigitsSpec, xi_norm: float, tol: float) -> int:
    """Smallest J with 2 pi M |xi| / (p^J (p-1)) <= tol."""
    if not math.isfinite(xi_norm):
        raise ConfigError("frequency norm |xi| is not finite (or overflows a float)")
    tol = max(float(tol), TOL_FLOOR)
    if xi_norm == 0.0:
        return 0
    p = factor.p_int()
    m_norm = factor.max_digit_norm()
    if m_norm == 0.0:
        return 0
    need = 2.0 * math.pi * m_norm * xi_norm / (tol * (p - 1))
    if need <= 1.0:
        return 0
    return max(0, math.ceil(math.log(need) / math.log(p)))


def _tail_bound(factor: MissingDigitsSpec, xi_norm, depth: int) -> np.ndarray:
    p = factor.p_int()
    m_norm = factor.max_digit_norm()
    return 2.0 * math.pi * m_norm * np.asarray(xi_norm) / (p ** depth * (p - 1))


# ------------------------------------------------------------- transform


def _factor_blocks(prod, xis: np.ndarray, tol: float) -> list:
    """(factor, coordinate block, row norms, truncation depth) for each
    factor of a batch; each depth meets the factor's share of tol at the
    batch's largest norm on that block."""
    share = max(float(tol), TOL_FLOOR) / len(prod.factors)
    out = []
    for factor, sl in zip(prod.factors, prod.factor_slices()):
        block = xis[:, sl]
        with np.errstate(over="ignore"):  # truncation_depth refuses an infinite |xi|
            norms = np.sqrt((block * block).sum(axis=1))
        out.append((factor, block, norms,
                    truncation_depth(factor, float(norms.max(initial=0.0)), share)))
    return out


def _levels(blocks: list) -> int:
    return sum(max(depth, 1) for *_, depth in blocks)


def transform_levels(spec: Spec, xis, tol: float = 1e-9) -> int:
    """Cells fourier_transform_batch(spec, batch, tol) charges per
    evaluated point when the batch's largest per-factor norms are those
    of xis' rows: sum over factors of max(depth, 1).  Depths grow with
    the norms, so rows no larger than the batch's give a lower bound."""
    xis = np.atleast_2d(np.asarray(xis, dtype=np.float64))
    return _levels(_factor_blocks(as_product(spec), xis, tol))


def half_ball(spec: Spec, radius: int, tol: float, budget: EvalBudget):
    """The transform on the lattice half-ball of a measure on R^n, n = 1
    or 2: the origin and the integer points xi with |xi| <= radius whose
    first nonzero coordinate is positive, which with their negations
    make up the ball.  Row xi_1 = x (n = 2) is the one run
    |xi_2| <= isqrt(radius^2 - x^2), row 0 from xi_2 = 0; for n = 1 the
    half-axis 0..radius is one row.  A generator of (points, values)
    blocks (_walk).

    The points are checked against the budget first ("lattice ball"):
    the half-ball holds the radius^2 + radius + 1 points of the half
    diamond |xi|_1 <= radius (radius + 1 for n = 1), a lower bound
    found without building anything."""
    prod = as_product(spec)
    n = prod.total_dim
    budget.check(radius * radius + radius + 1 if n == 2 else radius + 1, "lattice ball")
    highs = _row_ends(radius * radius, radius + 1) if n == 2 else np.array([radius])
    lows = np.where(np.arange(highs.size) == 0, 0, -highs)
    return _walk(prod, lows[:, None], highs[:, None], radius, tol, budget)


def half_annulus(spec: Spec, R: float, tol: float, budget: EvalBudget):
    """The transform on the lattice half-annulus of a measure on R^2,
    R > 0: the integer points xi with R^2 <= xi_1^2 + xi_2^2 <= 4R^2,
    exactly (R as the rational it is, one math.isqrt per row and bound),
    whose first nonzero coordinate is positive, which with their
    negations make up the annulus.  Row xi_1 = x holds the runs
    inner <= |xi_2| <= outer, one run once inner is 0, and row 0 the
    positive run alone.  A generator of (points, values) blocks (_walk).

    The points are checked against the budget first ("lattice
    annulus"), on the (a + b)(b - a + 1) points of the half diamond ring
    a <= |xi|_1 <= b inside it, b = floor(2R), a = isqrt(2 ceil(R)^2) + 1:
    a lower bound found in O(1), so a huge R is refused at once."""
    top = math.floor(2 * R)
    low = math.isqrt(2 * math.ceil(R) ** 2) + 1
    budget.check(max(0, (low + top) * (top - low + 1)), "lattice annulus")
    # the integer x^2 + y^2 is below R^2 = num^2 / den^2 when at most
    # ceil(R^2) - 1, and at most 4R^2 when at most floor(4R^2)
    num, den = float(R).as_integer_ratio()
    inner = 1 + _row_ends(-(-num * num // (den * den)) - 1, top + 1)
    outer = _row_ends(4 * num * num // (den * den), top + 1)
    x = np.arange(top + 1)
    split = (x > 0) & (inner > 0)
    lows = np.stack([-outer, np.where(split | (x == 0), inner, -outer)], axis=1)
    highs = np.stack([np.where(split, -inner, -outer - 1), outer], axis=1)
    return _walk(as_product(spec), lows, highs, top, tol, budget)


def _row_ends(bound: int, rows: int) -> np.ndarray:
    """Per row x = 0..rows-1, the largest y >= -1 with x^2 + y^2 <= bound
    (an integer), exactly: -1 where x^2 > bound."""
    return np.array([math.isqrt(bound - x * x) if x * x <= bound else -1
                     for x in range(rows)], dtype=np.int64)


def _walk(prod, lows: np.ndarray, highs: np.ndarray, top: int, tol: float,
          budget: EvalBudget):
    """The transform on rows of runs of lattice points: run k of row x
    holds the points (x, y), lows[x, k] <= y <= highs[x, k] (runs in
    increasing y; empty where highs < lows), or for n = 1 the one row
    lows[0, 0]..highs[0, 0]; no coordinate exceeds top in modulus.  A
    generator of (points, values) blocks, each of whole rows in C
    order, at most LATTICE_BLOCK points unless one row is longer.
    Memory is O(rows) for the tables plus one block.

    Each factor's depth is the one fourier_transform_batch gives all
    the points, at their largest norm on the factor's block, found on
    the rows' outermost points.  A 1-D factor with levels whose
    coordinate's range (0..top for xi_1, -top..top for xi_2) holds at
    most half as many values as there are points (never for n = 1) has
    a table over that range (_level_table): its level product, gathered
    once per point, so its levels are multiplied from 1 first.  Other
    factors (2-D ones, such as the carpet's, and trivial ones) multiply
    their levels into each block's values.

    The evaluated cells are charged exactly ("transform levels"), before
    any table or block is built: per table, its entries times the
    factor's levels, plus one cell per point and gather; per other
    factor, max(depth, 1) per point."""
    n = prod.total_dim
    lengths = np.maximum(highs - lows + 1, 0)
    rows = lengths.sum(axis=1)
    ends = np.cumsum(rows)
    count = int(ends[-1])
    reach = np.maximum(-lows, highs).max(axis=1).astype(np.float64)
    edge = (reach[:, None] if n == 1 else
            np.stack([np.arange(reach.size, dtype=np.float64), reach], axis=1))
    ranges = ((0, top), (-top, top))
    factors, cells = [], 0
    for (factor, _, _, depth), sl in zip(_factor_blocks(prod, edge, tol), prod.factor_slices()):
        lo, hi = ranges[sl.start] if factor.ambient_dim == 1 and depth else (None, None)
        if lo is not None and hi - lo + 1 > count / 2:
            lo = None  # a table pays only on repeated coordinates
        cells += count * max(depth, 1) if lo is None else (hi - lo + 1) * depth + count
        factors.append((factor, sl, depth, lo, hi))
    budget.charge(cells, "transform levels")
    tables = [None if lo is None else
              _level_table(factor, np.arange(lo, hi + 1, dtype=np.float64)[:, None], depth)
              for factor, sl, depth, lo, hi in factors]

    first = 0
    while first < rows.size:
        done = int(ends[first - 1]) if first else 0
        stop = max(first + 1, int(np.searchsorted(ends, done + LATTICE_BLOCK, side="right")))
        sizes = lengths[first:stop].ravel()
        offsets = np.cumsum(sizes) - sizes
        points = np.empty((int(sizes.sum()), n))
        points[:, -1] = (np.arange(points.shape[0])
                         - np.repeat(offsets - lows[first:stop].ravel(), sizes))
        if n == 2:
            points[:, 0] = np.repeat(np.arange(first, stop), rows[first:stop])
        values = np.ones(points.shape[0], dtype=np.complex128)
        for (factor, sl, depth, lo, _), table in zip(factors, tables):
            if table is None:
                _multiply_levels(values, factor, points[:, sl], depth)
            else:
                values *= table[points[:, sl.start].astype(np.int64) - lo]
        yield points, values
        first = stop


def _multiply_levels(out: np.ndarray, factor: MissingDigitsSpec, rows: np.ndarray,
                     depth: int) -> None:
    """out *= g(rows / p^j) for j = 1..depth, one level after another."""
    p = float(factor.p_int())
    for j in range(1, depth + 1):
        out *= digit_symbol(factor, rows / p ** j)


def _level_table(factor: MissingDigitsSpec, rows: np.ndarray, depth: int) -> np.ndarray:
    """The factor's depth-level product at each of its table rows,
    multiplied level by level from 1: gathered once per point, it
    stands for the depth gathers of the per-level product."""
    table = np.ones(rows.shape[0], dtype=np.complex128)
    _multiply_levels(table, factor, rows, depth)
    return table


def fourier_transform_batch(
    spec: Spec,
    xis: np.ndarray,
    tol: float = 1e-9,
    budget: EvalBudget | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Transform at each row of xis (K, n); returns (values, abs_errs).

    Each factor's truncation depth is chosen from the largest |xi_f| in
    the batch, so every returned point meets the per-point tail bound.
    Row K-1-i that is row i's bitwise negation is not evaluated: its
    value is the conjugate of row i's and its bound is row i's.  Each
    factor multiplies its levels into the values one after another.
    The evaluated rows are charged, at sum_f max(depth_f, 1) each,
    before any output is allocated.
    """
    prod = as_product(spec)
    xis = np.atleast_2d(np.asarray(xis, dtype=np.float64))
    if xis.shape[1] != prod.total_dim:
        raise ValueError(f"xi rows must have length {prod.total_dim}")
    bud = ensure_budget(budget)
    count = xis.shape[0]
    # compared with the negated batch as bits, column by column: == would
    # pair a -0.0 with a +0.0, and a per-row all() costs more than the columns
    negated = (-xis).view(np.uint64)
    mirrored = np.ones(count, dtype=bool)
    for column in range(xis.shape[1]):
        mirrored &= xis[::-1, column].view(np.uint64) == negated[:, column]
    del negated  # not held while the levels are multiplied
    mirrored[:(count + 1) // 2] = False
    own = ~mirrored if mirrored.any() else None
    evaluated = xis if own is None else xis[own]
    blocks = _factor_blocks(prod, evaluated, tol)
    bud.charge(evaluated.shape[0] * _levels(blocks), "transform levels")

    values = np.ones(evaluated.shape[0], dtype=np.complex128)
    errs = np.zeros(evaluated.shape[0], dtype=np.float64)
    for factor, block, norms, depth in blocks:
        _multiply_levels(values, factor, block, depth)
        errs += _tail_bound(factor, norms, depth)
    if own is None:
        return values, errs
    all_values = np.empty(count, dtype=np.complex128)
    all_errs = np.empty(count, dtype=np.float64)
    all_values[own], all_errs[own] = values, errs
    all_values[mirrored] = np.conjugate(all_values[::-1][mirrored])
    all_errs[mirrored] = all_errs[::-1][mirrored]
    return all_values, all_errs
