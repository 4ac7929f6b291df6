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

Lattice sums repeat each factor's coordinates: the radius-256 ball on
C3 x C3 has about 206k points but only 513 values per axis.  So when a
factor's coordinate block is all integers (no negative zero), the batch
multiplies the factor's levels of g on the integer box min..max of the
block (_level_table) and gathers the product back once per row by the
index (row - min), in O(rows) without a sort: the value of each row is
that of multiplying the factor's levels at the row, then the factors.
The table is skipped when that box holds more than half as many points
as the block has rows, as for the carpet's 2-D factor, whose rows are
all distinct; such a factor multiplies each level into the values.  The
table does not change the batch's charge: a batch holds all its rows at
once, and its per-row levels bound what it may hold.  The lattice
half-ball (half_ball) holds one block of rows at a time and is charged
what it evaluates: the table entries times the levels, and one cell per
point and gather.

lambda is a real measure, so lambda_hat(-xi) = conj lambda_hat(xi).  A
batch takes row K-1-i as the conjugate of row i wherever it is row i's
bitwise negation (a -0.0 pairs only with a +0.0): every point of a ray
t = k dt except t = 0, the lattice points of an annulus walked
in C order except its +0.0 axis points, and the symmetric points of a
linspace.  The rest are evaluated as before.  This is bit-exact, not
only exact in arithmetic: round-to-nearest commutes with negation, so
the phases (d, -eta) are the negated phases; the platform's cos is even
and its sin odd, so each exponential is the conjugate; and the sums,
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

# Points per block of box_blocks.
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


def symbol_modulus(factor: MissingDigitsSpec, eta) -> np.ndarray:
    """|g(eta)|, same shapes as digit_symbol.

    Interval digit sets take the modulus of the Dirichlet ratio,
    |sin(pi N eta) / (N sin(pi eta))|, without building the complex
    phase; explicit digit sets take |digit_symbol|.
    """
    if isinstance(factor.digits, DigitInterval):
        eta = np.asarray(eta, dtype=np.float64)
        if eta.ndim and eta.shape[-1] == 1:
            eta = eta[..., 0]
        count, eta_r = _interval_reduce(factor.digits, eta)
        return np.abs(_dirichlet_ratio(count, eta_r))
    return np.abs(digit_symbol(factor, eta))


def _interval_symbol(factor: MissingDigitsSpec, eta: np.ndarray) -> np.ndarray:
    count, eta_r = _interval_reduce(factor.digits, eta)
    lo = float(factor.digits.lo)
    phase = np.exp(-1j * np.pi * (2 * lo + count - 1) * eta_r)
    return phase * _dirichlet_ratio(count, eta_r)


def _interval_reduce(digits: DigitInterval, eta: np.ndarray) -> tuple[int, np.ndarray]:
    """(#D, eta reduced mod 1 to |eta_r| <= 1/2) for an interval digit set."""
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
    return count, eta - np.round(eta)


def _dirichlet_ratio(count: int, eta_r: np.ndarray) -> np.ndarray:
    """sin(pi N eta_r) / (N sin(pi eta_r)), with value 1 at eta_r = 0."""
    denom = np.sin(np.pi * eta_r)
    num = np.sin(np.pi * count * eta_r)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / (count * denom)
    return np.where(eta_r == 0.0, 1.0, ratio)


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


def lattice_rows(side: int, n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the grid {0..side-1}^n in C order, shape
    (stop - start, n)."""
    index = np.arange(start, stop)
    return np.stack(np.unravel_index(index, (side,) * n), axis=-1).astype(np.float64)


def box_blocks(side: int, n: int, budget: EvalBudget, label: str):
    """The integer box {-h..h}^n, h = (side - 1) // 2, as a generator of
    blocks of LATTICE_BLOCK points in C order.  Its side^n points are
    checked against the budget under `label` at the call, so an
    oversized box is refused before any block is built.  Point K-1-i is
    the negation of point i, also in any part cut from the blocks by a
    predicate symmetric under xi -> -xi, so the transform mirrors every
    such point but those with a +0.0 coordinate."""
    count = side ** n
    budget.check(count, label)
    half = (side - 1) // 2
    return (lattice_rows(side, n, start, min(count, start + LATTICE_BLOCK)) - half
            for start in range(0, count, LATTICE_BLOCK))


def gather_points(spec: Spec, blocks, tol: float, budget: EvalBudget) -> np.ndarray:
    """Join blocks of frequency points into one fourier_transform_batch
    batch, checking after each block half the points so far (rounded
    up) times the largest transform_levels of any block so far
    ("transform levels"), so an oversized batch is refused as it grows,
    before it is transformed.  The transform evaluates at least one row
    of each pair of rows it mirrors, so that is a lower bound on its
    charge; fourier_transform_batch makes the exact check.  A walk that
    starts at its largest point, as the boxes and the ray do, is checked
    at its final levels from the first block."""
    parts, kept, levels = [], 0, 0
    for block in blocks:
        parts.append(block)
        kept += block.shape[0]
        levels = max(levels, transform_levels(spec, block, tol))
        budget.check(-(-kept // 2) * levels, "transform levels")
    return np.concatenate(parts)


def half_ball(spec: Spec, radius: int, tol: float, budget: EvalBudget):
    """The transform on the lattice half-ball of a measure on R^n, n = 1
    or 2: the origin and the integer points xi with |xi| <= radius whose
    first nonzero coordinate is positive, which with their negations
    make up the ball.  A generator of (points, values) blocks, each of
    whole rows of xi_1 (n = 2) in C order, at most LATTICE_BLOCK points
    unless one row is longer; for n = 1 the half-axis 0..radius is one
    row.  Memory is O(radius) for the tables plus one block.

    Each factor's depth is the one fourier_transform_batch gives the
    whole ball, at its largest norm on the factor's block, radius.  A
    1-D factor with levels whose coordinate's range holds at most half
    as many values as the half-ball has points (not so for n = 1) has a
    table over that range (_level_table): its level product, gathered
    once per point.  Other factors (2-D ones, such as the carpet's, and
    trivial ones) multiply their levels into each block's values.  So a
    value is formed by the batch's operations, in the batch's order,
    wherever the batch tables the same factors.

    The points are checked against the budget first ("lattice ball"):
    the half-ball holds the radius^2 + radius + 1 points of the half
    diamond |xi|_1 <= radius (radius + 1 for n = 1), a lower bound
    found without building anything.  Then the evaluated cells are
    charged exactly ("transform levels"), before any table or block is
    built: per table, its entries times the factor's levels, plus one
    cell per point and gather; per other factor, max(depth, 1) per
    point."""
    prod = as_product(spec)
    n = prod.total_dim
    budget.check(radius * radius + radius + 1 if n == 2 else radius + 1, "lattice ball")
    if n == 2:
        half = [math.isqrt(radius * radius - x * x) for x in range(radius + 1)]
        lows = np.array([0] + [-h for h in half[1:]])
        lengths = np.array(half) - lows + 1
        ranges = ((0, radius), (-radius, radius))
    else:
        lows, lengths, ranges = np.zeros(1, dtype=np.int64), np.array([radius + 1]), ((0, radius),)
    ends = np.cumsum(lengths)
    count = int(ends[-1])
    factors, cells = [], 0
    for (factor, _, _, depth), sl in zip(_factor_blocks(prod, radius * np.eye(n), tol),
                                         prod.factor_slices()):
        lo, hi = ranges[sl.start] if factor.ambient_dim == 1 and depth else (None, None)
        if lo is not None and hi - lo + 1 > count / 2:
            lo = None  # as in _symbol_table, a table pays only on repeated coordinates
        cells += count * max(depth, 1) if lo is None else (hi - lo + 1) * depth + count
        factors.append((factor, sl, depth, lo, hi))
    budget.charge(cells, "transform levels")
    tables = [None if lo is None else
              _level_table(factor, np.arange(lo, hi + 1, dtype=np.float64)[:, None], depth)
              for factor, sl, depth, lo, hi in factors]

    first = 0
    while first < lengths.size:
        done = int(ends[first - 1]) if first else 0
        stop = max(first + 1, int(np.searchsorted(ends, done + LATTICE_BLOCK, side="right")))
        sizes = lengths[first:stop]
        offsets = np.cumsum(sizes) - sizes
        points = np.empty((int(sizes.sum()), n))
        points[:, -1] = np.arange(points.shape[0]) - np.repeat(offsets - lows[first:stop], sizes)
        if n == 2:
            points[:, 0] = np.repeat(np.arange(first, stop), sizes)
        values = np.ones(points.shape[0], dtype=np.complex128)
        for (factor, sl, depth, lo, _), table in zip(factors, tables):
            if table is None:
                _multiply_levels(values, factor, points[:, sl], depth)
            else:
                values *= table[points[:, sl.start].astype(np.int64) - lo]
        yield points, values
        first = stop


def _symbol_table(block: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(table_rows, index) with table_rows[index] equal to block bit for
    bit, where table_rows is the integer box min..max of block's
    coordinates in C order and index is (row - min) raveled, found in
    O(rows) without a sort; or (block, None) when that box would hold
    more than half as many points as block has rows, or block is not
    all integers (a negative zero counts as none, since the box holds
    only +0.0)."""
    lo, hi = block.min(axis=0), block.max(axis=0)
    # spans stay floats until they are known to be small: rows near
    # 1e18 or 1e150 must not overflow int64
    spans = hi - lo + 1.0
    if not float(np.prod(spans)) <= block.shape[0] / 2:
        return block, None
    if not (np.round(block) == block).all() or (np.signbit(block) & (block == 0)).any():
        return block, None
    # every integer difference here is below 2^53, so each subtraction
    # and each table entry lo + k is exact
    shape = tuple(int(s) for s in spans)
    index = np.ravel_multi_index(tuple((block - lo).astype(np.int64).T), shape)
    rows = np.indices(shape, dtype=np.float64).reshape(len(shape), -1).T + lo
    return rows, index


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
    value is the conjugate of row i's and its bound is row i's.  A
    factor whose block of all K rows has a table (_symbol_table) is
    gathered from its level product on the table; any other multiplies
    each level into the values.  The evaluated rows are charged, at
    sum_f max(depth_f, 1) each, before any output is allocated.
    """
    prod = as_product(spec)
    xis = np.atleast_2d(np.asarray(xis, dtype=np.float64))
    if xis.shape[1] != prod.total_dim:
        raise ValueError(f"xi rows must have length {prod.total_dim}")
    bud = ensure_budget(budget)
    count = xis.shape[0]
    # compared as bits, column by column: == would pair a -0.0 with a
    # +0.0, and a per-row all() costs more than the columns
    mirrored = np.ones(count, dtype=bool)
    for column in range(xis.shape[1]):
        mirrored &= xis[::-1, column].view(np.uint64) == (-xis[:, column]).view(np.uint64)
    mirrored[:(count + 1) // 2] = False
    own = ~mirrored if mirrored.any() else None
    evaluated = xis if own is None else xis[own]
    blocks = _factor_blocks(prod, evaluated, tol)
    bud.charge(evaluated.shape[0] * _levels(blocks), "transform levels")

    values = np.ones(evaluated.shape[0], dtype=np.complex128)
    errs = np.zeros(evaluated.shape[0], dtype=np.float64)
    for (factor, block, norms, depth), sl in zip(blocks, prod.factor_slices()):
        rows, index = _symbol_table(xis[:, sl]) if depth else (None, None)
        if index is None:
            _multiply_levels(values, factor, block, depth)
        else:
            values *= _level_table(factor, rows, depth)[index if own is None else index[own]]
        errs += _tail_bound(factor, norms, depth)
    if own is None:
        return values, errs
    all_values = np.empty(count, dtype=np.complex128)
    all_errs = np.empty(count, dtype=np.float64)
    all_values[own], all_errs[own] = values, errs
    all_values[mirrored] = np.conjugate(all_values[::-1][mirrored])
    all_errs[mirrored] = all_errs[::-1][mirrored]
    return all_values, all_errs
