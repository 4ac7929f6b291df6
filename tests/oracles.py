"""Independent references that the tests check the library against.

No library or CLI path calls these; each recomputes a quantity by a
second route (corner sums, direct window sums, a single stripe, a
trapezoid, Monte-Carlo draws, whole-chunk sampling), so that the fast
paths keep a cross-check.

The corner-sum oracle never touches g or the product: it enumerates the
depth-m digit prefix sums c = sum_{i<=m} p^-i d_i (the cylinder corner
points) and averages exp(-2 pi i (c, xi)) directly, which is the exact
transform of the depth-m discrete approximation.  Corner enumeration is
split into two half-depth halves whose exponential sums multiply; the
split is pure regrouping of the same finite sum (checked against full
enumeration in the tests) and keeps the corner count tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from missingdigits.budget import EvalBudget, ensure_budget
from missingdigits.cylinders import _ray_frames
from missingdigits.errors import ConfigError
from missingdigits.fourier import fourier_transform_batch
from missingdigits.measure import Spec, _block_table, as_product, block_levels, sample
from missingdigits.projection import (_enumeration_depth, _require_plane, _unit_direction,
                                      radial_tube_profile)

# ---------------------------------------------------------------- transform


@dataclass(frozen=True)
class FourierValue:
    """Truncated transform value with a rigorous truncation bound."""

    value: complex
    abs_err: float


def fourier_transform(spec: Spec, xi, tol: float = 1e-9,
                      budget: EvalBudget | None = None) -> FourierValue:
    """Transform at a single frequency point xi in R^n."""
    xis = np.atleast_1d(np.asarray(xi, dtype=np.float64))[None, :]
    values, errs = fourier_transform_batch(spec, xis, tol, budget)
    return FourierValue(complex(values[0]), float(errs[0]))


def _corner_sum(corners: np.ndarray, xi_block: np.ndarray) -> complex:
    args = corners @ xi_block
    return complex(np.exp(-2j * np.pi * args).sum())


def fourier_oracle(
    spec: Spec,
    xi,
    depth: int,
    budget: EvalBudget | None = None,
) -> complex:
    """Exact transform of the depth-m cylinder-corner approximation:
    prod over factors of (#D)^-m sum_corners exp(-2 pi i (c, xi)).

    Differs from the true transform by at most
    sum_f 2 pi |xi_f| sqrt(n_f) p_f^-m.  Corner sets are enumerated by
    the sampler's digit-prefix table (measure._block_table) in two
    halves of depth ceil(m/2) and floor(m/2); the second half's corners
    are scaled by p^-h, and the two exponential sums multiply.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    prod = as_product(spec)
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.shape != (prod.total_dim,):
        raise ValueError(f"xi must have shape ({prod.total_dim},)")
    bud = ensure_budget(budget)

    out = 1.0 + 0.0j
    for factor, sl in zip(prod.factors, prod.factor_slices()):
        k = factor.digit_count()
        half = depth // 2
        rest = depth - half
        bud.charge(k ** half + k ** rest, "oracle corners")
        block = xi[sl]
        mat, p = factor.digit_matrix().astype(np.float64), factor.p_int()
        total = 1.0 + 0.0j
        if half:
            total *= _corner_sum(_block_table(mat, p, half), block)
        scale = float(p) ** -half
        total *= _corner_sum(_block_table(mat, p, rest) * scale, block)
        out *= total / k ** depth
    return out


# ---------------------------------------------------------------- sampling


def sample_at_once(spec: Spec, depth: int, count: int, seed=0) -> np.ndarray:
    """The sampler's points built whole: (count, total_dim) zeros, then,
    for each factor and each run of block_levels(k, depth) levels in
    turn, the run's block codes drawn for all points and their table rows
    (scaled by p^-start after the first run) added into the points."""
    prod = as_product(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = np.zeros((count, prod.total_dim), dtype=np.float64)
    for f, sl in zip(prod.factors, prod.factor_slices()):
        mat = f.digit_matrix().astype(np.float64)
        p, k = f.p_int(), mat.shape[0]
        b = block_levels(k, depth)
        for start in range(0, depth, b):
            levels = min(b, depth - start)
            code = rng.integers(0, k ** levels, size=count)
            block = np.take(_block_table(mat, p, levels), code, axis=0)
            if start:
                block *= 1 / p ** start
            cols[:, sl] += block
    return cols


def mc_histogram(spec: Spec, depth: int, samples: int, seed, edges, project) -> np.ndarray:
    """The counts of a Monte-Carlo profile with each chunk held whole:
    chunk i of _MC_CHUNK draws drawn by sample_at_once with seed
    (seed, i), projected and binned at once on edges, the chunks'
    counts added in order."""
    from missingdigits.projection import _MC_CHUNK

    return sum(np.histogram(project(sample_at_once(spec, depth, min(_MC_CHUNK, samples - start),
                                                   seed=(seed, i))), bins=edges)[0]
               for i, start in enumerate(range(0, samples, _MC_CHUNK)))


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
    side = 2 * p ** k - 1
    bud.check(side ** n, "S_k window")
    window = np.indices((side,) * n, dtype=np.float64).reshape(n, -1).T - (p ** k - 1)
    values, _ = fourier_transform_batch(spec, window + theta[None, :], tol, bud)
    return float(np.abs(values).sum())


# ---------------------------------------------------------------- projections


def stripe_integral(spec: Spec, theta, R: float, tol: float = 1e-9,
                    budget: EvalBudget | None = None) -> float:
    """Sum of |lambda_hat| over the lattice points of the annulus
    R <= |xi| <= 2R whose directions are nearly orthogonal to theta:
    |(theta, xi/|xi|)| <= 1/R; one direction of stripe_scan.  The
    square |xi|_inf <= floor(2R) around the annulus is checked against
    the budget before its meshgrid is built."""
    _require_plane(spec, "stripe_integral")
    if R < 2:
        raise ConfigError("stripe annulus needs R >= 2")
    theta = _unit_direction(theta)
    bud = ensure_budget(budget)
    top = math.floor(2 * R)
    bud.check((2 * top + 1) ** 2, "annulus square")
    axis = np.arange(-top, top + 1, dtype=np.float64)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    # the annulus exactly: the integer |xi|^2 against ceil(R^2) and floor(4R^2)
    num, den = float(R).as_integer_ratio()
    squares = pts[:, 0] ** 2 + pts[:, 1] ** 2
    keep = ((squares >= -(-num * num // (den * den))) & (squares <= 4 * num * num // (den * den))
            & (np.abs(pts @ theta) <= norms / R))
    if not keep.any():
        return 0.0
    values, _ = fourier_transform_batch(spec, pts[keep], tol, bud)
    return float(np.abs(values).sum())


def radial_l2_norm(spec: Spec, x, delta: float, angle_grid_count: int,
                   budget: EvalBudget | None = None) -> float:
    """Trapezoidal quadrature of f_delta(theta)^2 over the viewing
    sector, f_delta taken at tube-enclosure midpoints.  Bounded in
    delta exactly when the radial pushforward has an L^2 density;
    diverging like 1/delta for an atom."""
    return radial_tube_profile(spec, x, delta, angle_grid_count, budget=budget).l2_squared


def tube_mass_mc(spec: Spec, x, angle: float, half_width: float, samples: int,
                 seed: int = 0, budget: EvalBudget | None = None) -> tuple:
    """Monte-Carlo estimate of lambda(T) for the ray tube T of
    half-width half_width from x in direction angle
    (cylinders._ray_frames), with its binomial standard error; the
    seeded cross-check for cylinder_mass enclosures.

    Sampled points are depth-m digit truncations, displaced from the
    law by up to the cylinder diameter; four levels beyond the tube
    scale keep that bias below the standard error at typical sample
    counts."""
    _require_plane(spec, "tube_mass_mc")
    frames, half_length = _ray_frames(x, [angle], half_width)
    frame = frames[:, 0]  # centre, direction, normal
    depth = _enumeration_depth(spec, half_width) + 4
    pts = sample(spec, depth, samples, seed=seed, budget=budget)
    v = pts - frame[:2]
    along = v @ frame[2:4]
    across = v @ frame[4:]
    inside = (np.abs(along) <= half_length) & (np.abs(across) <= half_width)
    p_hat = float(inside.mean())
    sigma = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return p_hat, sigma
