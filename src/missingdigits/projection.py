"""Projections of missing-digits measures and their convergence diagnostics.

Two projection families are estimated for planar (total dimension 2)
measures.  The radial projection from a viewpoint x outside the unit
square pushes the measure onto the circle of directions; its density is
the weak limit of tube densities

    f_delta(theta) = lambda(T) / delta^(n-1),

where T is the tube of transverse half-width delta around the ray from
x in direction theta.  Tube masses come from cylinder enclosures, so
f_delta is computed as a rigorous interval and reported at the
midpoint.  The linear projection onto a unit direction theta has
Fourier transform t -> lambda_hat(t * theta); its density is recovered
by the inverse transform

    density(u) = integral_{-T}^{T} lambda_hat(t theta) e^{2 pi i u t} dt

whenever that integral converges absolutely.  For singular measures it
may not: the one-dimensional ray integral of |lambda_hat| can keep
growing (coordinate directions of product measures are the canonical
offenders), and every estimator here therefore carries a shell-growth
diagnosis.  Shell totals of the relevant |lambda_hat| sums are reported
together with their log-slopes; when the last three slopes are all
nonnegative the result is flagged NonConvergent rather than silently
averaged.

Monte-Carlo estimators (seeded, chunked, reproducible however their
draws are split) provide cross-checks for both families, and
annulus stripe sums detect the exceptional directions along which the
lattice mass of |lambda_hat| refuses to decay.  Monte-Carlo draws run
in chunks on the calling thread, each binned where it is drawn and the
chunks' counts added; a tube profile is one cylinder descent shared by
all of its angles, on the calling thread too.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .budget import EvalBudget, ensure_budget
from .errors import ConfigError
from .fourier import (LATTICE_BLOCK, fourier_transform_batch, half_annulus, half_ball,
                      transform_levels)
from .measure import Draws, Spec, as_product, draw_cells, total_dim
from .value import Value

# Fixed step for the inverse-transform quadrature along a ray.  The
# quadrature aliases the density with period 1/step; the projected
# support of a measure on [0,1]^2 spans at most sqrt(2), so 1/4 leaves
# a comfortable guard band around any sensible u-grid.
LINEAR_QUADRATURE_STEP = 0.25

# linear_density's u-grid may deviate from an exact arithmetic
# progression by this fraction of its span (linspace and arange stay
# near 1e-16).
GRID_SPACING_RTOL = 1e-12

# Fraction of a tube half-width (or bandwidth) that sampling-depth
# truncation is allowed to perturb a Monte-Carlo point by.
_MC_DEPTH_SLACK = 8.0

_UNIT_SQUARE_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

_MC_CHUNK = 1 << 17

# Draws per sub-block of a Monte-Carlo chunk: the rows that are built,
# projected and binned at once, so that a chunk holds its codes but not
# its points and their temporaries.
_MC_BLOCK = 1 << 14


class ProfileAxis(enum.Enum):
    ANGLE_ON_SPHERE = "AngleOnSphere"
    OFFSET_ON_LINE = "OffsetOnLine"


class ProfileMethod(enum.Enum):
    TUBE_COUNT = "TubeCount"
    MONTE_CARLO = "MonteCarlo"
    FOURIER_INVERSION = "FourierInversion"


class DensityProfile(Value):
    """A sampled density on a 1-D grid: angles on the circle for radial
    projections, offsets along a line for linear ones.

    `values` are nonnegative for counting estimators; Fourier inversion
    may dip below zero (truncation ripple), which is permitted and the
    minimum recorded by the producer in `metadata`.  `metadata` also
    carries resolution, truncation, seed and diagnostic information and
    never participates in equality."""

    _fields = ("axis", "grid", "values", "method", "metadata")
    _compared = _fields[:4]

    def __init__(self, axis, grid, values, method, metadata=None):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ConfigError("profile grid and values must be equal-length 1-D")
        if not np.all(np.diff(grid) > 0):
            raise ConfigError("profile grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ConfigError("profile values must be finite")
        if method is not ProfileMethod.FOURIER_INVERSION and values.min() < 0:
            raise ConfigError("counting profiles cannot be negative")
        self._set(axis=axis, grid=grid, values=values, method=method,
                  metadata=dict(metadata or {}))

    @property
    def mass(self) -> float:
        """Trapezoidal integral of the profile over its grid."""
        return float(np.trapezoid(self.values, self.grid))

    @property
    def l2_squared(self) -> float:
        """Trapezoidal integral of the squared profile over its grid."""
        return float(np.trapezoid(self.values ** 2, self.grid))

    @property
    def flags(self) -> tuple:
        return tuple(self.metadata.get("flags", ()))


# ------------------------------------------------------------ shell slopes


class LatticeDiagnostics(Value):
    """A partial sum of |lambda_hat| weights together with its
    dyadic-shell decomposition.  Shell k collects radii in
    (2^(k-1), 2^k] (shell 0 takes [0, 1]); `dyadic_slopes` are the
    base-2 log ratios of consecutive shell totals.  Nonnegative slopes
    across the last three shells mean the partial sums are still
    growing: `non_convergent` is then set."""

    _fields = ("partial", "shell_totals", "dyadic_slopes")

    def __init__(self, partial: float, shell_totals: tuple, dyadic_slopes: tuple):
        self._set(partial=partial, shell_totals=shell_totals, dyadic_slopes=dyadic_slopes)

    @property
    def non_convergent(self) -> bool:
        return _still_growing(self.shell_totals, self.dyadic_slopes)


def _still_growing(totals, slopes) -> bool:
    """Nonnegative slopes across the last three shells, with a last
    shell that actually carries weight: exactly-vanishing tail shells
    (their slopes are floored to 0) mean the sum has converged, not
    that it keeps growing."""
    tail = tuple(slopes)[-3:]
    if len(tail) < 3 or any(s < 0.0 for s in tail):
        return False
    totals = tuple(totals)
    top = max(totals) if totals else 0.0
    return totals[-1] > 1e-12 * top


def _shell_count(top, base: int) -> int:
    """Smallest s >= 0 with base^s >= top, compared exactly (Python int
    against int or float): shells 0..s hold every radius up to top."""
    top = top if isinstance(top, int) else float(top)
    s = 0
    while base ** s < top:
        s += 1
    return s


def _shell_diagnostics(radii, weights, base=2, n_shells=None):
    radii = np.asarray(radii, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if n_shells is None:
        n_shells = 1 + _shell_count(radii.max(initial=0.0), base)
    edges = float(base) ** np.arange(n_shells)
    idx = np.searchsorted(edges, radii, side="left")
    totals = np.bincount(idx, weights=weights, minlength=n_shells)[:n_shells]
    return tuple(float(t) for t in totals), _floored_slopes(totals, base)


def _floored_slopes(totals: np.ndarray, base) -> tuple:
    """Base-log ratios of consecutive shell totals.  Slopes of
    exactly-vanishing shells (e.g. Lebesgue off the zero frequency) are
    floored instead of -inf so they serialize cleanly."""
    floor = max(totals.max(initial=0.0), 1.0) * 1e-30
    logs = np.log(np.maximum(totals, floor)) / math.log(base)
    return tuple(float(s) for s in np.diff(logs))


# -------------------------------------------------------------- radial side


def _viewing_sector(x: np.ndarray) -> tuple:
    """Angular interval (a span < pi) subtended by the unit square from
    the outside viewpoint x, unwrapped so lo < hi even across the +-pi
    cut."""
    angles = np.arctan2(_UNIT_SQUARE_CORNERS[:, 1] - x[1], _UNIT_SQUARE_CORNERS[:, 0] - x[0])
    if angles.max() - angles.min() > math.pi:
        angles = np.where(angles < 0, angles + 2 * math.pi, angles)
    return float(angles.min()), float(angles.max())


def _square_clearance(x: np.ndarray) -> float:
    gaps = np.maximum(np.maximum(-x, x - 1.0), 0.0)
    return float(np.hypot(gaps[0], gaps[1]))


def _corner_distances(x: np.ndarray) -> np.ndarray:
    return np.hypot(*(_UNIT_SQUARE_CORNERS - x).T)


def _require_plane(spec: Spec, what: str):
    if total_dim(spec) != 2:
        raise ConfigError(f"{what} requires a measure of total dimension 2")


def _enumeration_depth(spec: Spec, scale: float) -> int:
    """Smallest cylinder depth whose cells are finer than scale/4 in
    every factor: 0, the unit cube itself, once scale >= 4.  A scale so
    small that 4/scale overflows (or scale underflowed to 0) has no
    finite depth and is refused."""
    prod = as_product(spec)
    scale = float(scale)
    ratio = 4.0 / min(scale, 4.0) if scale > 0 else math.inf
    if not math.isfinite(ratio):
        raise ConfigError(f"scale {scale!r} is too small for a finite cylinder depth")
    return max(math.ceil(math.log(ratio) / math.log(f.p_int())) for f in prod.factors)


def radial_tube_profile(spec: Spec, x, delta: float, angle_grid_count: int,
                        depth: int | None = None,
                        budget: EvalBudget | None = None) -> DensityProfile:
    """Tube-density profile theta -> f_delta(theta) at enclosure
    midpoints, over the viewing sector of the unit square padded by two
    tube windows.  Lower/upper enclosure curves ride along in the
    metadata.  The viewpoint must clear the unit square by at least
    delta.

    f_delta(theta) counts the ray tube of half-width delta from x in
    direction theta (cylinders._ray_frames).
    All angles share one depth-first descent over (box, angle) pairs,
    run on the calling thread (cylinders.ray_tube_masses).  Its
    enclosures equal cylinder_mass's for each grid angle's tube bit for
    bit, and it is charged one cell per (box, angle) pair, as the
    per-angle descents would be.  The arrays over the angles are checked
    against the budget (cylinders.ray_tube_cells) before the grid is
    built."""
    from .cylinders import ray_tube_cells, ray_tube_masses

    _require_plane(spec, "radial_tube_profile")
    x = np.asarray(x, dtype=float)
    if delta <= 0:
        raise ConfigError("tube half-width must be positive")
    if _square_clearance(x) < delta:
        raise ConfigError(
            "viewpoint must clear the unit square by at least the tube half-width"
        )
    if angle_grid_count < 2:
        raise ConfigError("angle grid needs at least two points")
    if depth is None:
        depth = _enumeration_depth(spec, delta)
    bud = ensure_budget(budget)
    bud.check(ray_tube_cells(angle_grid_count, depth), "tube angles")
    lo_a, hi_a = _viewing_sector(x)
    r_min = _corner_distances(x).min()
    pad = 2.0 * delta / r_min
    grid = np.linspace(lo_a - pad, hi_a + pad, angle_grid_count)
    if not np.all(np.diff(grid) > 0):
        # from far enough away the sector is narrower than the float
        # spacing of its angles, and linspace repeats them
        raise ConfigError("viewing sector is too narrow for distinct angles: "
                          "move the viewpoint closer or use fewer angles")

    lower, upper = ray_tube_masses(spec, x, delta, grid, depth, bud)
    bounds = np.stack([lower, upper], axis=1) / delta
    mid = bounds.mean(axis=1)
    meta = {
        "delta": delta,
        "depth": depth,
        "sector": (lo_a, hi_a),
        "viewpoint": tuple(x),
        "lower": bounds[:, 0],
        "upper": bounds[:, 1],
    }
    return DensityProfile(ProfileAxis.ANGLE_ON_SPHERE, grid, mid,
                          ProfileMethod.TUBE_COUNT, meta)


def _mc_profile(spec: Spec, axis: ProfileAxis, depth: int, window: tuple, project,
                samples: int, bandwidth: float, seed, budget, **located) -> DensityProfile:
    """The Monte-Carlo histogram profile shared by the radial and linear
    estimators; `located` is the one metadata entry that places the
    projection (its viewpoint or direction).

    Chunk i of _MC_CHUNK draws always draws with seed (seed, i) and is
    projected and binned where it is drawn, on the calling thread.  A
    chunk holds its digit codes (measure.Draws) and builds, projects and
    bins its points _MC_BLOCK rows at a time, counting the draws below
    each edge as np.histogram does with fixed edges, without its
    per-call checks.  Fixed edges decide each draw on its own and the
    integer counts of the sub-blocks and chunks add exactly, so the
    profile does not depend on how the draws are split.

    No pool runs the chunks.  At the benchmark's 4M draws a pool of one
    thread per core cost each run about 3 MiB of peak RSS (the
    concurrent.futures import and the threads' arenas) and saved wall
    time on 2 cores only in some sweeps; it paid 1.5x and more from
    about 8M draws, where no benchmark job runs (CHANGES.md has the
    figures)."""
    if int(samples) != samples or samples < 1:
        raise ConfigError("Monte-Carlo sampling needs a positive whole sample count")
    samples = int(samples)
    bud = ensure_budget(budget)
    # the draws of all chunks, as Draws charges them, and the bins on
    # top of them, before any chunk is drawn
    draws = draw_cells(spec, depth, samples)
    bud.check(draws, "digit draws")
    nbins = max(2, math.ceil((window[1] - window[0]) / bandwidth))
    bud.check(draws + nbins, "histogram bins")
    edges = np.linspace(window[0], window[1], nbins + 1)
    starts = range(0, samples, _MC_CHUNK)

    def binned(i):
        count = min(_MC_CHUNK, samples - starts[i])
        chunk = Draws(spec, depth, count, seed=(seed, i), budget=bud)
        # draws below each edge (the last one included), as np.histogram
        # counts them with explicit edges: a sort and a search per edge
        below = np.zeros(nbins + 1, dtype=np.int64)
        for lo in range(0, count, _MC_BLOCK):
            x = np.sort(project(chunk.points(lo, min(count, lo + _MC_BLOCK))))
            below[:-1] += x.searchsorted(edges[:-1], "left")
            below[-1] += x.searchsorted(edges[-1], "right")
        return np.diff(below)

    counts = sum(map(binned, range(len(starts))))
    width = edges[1] - edges[0]
    coverage = float(counts.sum() / samples)
    meta = {
        "samples": samples,
        "bandwidth": bandwidth,
        "bin_width": width,
        "seed": seed,
        "depth": depth,
        "rng": "PCG64",
        "window": window,
        "coverage": coverage,
        **located,
        "flags": [] if coverage >= 1.0 else ["WindowClipped"],
    }
    return DensityProfile(axis, 0.5 * (edges[:-1] + edges[1:]), counts / (samples * width),
                          ProfileMethod.MONTE_CARLO, meta)


def radial_density_mc(spec: Spec, x, samples: int, bandwidth: float, seed: int = 0,
                      budget: EvalBudget | None = None) -> DensityProfile:
    """Histogram estimate of the radial pushforward density on the
    circle: sampled points y are mapped to the angle of (y - x) and
    binned at the given angular bandwidth.  Values integrate to one
    over the window (exactly, as a step function) whenever the window
    covers the image; the covered fraction is recorded."""
    _require_plane(spec, "radial_density_mc")
    x = np.asarray(x, dtype=float)
    if _square_clearance(x) <= 0.0:
        raise ConfigError("viewpoint must lie outside the unit square")
    if bandwidth <= 0:
        raise ConfigError("bandwidth must be positive")
    r_min = _corner_distances(x).min()
    depth = max(1, _enumeration_depth(spec, bandwidth * r_min * 4.0 / _MC_DEPTH_SLACK))
    lo_a, hi_a = _viewing_sector(x)
    window = (lo_a - 3 * bandwidth, hi_a + 3 * bandwidth)

    def project(pts):
        v = pts - x
        ang = np.arctan2(v[:, 1], v[:, 0])
        if window[1] > math.pi:  # sector was unwrapped across the cut
            ang = np.where(ang < 0, ang + 2 * math.pi, ang)
        return ang

    return _mc_profile(spec, ProfileAxis.ANGLE_ON_SPHERE, depth, window, project,
                       samples, bandwidth, seed, budget, viewpoint=tuple(x))


def linear_density_mc(spec: Spec, theta, samples: int, bandwidth: float, seed: int = 0,
                      budget: EvalBudget | None = None) -> DensityProfile:
    """Histogram estimate of the density of the projection
    y -> (y, theta): the Monte-Carlo cross-check for linear_density."""
    _require_plane(spec, "linear_density_mc")
    theta = _unit_direction(theta)
    if bandwidth <= 0:
        raise ConfigError("bandwidth must be positive")
    depth = max(1, _enumeration_depth(spec, bandwidth * 4.0 / _MC_DEPTH_SLACK))
    proj_corners = _UNIT_SQUARE_CORNERS @ theta
    window = (float(proj_corners.min()) - 3 * bandwidth,
              float(proj_corners.max()) + 3 * bandwidth)
    return _mc_profile(spec, ProfileAxis.OFFSET_ON_LINE, depth, window, lambda pts: pts @ theta,
                       samples, bandwidth, seed, budget, direction=tuple(theta))


# -------------------------------------------------------------- linear side


def _unit_direction(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2,):
        raise ConfigError("direction must be a 2-vector")
    if not np.all(np.isfinite(theta)):
        raise ConfigError("direction must be finite")
    norm = float(np.hypot(theta[0], theta[1]))
    if norm == 0.0:
        raise ConfigError("direction must be nonzero")
    return theta / norm


def _common_shell_base(spec: Spec) -> int:
    """Shells aligned with the measure's own base stay in phase with
    its self-similarity lambda_hat(p xi) = g(xi) lambda_hat(xi); mixed
    bases fall back to dyadic shells."""
    bases = {f.p_int() for f in as_product(spec).factors}
    return bases.pop() if len(bases) == 1 else 2


def _equal_spacing(u_grid) -> tuple:
    """(u_0, du, deviation) of an increasing, equally spaced grid: the
    largest distance of a grid point from u_0 + j du.  Anything else is
    refused before the caller does any work."""
    if u_grid.ndim != 1 or u_grid.size < 2:
        raise ConfigError("u_grid needs at least two points")
    if not np.all(np.isfinite(u_grid)):
        raise ConfigError("u_grid must be finite")
    span = float(u_grid[-1] - u_grid[0])
    if not span > 0.0:
        raise ConfigError("u_grid must be increasing")
    du = span / (u_grid.size - 1)
    deviation = float(np.max(np.abs(u_grid - (u_grid[0] + np.arange(u_grid.size) * du))))
    if deviation > GRID_SPACING_RTOL * span:
        raise ConfigError("u_grid must be equally spaced (linspace or arange)")
    return float(u_grid[0]), du, deviation


def _half_turns(x) -> np.ndarray:
    """exp(i pi x), with x reduced mod 2 first so large phases lose no
    more than the rounding of x itself."""
    return np.exp(1j * math.pi * np.mod(x, 2.0))


def _ray_length(size: int, count: int) -> int:
    """FFT length of the ray inversion: the smallest power of two that
    holds the linear convolution of size weights with count outputs."""
    return 1 << (size + count - 2).bit_length()


def _ray_inversion(weights, dt, u_0, du, count, deviation):
    """Chirp-z (Bluestein) evaluation of

        sum_k weights_k exp(2 pi i u_j t_k),  t_k = (k - S) dt,  u_j = u_0 + j du,

    for j < count, with N = 2S + 1 weights.  Both index ranges are
    centred (k' = k - S, j' = j - J) so the chirp phases stay small, and
    j' k' = (j'^2 + k'^2 - (k' - j')^2) / 2 turns the sum into one
    linear convolution, done by zero-padded FFTs of a power-of-two
    length L >= N + count - 1: O(L log L) time, O(L) memory.

    Returns the sums and an a-priori bound on their rounding error,
    including the error of evaluating at u_0 + j du rather than at grid
    points that deviate from it by up to `deviation`."""
    size = weights.size
    half = (size - 1) // 2
    centre_j = (count - 1) // 2
    length = _ray_length(size, count)
    # u_j t_k = centre_u k' dt + alpha j' k'; phases below are in half-turns
    alpha = du * dt
    centre_u = u_0 + centre_j * du
    k = np.arange(-half, half + 1, dtype=np.float64)
    pre = weights * _half_turns(2.0 * centre_u * dt * k + alpha * k * k)
    m = np.arange(-half - centre_j, half + count - centre_j, dtype=np.float64)
    chirp = _half_turns(-alpha * m * m)
    conv = np.fft.ifft(np.fft.fft(pre, length) * np.fft.fft(chirp, length))
    j = np.arange(count, dtype=np.float64) - centre_j
    sums = conv[size - 1:size - 1 + count] * _half_turns(alpha * j * j)

    # Rounding, to first order in the unit roundoff u.  FFT: Higham,
    # Accuracy and Stability of Numerical Algorithms (2nd ed.), Thm
    # 24.2: a radix-2 transform of length 2^t has relative 2-norm error
    # t (u + gamma_4 (sqrt 2 + u)) <= 7 t u =: tau.  Through the
    # pointwise product and the inverse transform, with |chirp| = 1 on
    # n = N + count - 1 entries, that is tau (n |w|_2 + 2 sqrt(n) |w|_1)
    # + 3 u sqrt(n) |w|_1.  Each phase x of exp(i pi x) is computed in
    # at most four roundings (pi u |x| each) and reduced, multiplied by
    # pi and exponentiated with ~8u more; three of them meet each term,
    # and each of the three products adds ~3u.
    unit = np.finfo(np.float64).eps / 2.0
    tau = 7.0 * math.log2(length) * unit
    n = size + count - 1
    l1 = float(np.abs(weights).sum())
    l2 = float(np.sqrt(np.sum(np.abs(weights) ** 2)))
    j_max = max(centre_j, count - 1 - centre_j)
    phases = (2.0 * abs(centre_u) * dt * half
              + alpha * (half ** 2 + (half + j_max) ** 2 + j_max ** 2))
    bound = (tau * (n * l2 + 2.0 * math.sqrt(n) * l1) + 3.0 * unit * math.sqrt(n) * l1
             + l1 * unit * (4.0 * math.pi * phases + 3.0 * 8.0 + 3.0 * 3.0)
             + l1 * 2.0 * math.pi * deviation * half * dt)
    return sums, bound


def linear_density(spec: Spec, theta, u_grid, T_max: float, tol: float = 1e-9,
                   budget: EvalBudget | None = None) -> DensityProfile:
    """Density of the projection y -> (y, theta) by inverse-transform
    quadrature over t in [-T_max, T_max] at step LINEAR_QUADRATURE_STEP.

    u_grid must be equally spaced (within GRID_SPACING_RTOL of its
    span, as linspace and arange give) with at least two points: the
    quadrature sum is then a chirp-z transform, evaluated by FFT in
    O((U + T) log(U + T)) time and O(U + T) memory.  Its a-priori
    rounding bound is recorded as `inversion_rounding_bound`.

    The real part is returned on u_grid; the imaginary part must cancel
    by conjugate symmetry and its trapezoidal L1 residue is recorded
    (flag ImagResidue past 10*tol).  Shell totals of |lambda_hat(t
    theta)| dt diagnose absolute convergence: nonnegative slopes over
    the last three shells flag the profile NonConvergent (coordinate
    directions of product measures are the canonical case)."""
    _require_plane(spec, "linear_density")
    theta = _unit_direction(theta)
    u_grid = np.asarray(u_grid, dtype=float)
    u_0, du, deviation = _equal_spacing(u_grid)
    if not 1 < T_max < math.inf:
        raise ConfigError("T_max must be finite and exceed 1")
    bud = ensure_budget(budget)
    dt = LINEAR_QUADRATURE_STEP
    steps = int(round(T_max / dt))
    # charged and checked before t is built, so a huge T_max is refused at
    # once: the batch evaluates the steps + 1 points up to t = 0 at its ends' levels
    bud.charge(_ray_length(2 * steps + 1, u_grid.size), "ray inversion")
    bud.check((steps + 1) * transform_levels(spec, steps * dt * theta, tol), "transform levels")
    k = np.arange(-steps, steps + 1)
    values, _ = fourier_transform_batch(spec, k[:, None] * dt * theta[None, :], tol, bud)
    t = k * dt
    density, rounding = _ray_inversion(values * dt, dt, u_0, du, u_grid.size, deviation)
    real = density.real
    imag_l1 = float(np.trapezoid(np.abs(density.imag), u_grid))
    mass = float(np.trapezoid(real, u_grid))

    base = _common_shell_base(spec)
    totals, slopes = _shell_diagnostics(np.abs(t), np.abs(values) * dt, base=base)
    flags = []
    if _still_growing(totals, slopes):
        flags.append("NonConvergent")
    if imag_l1 > 10.0 * tol:
        flags.append("ImagResidue")
    meta = {
        "direction": tuple(theta),
        "T_max": T_max,
        "quadrature_step": dt,
        "tol": tol,
        "mass": mass,
        "imag_l1": imag_l1,
        "inversion_rounding_bound": rounding,
        "shell_base": base,
        "shell_totals": totals,
        "shell_slopes": slopes,
        "min_value": float(real.min()),
        "flags": flags,
    }
    return DensityProfile(ProfileAxis.OFFSET_ON_LINE, u_grid, real,
                          ProfileMethod.FOURIER_INVERSION, meta)


# ------------------------------------------------------------ lattice sums


def lp_criterion_integral(spec: Spec, p_exp: int, R_max: int, tol: float = 1e-9,
                          budget: EvalBudget | None = None) -> LatticeDiagnostics:
    """Unit-lattice quadrature of |lambda_hat(xi)| |xi|^(-1/p_exp) over
    |xi| <= R_max, with dyadic shell totals and slopes.

    Convergence of this sum as R_max grows is the L^p criterion for the
    projected densities; negative slopes across the last shells signal
    the geometric decay that makes it converge.  The singular weight is
    capped at 1 inside the unit ball (the origin cell's exact integral
    is finite and the same for every probability measure).

    |lambda_hat(-xi)| = |lambda_hat(xi)| bit for bit (the mirror is the
    conjugate), so the sum walks the half-ball of fourier.half_ball,
    block by block in O(R_max) memory, and counts each point but the
    origin twice.  The weights of each row of xi_1 go into the shells by
    one bincount, and the rows' shell sums are added in row order, so
    the sums do not depend on how the rows are cut into blocks; the
    partial sum is the correctly rounded sum of the shell totals."""
    if int(p_exp) != p_exp or p_exp < 1:
        raise ConfigError("p_exp must be an integer >= 1")
    R_max = int(R_max)
    if R_max < 2 or R_max & (R_max - 1):
        raise ConfigError("R_max must be a power of 2")
    bud = ensure_budget(budget)
    n = total_dim(spec)
    if n not in (1, 2):
        raise ConfigError("lattice-ball sums need a measure of total dimension 1 or 2")
    n_shells = 1 + _shell_count(R_max, 2)
    edges = 2.0 ** np.arange(n_shells)
    totals = np.zeros(n_shells)
    for pts, values in half_ball(spec, R_max, tol, bud):
        norms = np.sqrt((pts * pts).sum(axis=1))
        w = np.abs(values) * np.maximum(norms, 1.0) ** (-1.0 / p_exp)
        w[norms > 0.0] *= 2.0  # the point and its mirror -xi
        key = np.searchsorted(edges, norms, side="left")
        rows = 1
        if n == 2:
            row = (pts[:, 0] - pts[0, 0]).astype(np.int64)
            key += row * n_shells
            rows = int(row[-1]) + 1
        for row_totals in np.bincount(key, w, rows * n_shells).reshape(rows, n_shells):
            totals += row_totals
    return LatticeDiagnostics(math.fsum(totals), tuple(float(t) for t in totals),
                              _floored_slopes(totals, 2))


def stripe_scan(spec: Spec, R: float, angle_count: int, tol: float = 1e-9,
                budget: EvalBudget | None = None):
    """Stripe sums at angle_count directions theta_i = i pi / angle_count
    over a half turn (stripes are symmetric under theta -> -theta): the
    sum of |lambda_hat| over the lattice points xi of the annulus
    R <= |xi| <= 2R, decided exactly (fourier.half_annulus), whose
    directions are nearly orthogonal to theta, |(theta, xi/|xi|)| <= 1/R.
    Returns (angles, values).

    |lambda_hat(-xi)| = |lambda_hat(xi)| bit for bit and -xi lies in the
    stripes of xi, so the sum walks fourier.half_annulus, a block at a
    time, with weight 2 |lambda_hat| per point.  Each point's stripes
    form one contiguous run of angle indices (_stripe_runs), and the
    runs are summed with a wrapped difference array whose ends are
    added point after point in the walk's order (np.add.at), so the
    sums do not depend on the blocks: O(points + angles).  Binning is
    charged a cell per angle and per point ("stripe binning")."""
    _require_plane(spec, "stripe_scan")
    if R < 2:
        raise ConfigError("stripe annulus needs R >= 2")
    if angle_count < 1:
        raise ConfigError("angle_count must be positive")
    bud = ensure_budget(budget)
    walk = half_annulus(spec, R, tol, bud)  # refuses an annulus it cannot pay for
    bud.charge(angle_count, "stripe binning")
    angles = np.arange(angle_count) * math.pi / angle_count
    cos, sin = np.cos(angles), np.sin(angles)
    opens, closes = np.zeros(2 * angle_count + 1), np.zeros(2 * angle_count + 1)
    for pts, values in walk:
        bud.charge(pts.shape[0], "stripe binning")
        first, run = _stripe_runs(pts, R, cos, sin)
        weights = 2.0 * np.abs(values)  # the point and its mirror -xi
        np.add.at(opens, first, weights)
        np.add.at(closes, first + run, weights)
    total = np.cumsum((opens - closes)[:2 * angle_count])
    return angles, total[:angle_count] + total[angle_count:]


def _stripe_runs(pts: np.ndarray, R: float, cos: np.ndarray, sin: np.ndarray) -> tuple:
    """(first, run) per point: its first stripe's angle index (mod the
    angle count) and its run's length.  xi lies in the stripe of theta
    exactly when theta is within arcsin(1/R) of arg xi + pi/2 (mod pi);
    the two candidate indices at each end of the run are settled with
    the stripe predicate |(theta, xi)| <= |xi|/R itself."""
    angle_count = cos.size
    limit = np.hypot(pts[:, 0], pts[:, 1]) / R

    def member(i):
        i = np.mod(i, angle_count)
        return np.abs(pts[:, 0] * cos[i] + pts[:, 1] * sin[i]) <= limit

    step = math.pi / angle_count
    reach = math.asin(1.0 / R)
    centre = np.mod(np.arctan2(pts[:, 1], pts[:, 0]) + 0.5 * math.pi, math.pi)
    lo = np.ceil((centre - reach) / step).astype(np.int64)
    hi = np.floor((centre + reach) / step).astype(np.int64)
    first = np.where(member(lo - 1), lo - 1, np.where(member(lo), lo, lo + 1))
    last = np.where(member(hi + 1), hi + 1, np.where(member(hi), hi, hi - 1))
    # An empty run (a stripe narrower than the angle spacing) adds
    # nothing; with one angle, lo - 1 and hi + 1 are that angle again.
    return np.mod(first, angle_count), np.clip(last - first + 1, 0, angle_count)


def exceptional_directions(spec: Spec, R: float, eps: float, s1: float,
                           angle_count: int, tol: float = 1e-9,
                           budget: EvalBudget | None = None) -> tuple:
    """(threshold, angles, sums, directions): the stripe_scan of the
    annulus at angle_count directions, and the unit vectors of the
    scanned angles whose stripe sum reaches threshold =
    R^(n - 1 - s1 + 2 eps), s1 being a certified l1-dimension lower
    bound.  For measures with decaying generic directions this isolates
    the coordinate-like rays along which |lambda_hat| keeps its mass.
    eps, R and the threshold are checked before the scan is paid for."""
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if R < 2:
        raise ConfigError("stripe annulus needs R >= 2")
    try:
        threshold = float(R) ** (total_dim(spec) - 1 - s1 + 2 * eps)
    except OverflowError as exc:
        raise ConfigError("exceptional threshold R^(n-1-s1+2eps) overflows") from exc
    angles, sums = stripe_scan(spec, R, angle_count, tol, budget)
    directions = [(math.cos(a), math.sin(a)) for a, v in zip(angles, sums) if v >= threshold]
    return threshold, angles, sums, directions


def slab_integral(spec: Spec, theta, T_max: float, tol: float = 1e-9,
                  budget: EvalBudget | None = None) -> LatticeDiagnostics:
    """Lattice sum of |lambda_hat| over the slab of frequencies nearly
    orthogonal to theta, {|(theta, xi)| <= 1/200, |xi| <= T_max}, with
    dyadic growth diagnosis.  The slab is the frequency support
    relevant to the projection onto theta: a convergent slab sum gives
    the projected density a continuous version, while coordinate
    directions of product measures make it diverge."""
    _require_plane(spec, "slab_integral")
    theta = _unit_direction(theta)
    if T_max < 2:
        raise ConfigError("T_max must be at least 2")
    T = int(math.floor(T_max))
    bud = ensure_budget(budget)
    # The slab half-width 1/200 is < 1/2, so along the thicker axis each
    # column holds at most one candidate lattice row.
    if abs(theta[1]) >= abs(theta[0]):
        lead, other = 0, 1
    else:
        lead, other = 1, 0

    # the batch evaluates at least one of each mirrored pair: half the
    # kept points (rounded up) times the largest levels are checked as they grow
    bud.check(2 * T + 1, "slab columns")
    parts, count, levels = [], 0, 0
    for start in range(0, 2 * T + 1, LATTICE_BLOCK):
        cols = np.arange(start, min(2 * T + 1, start + LATTICE_BLOCK), dtype=np.float64) - T
        block = np.empty((cols.size, 2))
        block[:, lead] = cols
        block[:, other] = np.round(-theta[lead] * cols / theta[other])
        block = block[(np.abs(block @ theta) <= 1.0 / 200.0)
                      & ((block ** 2).sum(axis=1) <= T_max * T_max)]
        parts.append(block)
        count += block.shape[0]
        levels = max(levels, transform_levels(spec, block, tol))
        bud.check(-(-count // 2) * levels, "transform levels")
    pts = np.concatenate(parts)
    values, _ = fourier_transform_batch(spec, pts, tol, bud)
    mags = np.abs(values)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    totals, slopes = _shell_diagnostics(norms, mags, base=2, n_shells=1 + _shell_count(T_max, 2))
    return LatticeDiagnostics(float(mags.sum()), totals, slopes)
