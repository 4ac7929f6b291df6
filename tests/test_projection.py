import concurrent.futures
import math
import pickle
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from missingdigits import fourier, projection
from missingdigits.fourier import digit_symbol, transform_levels, truncation_depth
from missingdigits.measure import (Draws, as_product, block_levels, draw_cells, sample,
                                   total_dim)
from missingdigits import (BudgetExceededError, ConfigError, DensityProfile,
                           EvalBudget, ProfileAxis, ProfileMethod,
                           cylinder_mass, exceptional_directions, explicit_spec,
                           fourier_transform_batch, lebesgue_spec,
                           linear_density, linear_density_mc,
                           lp_criterion_integral, product, radial_density_mc,
                           parse_spec, radial_tube_profile, slab_integral, square,
                           stripe_scan)
import oracles
from oracles import (mc_histogram, partial_sum_S_k, radial_l2_norm, sample_at_once,
                     stripe_integral, tube_mass_mc)

LEB2 = lebesgue_spec(3, 2)
C32 = square(explicit_spec(3, [0, 2]))
C3 = explicit_spec(3, [0, 2])
ATOM = square(explicit_spec(5, [0]))
SQRT2 = math.sqrt(2.0)


def _leb_angular_density(phis, x=(-1.0, -1.0)):
    """Angular density of the planar Lebesgue pushforward seen from x
    outside the lower-left corner: (r_out^2 - r_in^2)/2 along each ray."""
    out = []
    for phi in np.atleast_1d(phis):
        c, s = math.cos(phi), math.sin(phi)
        if c <= 0 or s <= 0:
            out.append(0.0)
            continue
        t_in = max((0.0 - x[0]) / c, (0.0 - x[1]) / s)
        t_out = min((1.0 - x[0]) / c, (1.0 - x[1]) / s)
        out.append(max(t_out ** 2 - t_in ** 2, 0.0) / 2.0)
    return np.array(out)


def _direct_inversion(spec, theta, u, T_max, tol=1e-9):
    """Reference for linear_density's chirp-z transform: the direct
    O(U T) quadrature sum_k lambda_hat(t_k theta) e^{2 pi i u t_k} dt."""
    theta = np.asarray(theta, dtype=float) / math.hypot(*theta)
    dt = 0.25
    steps = int(round(T_max / dt))
    t = np.arange(-steps, steps + 1) * dt
    values, _ = fourier_transform_batch(spec, t[:, None] * theta[None, :], tol)
    return np.exp(2j * math.pi * np.outer(u, t)) @ (values * dt)


def _annulus(R):
    """The lattice annulus R^2 <= |xi|^2 <= 4R^2, exactly: the integer
    |xi|^2 against ceil(R^2) and floor(4R^2) of the rational R."""
    num, den = float(R).as_integer_ratio()
    top = int(2 * R)
    axis = np.arange(-top, top + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    squares = grid[:, 0] ** 2 + grid[:, 1] ** 2
    keep = (squares >= -(-num * num // (den * den))) & (squares <= 4 * num * num // (den * den))
    return grid[keep].astype(float), np.hypot(grid[keep, 0], grid[keep, 1])


def _triangle_density(u):
    """Density of (X+Y)/sqrt(2) for independent uniforms on [0,1]."""
    s = SQRT2 * np.asarray(u, dtype=float)
    tri = np.where(s <= 1.0, s, 2.0 - s)
    return SQRT2 * np.clip(tri, 0.0, None)


# --------------------------------------------------------------- profiles


def test_profile_validation():
    with pytest.raises(ConfigError):
        DensityProfile(ProfileAxis.ANGLE_ON_SPHERE, [0.0, 0.0, 1.0],
                       [1.0, 1.0, 1.0], ProfileMethod.TUBE_COUNT)
    with pytest.raises(ConfigError):
        DensityProfile(ProfileAxis.ANGLE_ON_SPHERE, [0.0, 1.0],
                       [1.0, -0.5], ProfileMethod.TUBE_COUNT)
    # inversion output may ring below zero
    DensityProfile(ProfileAxis.OFFSET_ON_LINE, [0.0, 1.0], [1.0, -0.5],
                   ProfileMethod.FOURIER_INVERSION)
    with pytest.raises(ConfigError):
        DensityProfile(ProfileAxis.OFFSET_ON_LINE, [0.0, 1.0],
                       [np.nan, 0.0], ProfileMethod.FOURIER_INVERSION)


# ------------------------------------------------------------ radial side


def test_tube_density_matches_strip_area():
    # horizontal tube at mid-height: Lebesgue mass 2*delta, density ~ 2
    delta = 1.0 / 27.0
    lo, hi = cylinder_mass(LEB2, (-1.0, 0.5), 0.0, delta, depth=6)
    assert lo / delta <= 2.0 <= hi / delta
    assert (hi - lo) / delta < 0.1


def test_radial_profile_tracks_angular_density_up_to_range_factor():
    # f_delta(phi) = lambda(tube)/delta ~ (2/r) f(phi): pointwise the
    # profile must stay within the [2/r_max, 2/r_min] band of f
    profile = radial_tube_profile(LEB2, (-1.0, -1.0), 3.0 ** -3, 200)
    f = _leb_angular_density(profile.grid)
    band_lo, band_hi = 2.0 / (2.0 * SQRT2), 2.0 / SQRT2
    sector = f > 0.3  # stay clear of the sector edges
    ratio = profile.values[sector] / f[sector]
    assert band_lo - 0.05 <= ratio.min()
    assert ratio.max() <= band_hi + 0.05


def test_radial_profile_metadata_and_enclosures():
    profile = radial_tube_profile(C32, (-1.0, 0.5), 3.0 ** -3, 80)
    assert profile.method is ProfileMethod.TUBE_COUNT
    assert profile.axis is ProfileAxis.ANGLE_ON_SPHERE
    lower = profile.metadata["lower"]
    upper = profile.metadata["upper"]
    assert np.all(lower <= profile.values + 1e-12)
    assert np.all(profile.values <= upper + 1e-12)
    assert profile.metadata["delta"] == pytest.approx(3.0 ** -3)


def _recorded_pools(monkeypatch) -> list:
    """Returns the list of thread counts of the concurrent.futures pools
    built from now on; projection builds none."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, threads):
            sizes.append(threads)
            super().__init__(threads)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


# three chunks of draws
MC_SAMPLES = 2 * projection._MC_CHUNK + 1000


def test_radial_profile_builds_no_pool_and_repeats_bit_for_bit(monkeypatch):
    # one shared descent for all angles, on the calling thread
    sizes = _recorded_pools(monkeypatch)
    a, b = (radial_tube_profile(C32, (-1.0, 0.5), 3.0 ** -3, 200) for _ in range(2))
    assert sizes == []
    assert np.array_equal(a.metadata["lower"], b.metadata["lower"])
    assert np.array_equal(a.metadata["upper"], b.metadata["upper"])
    assert np.array_equal(a.values, b.values)


CARPET = explicit_spec(3, [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)],
                       n=2)
LEB10 = lebesgue_spec(10, 2)
PAIR_57 = product(explicit_spec(5, [0, 1, 2, 3]), explicit_spec(7, [0, 2, 3, 5, 6]))
# (spec, deepest level drawn): keeps the per-angle oracle fast
DESCENT_SPECS = [(C32, 4), (CARPET, 3), (LEB10, 2), (PAIR_57, 2)]


@st.composite
def viewpoints(draw, delta):
    """Viewpoints all around the square, ones hugging an edge at
    clearance [delta, 1.5 delta], and ones to its right, whose viewing
    sector crosses +-pi."""
    kind = draw(st.sampled_from(["around", "edge", "right"]))
    if kind == "edge":
        t = draw(st.floats(0.0, 1.0))
        gap = delta * draw(st.floats(1.0, 1.5))
        x = [(t, -gap), (1.0 + gap, t), (t, 1.0 + gap), (-gap, t)][draw(st.integers(0, 3))]
    elif kind == "right":
        x = (1.0 + draw(st.floats(delta, 1.5)), draw(st.floats(-0.5, 1.5)))
    else:
        x = (draw(st.floats(-2.5, 3.5)), draw(st.floats(-2.5, 3.5)))
    # 1 + gap may round to a clearance just below delta
    assume(projection._square_clearance(np.array(x)) >= delta)
    return x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), which=st.integers(0, len(DESCENT_SPECS) - 1),
       delta=st.floats(0.02, 0.2), angles=st.integers(2, 12))
def test_shared_descent_equals_per_angle_cylinder_mass(data, which, delta, angles):
    spec, deepest = DESCENT_SPECS[which]
    x = data.draw(viewpoints(delta))
    depth = data.draw(st.integers(0, deepest))
    profile = radial_tube_profile(spec, x, delta, angles, depth=depth)
    oracle = np.array([oracles.cylinder_mass(spec, x, theta, delta, depth)
                       for theta in profile.grid]) / delta
    assert np.array_equal(profile.metadata["lower"], oracle[:, 0])
    assert np.array_equal(profile.metadata["upper"], oracle[:, 1])


def test_radial_profile_of_an_edge_hugging_viewpoint_looks_forward_only():
    # The first angles point away from the square.  A tube centred at x
    # reached behind the viewpoint and counted the mass in direction
    # theta + pi there: [0.225, 0.276] at the first angle.
    x = (0.5, -0.01)
    profile = radial_tube_profile(LEB10, x, 0.01, 41)
    lower, upper = profile.metadata["lower"], profile.metadata["upper"]
    assert profile.grid[0] == pytest.approx(-0.02, abs=1e-3)
    assert upper[0] == 0.0
    for i in (0, 1, 20):
        p_hat, sigma = tube_mass_mc(LEB10, x, profile.grid[i], 0.01, samples=200_000, seed=i)
        assert lower[i] - 4 * sigma / 0.01 <= p_hat / 0.01 <= upper[i] + 4 * sigma / 0.01


def test_tube_density_of_an_edge_hugging_viewpoint_looks_forward_only():
    # The same viewpoint and angle: the reference count of the forward
    # tube is empty there, and the profile's enclosure at each grid
    # angle is that count over delta.
    x = (0.5, -0.01)
    assert oracles.cylinder_mass(LEB10, x, -0.02, 0.01, 3) == (0.0, 0.0)
    profile = radial_tube_profile(LEB10, x, 0.01, 41)
    for i in (0, 1, 20, 40):
        lo, hi = oracles.cylinder_mass(LEB10, x, profile.grid[i], 0.01, 3)
        assert lo / 0.01 == profile.metadata["lower"][i]
        assert hi / 0.01 == profile.metadata["upper"][i]


def test_radial_l2_norm_stability_references():
    # Lebesgue: delta-stable; atom: grows at least 2x per delta step
    leb = [radial_l2_norm(LEB2, (-1.0, -1.0), 3.0 ** -k, 250) for k in (3, 4)]
    assert abs(leb[1] / leb[0] - 1.0) <= 0.10
    atom = [radial_l2_norm(ATOM, (-1.0, 0.5), 5.0 ** -k, 800) for k in (3, 4)]
    assert atom[1] / atom[0] >= 2.0


def test_radial_profile_requires_clearance():
    with pytest.raises(ConfigError):
        radial_tube_profile(C32, (0.5, 0.5), 0.01, 50)
    with pytest.raises(ConfigError):  # outside, but nearer than delta
        radial_tube_profile(C32, (1.005, 0.5), 0.01, 50)


def test_radial_mc_matches_analytic_density():
    profile = radial_density_mc(LEB2, (-1.0, -1.0), 400_000, 0.01, seed=9)
    f = _leb_angular_density(profile.grid)
    l1 = float(np.trapezoid(np.abs(profile.values - f), profile.grid))
    assert l1 < 0.03
    assert profile.metadata["coverage"] == 1.0
    assert profile.flags == ()
    assert abs(profile.mass - 1.0) <= 0.02


def test_radial_mc_seed_changes_values():
    a = radial_density_mc(C32, (-1.0, 0.5), 50_000, 0.01, seed=3)
    b = radial_density_mc(C32, (-1.0, 0.5), 50_000, 0.01, seed=4)
    assert not np.array_equal(a.values, b.values)


def test_radial_mc_rejects_inside_viewpoint():
    with pytest.raises(ConfigError):
        radial_density_mc(LEB2, (0.5, 0.5), 1000, 0.01)


# ------------------------------------------------------------ linear side


def test_linear_density_triangle_law():
    u = np.arange(-0.05, SQRT2 + 0.0501, 0.005)
    profile = linear_density(LEB2, (1.0, 1.0), u, 81.0)
    l1 = float(np.trapezoid(np.abs(profile.values - _triangle_density(u)), u))
    assert l1 < 0.01
    assert abs(profile.mass - 1.0) <= 0.02
    assert profile.flags == ()
    assert profile.metadata["imag_l1"] < 1e-8


def test_linear_density_mc_triangle_law():
    profile = linear_density_mc(LEB2, (1.0, 1.0), 300_000, 0.01, seed=2)
    f = _triangle_density(profile.grid)
    l1 = float(np.trapezoid(np.abs(profile.values - f), profile.grid))
    assert l1 < 0.03
    assert abs(profile.mass - 1.0) <= 0.02


def test_linear_density_coordinate_direction_flagged():
    u = np.arange(-0.1, 1.1001, 0.002)
    profile = linear_density(C32, (1.0, 0.0), u, 243.0)
    assert "NonConvergent" in profile.flags
    assert abs(profile.mass - 1.0) <= 0.02
    slopes = profile.metadata["shell_slopes"][-3:]
    assert all(s >= 0 for s in slopes)


def test_linear_density_requires_wide_cutoff():
    with pytest.raises(ConfigError):
        linear_density(LEB2, (1.0, 1.0), np.linspace(0, 1, 50), 0.5)


def test_linear_density_matches_direct_sum():
    theta = (math.cos(0.9), math.sin(0.9))
    u = np.linspace(-0.3, 1.6, 381)
    ledger = EvalBudget()
    profile = linear_density(C32, theta, u, 729.0, tol=1e-9, budget=ledger)
    direct = _direct_inversion(C32, theta, u, 729.0)
    bound = profile.metadata["inversion_rounding_bound"]
    assert 0.0 < bound < 1e-8 * np.abs(direct.real).max()
    assert np.abs(profile.values - direct.real).max() <= bound + 1e-9
    # cells proportional to the FFT length, the next power of two >= N + U - 1
    assert ledger.cells["ray inversion"] == 8192


def test_linear_density_refuses_unequal_or_single_point_grid():
    # refused before the transform is evaluated: a one-cell budget would
    # otherwise raise BudgetExceededError first
    u = np.linspace(0.0, 1.0, 101)
    u[50] += 1e-9
    for grid in (u, np.array([0.5]), np.linspace(1.0, 0.0, 11)):
        with pytest.raises(ConfigError):
            linear_density(LEB2, (1.0, 1.0), grid, 81.0, budget=EvalBudget(1))


def _mc_twice(monkeypatch, estimate, located, seed):
    """Runs `estimate` on MC_SAMPLES draws twice; checks that neither run
    builds a pool and that both give the same profile and charge the
    same cells, and returns the profile."""
    sizes = _recorded_pools(monkeypatch)
    runs = []
    for _ in range(2):
        budget = EvalBudget()
        runs.append((estimate(C32, located, MC_SAMPLES, 0.01, seed=seed, budget=budget),
                     budget.cells))
    assert sizes == []
    (a, a_cells), (b, b_cells) = runs
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.values, b.values)
    assert a.metadata == b.metadata
    assert a_cells == b_cells == {"digit draws": draw_cells(C32, a.metadata["depth"],
                                                            MC_SAMPLES)}
    return a


def test_radial_mc_builds_no_pool_and_repeats_its_profile_and_cells(monkeypatch):
    _mc_twice(monkeypatch, radial_density_mc, (-1.0, 0.5), seed=3)


def test_linear_mc_builds_no_pool_and_equals_the_chunk_by_chunk_histogram(monkeypatch):
    seed, chunk = 6, projection._MC_CHUNK
    profile = _mc_twice(monkeypatch, linear_density_mc, (2.0, 1.0), seed)
    # serial reference: chunk i drawn with seed (seed, i), the chunks
    # joined in order and binned once on the profile's edges
    meta = profile.metadata
    theta = np.array(meta["direction"])
    offsets = np.concatenate([
        sample(C32, meta["depth"], min(chunk, MC_SAMPLES - start), seed=(seed, i)) @ theta
        for i, start in enumerate(range(0, MC_SAMPLES, chunk))])
    edges = np.linspace(*meta["window"], len(profile.grid) + 1)
    counts, _ = np.histogram(offsets, bins=edges)
    assert np.array_equal(profile.values, counts / (MC_SAMPLES * (edges[1] - edges[0])))


# sample counts off every multiple of the chunk and of the sub-block
MC_COUNTS = [7, projection._MC_BLOCK + 3, projection._MC_CHUNK + 3 * projection._MC_BLOCK + 5]


def _radial_angles(x, window):
    def project(pts):
        ang = np.arctan2(pts[:, 1] - x[1], pts[:, 0] - x[0])
        return np.where(ang < 0, ang + 2 * math.pi, ang) if window[1] > math.pi else ang
    return project


@pytest.mark.parametrize("samples", MC_COUNTS)
@pytest.mark.parametrize("spec", [C32, CARPET, PAIR_57], ids=["C3^2", "carpet", "(5,7)"])
def test_mc_profiles_bin_every_draw_as_whole_chunks_do(spec, samples):
    # the sub-blocks change no count: the linear profile, and the radial
    # one from below the square and from (2, 0.5), whose window is
    # unwrapped across pi as mc-radial's is
    linear = linear_density_mc(spec, (0.6, 0.8), samples, 0.002, seed=5)
    meta = linear.metadata
    edges = np.linspace(*meta["window"], len(linear.grid) + 1)
    counts = mc_histogram(spec, meta["depth"], samples, 5, edges,
                          lambda pts: pts @ np.array(meta["direction"]))
    assert np.array_equal(linear.values, counts / (samples * (edges[1] - edges[0])))
    for x in ((0.3, -1.0), (2.0, 0.5)):
        radial = radial_density_mc(spec, x, samples, 0.002, seed=5)
        meta = radial.metadata
        assert (meta["window"][1] > math.pi) == (x[0] > 1)
        edges = np.linspace(*meta["window"], len(radial.grid) + 1)
        counts = mc_histogram(spec, meta["depth"], samples, 5, edges,
                              _radial_angles(x, meta["window"]))
        assert np.array_equal(radial.values, counts / (samples * (edges[1] - edges[0])))


def test_mc_bins_draws_on_the_edges_as_np_histogram_does():
    # one-digit draws of Lebesgue base 4, shifted by 1/4, fall on the
    # edges 1/4, 1/2, 3/4 (left-closed bins) and on the last edge 1 (in
    # the last bin); -1/4 falls outside the window
    spec = lebesgue_spec(4, 2)
    for shift in (0.25, -0.25):
        def project(pts):
            return pts[:, 0] + shift
        profile = projection._mc_profile(spec, ProfileAxis.OFFSET_ON_LINE, 1, (0.0, 1.0),
                                         project, MC_COUNTS[-1], 0.25, 9, None, direction=(1, 0))
        edges = np.linspace(0.0, 1.0, 5)
        counts = mc_histogram(spec, 1, MC_COUNTS[-1], 9, edges, project)
        assert np.array_equal(profile.values, counts / (MC_COUNTS[-1] * 0.25))
        if shift > 0:  # draws at 1 count in the last bin
            assert counts[0] == 0 and counts.sum() == MC_COUNTS[-1]
        else:  # draws at -1/4 in none
            assert counts[-1] == 0 and 0 < counts.sum() < MC_COUNTS[-1]


def test_mc_binning_counts_as_np_histogram_on_and_beside_the_edges():
    # ATOM's draws are all 0; project puts the chunk's draws on the given
    # offsets: every edge, its nextafter neighbours, the closed last edge,
    # offsets outside the window and uniform ones, for random windows and
    # bandwidths (so random linspace edges, up to 2^13 bins)
    rng = np.random.default_rng(35)
    for _ in range(100):
        lo = rng.uniform(-5.0, 5.0)
        window = (lo, lo + 10.0 ** rng.uniform(-3.0, 1.0))
        bandwidth = (window[1] - window[0]) / rng.integers(2, 1 << 13) * rng.uniform(0.9, 1.1)
        nbins = max(2, math.ceil((window[1] - window[0]) / bandwidth))
        edges = np.linspace(*window, nbins + 1)
        span = window[1] - window[0]
        x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                            rng.uniform(window[0] - span, window[1] + span, 1000)])
        x = rng.permutation(x)[:projection._MC_BLOCK]
        profile = projection._mc_profile(ATOM, ProfileAxis.OFFSET_ON_LINE, 1, window,
                                         lambda pts: x[:len(pts)], len(x), bandwidth, 0, None,
                                         direction=(1, 0))
        assert np.array_equal(profile.grid, 0.5 * (edges[:-1] + edges[1:]))
        width = edges[1] - edges[0]
        assert np.array_equal(profile.values,
                              np.histogram(x, bins=edges)[0] / (len(x) * width))


def test_draws_hold_codes_in_the_smallest_unsigned_type():
    # k^b reaches 4096 for 64 digits (two bytes); a short last run and one
    # digit take one byte; a factor of 99,999 digits draws one level per
    # code, up to 99,998, which needs four
    wide = parse_spec("factor { base = 100000; digits = 0..99998; }")
    for spec, depth, sizes in ((CARPET, 9, [2, 2, 1]), (explicit_spec(64, range(64)), 3, [2, 1]),
                               (ATOM, 4, [1, 1]), (wide, 2, [4, 4])):
        draws = Draws(spec, depth, 1000, seed=(3, 1))
        assert [code.dtype.itemsize for *_, code in draws.terms] == sizes
        assert all(code.dtype.kind == "u" for *_, code in draws.terms)
        assert np.array_equal(draws.points(0, 1000).view(np.uint64),
                              sample_at_once(spec, depth, 1000, seed=(3, 1)).view(np.uint64))
    assert max(int(code.max()) for *_, code in draws.terms) >= 1 << 16


@pytest.mark.parametrize("spec, depth", [(C3, 20), (C32, 13), (CARPET, 7), (PAIR_57, 9),
                                         (LEB10, 5)])
def test_sample_builds_the_whole_chunk_points_bit_for_bit(spec, depth):
    for count in (1, 1000, projection._MC_BLOCK + 17):
        assert np.array_equal(sample(spec, depth, count, seed=(3, 1)).view(np.uint64),
                              sample_at_once(spec, depth, count, seed=(3, 1)).view(np.uint64))


def test_an_mc_chunk_holds_its_codes_and_one_sub_block():
    # a chunk held whole peaked at 7.1 MiB here: its (2^17, 2) points,
    # each run's table rows, the offsets from the viewpoint and the
    # angles, 2 MiB each or half that; the chunk now holds its two-byte
    # codes, one per draw and run of levels (and one run's int64 draw
    # while it is cast), and builds, projects and bins 2^14 points at a
    # time; 1.6 MiB against a bound of 2 MiB
    samples = projection._MC_CHUNK
    radial_density_mc(CARPET, (2.0, 0.5), samples, 0.002)  # imports and caches first
    tracemalloc.start()
    try:
        profile = radial_density_mc(CARPET, (2.0, 0.5), samples, 0.002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    runs = math.ceil(profile.metadata["depth"] / block_levels(8, profile.metadata["depth"]))
    assert peak < 2 * samples * runs + 8 * samples + 32 * projection._MC_BLOCK


def test_linear_mc_takes_a_whole_float_sample_count():
    whole = linear_density_mc(C32, (1.0, 1.0), 2000, 0.01)
    floating = linear_density_mc(C32, (1.0, 1.0), 2000.0, 0.01)
    assert np.array_equal(floating.grid, whole.grid)
    assert np.array_equal(floating.values, whole.values)
    assert floating.metadata == whole.metadata


def test_linear_mc_refuses_its_bins_before_drawing():
    # 5 draws fit the budget, about 1.4e5 bins of width 1e-5 do not
    budget = EvalBudget(10_000)
    with pytest.raises(BudgetExceededError, match="histogram bins"):
        linear_density_mc(C32, (1.0, 1.0), 5, 1e-5, budget=budget)
    assert budget.spent == 0


def test_linear_density_checks_the_ray_levels_it_is_charged():
    theta = np.array([1.0, 2.0]) / math.sqrt(5.0)
    ledger = EvalBudget()
    linear_density(C32, theta, np.linspace(0.0, 1.0, 11), 100.0, budget=ledger)
    # the points up to t = 0 are evaluated; the rest are their negations
    steps = 400
    assert ledger.cells["transform levels"] == (
        (steps + 1) * transform_levels(C32, steps * 0.25 * theta))
    # the same check refuses a ray whose levels the budget cannot pay for
    ray = ledger.cells["ray inversion"]
    budget = EvalBudget(ray + (steps + 1) * 10)
    with pytest.raises(BudgetExceededError, match="transform levels"):
        linear_density(C32, theta, np.linspace(0.0, 1.0, 11), 100.0, budget=budget)
    assert budget.spent == ray


# ------------------------------------------------------------ lattice sums


def test_lp_integral_lebesgue_collapses_to_origin_cell():
    diag = lp_criterion_integral(LEB2, 2, 64)
    assert diag.partial == pytest.approx(1.0, abs=1e-9)
    assert not diag.non_convergent
    assert diag.dyadic_slopes[0] < -10.0


def test_lp_integral_atom_grows_like_full_dimension():
    # |transform| = 1 everywhere: shells grow like R^(n - 1/p) = R^1.5
    diag = lp_criterion_integral(ATOM, 2, 256)
    assert diag.non_convergent
    for slope in diag.dyadic_slopes[-3:]:
        assert slope == pytest.approx(1.5, abs=0.05)


def test_lp_integral_cantor_line_converges():
    diag = lp_criterion_integral(C3, 2, 256)
    assert not diag.non_convergent
    assert diag.partial < 10.0


def test_lp_integral_validation():
    with pytest.raises(ConfigError):
        lp_criterion_integral(C3, 2, 100)  # not a power of two
    with pytest.raises(ConfigError):
        lp_criterion_integral(C3, 0, 64)


def test_lp_integral_budget():
    with pytest.raises(BudgetExceededError):
        lp_criterion_integral(C32, 2, 1024, budget=EvalBudget(10_000))


def _lp_batch_reference(spec, p_exp, R_max, budget=None):
    """The ball sum by the per-point batch path: one meshgrid of the box,
    cut to the ball, transformed as one batch and summed at once."""
    n_shells = 1 + math.ceil(math.log(R_max) / math.log(2))
    axis = np.arange(-R_max, R_max + 1)
    box = np.stack(np.meshgrid(*[axis] * total_dim(spec), indexing="ij"), axis=-1)
    box = box.reshape(-1, total_dim(spec))
    ball = box[(box ** 2).sum(axis=1) <= R_max * R_max].astype(float)
    values, _ = fourier_transform_batch(spec, ball, 1e-9, budget)
    norms = np.sqrt((ball ** 2).sum(axis=1))
    w = np.abs(values) * np.maximum(norms, 1.0) ** (-1.0 / p_exp)
    totals, slopes = projection._shell_diagnostics(norms, w, n_shells=n_shells)
    return projection.LatticeDiagnostics(float(w.sum()), totals, slopes), ball


def _lp_half_ball_reference(spec, p_exp, R_max, tol=1e-9):
    """The ball sum by its formula, from one meshgrid of the box: on the
    half-ball (the origin and the points whose first nonzero coordinate
    is positive, in C order), each factor's levels multiplied from 1 at
    its coordinates, then the factors from 1; weights doubled off the
    origin; each row of xi_1 binned into the shells and the rows' sums
    added in order; the partial sum the rounded sum of the shells.
    Also returns the cells it is charged: per 1-D factor with levels
    whose coordinate's range holds at most half as many values as the
    half-ball has points, that range times its levels plus one gather
    per point; per other factor, its levels (at least one) per point."""
    prod = as_product(spec)
    n = prod.total_dim
    n_shells = 1 + math.ceil(math.log(R_max) / math.log(2))
    axis = np.arange(-R_max, R_max + 1)
    box = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    first = box[:, 0] if n == 1 else np.where(box[:, 0] != 0, box[:, 0], box[:, 1])
    pts = box[((box ** 2).sum(axis=1) <= R_max * R_max) & (first >= 0)].astype(float)
    values = np.ones(pts.shape[0], dtype=complex)
    cells = 0
    for factor, sl in zip(prod.factors, prod.factor_slices()):
        depth = truncation_depth(factor, float(R_max), tol / len(prod.factors))
        levels = np.ones(pts.shape[0], dtype=complex)
        for j in range(1, depth + 1):
            levels *= digit_symbol(factor, pts[:, sl] / float(factor.p_int()) ** j)
        values *= levels
        span = R_max + 1 if sl.start == 0 else 2 * R_max + 1
        tabled = factor.ambient_dim == 1 and depth and span <= len(pts) / 2
        cells += span * depth + len(pts) if tabled else len(pts) * max(depth, 1)
    norms = np.sqrt((pts ** 2).sum(axis=1))
    w = np.abs(values) * np.maximum(norms, 1.0) ** (-1.0 / p_exp)
    w[norms > 0] *= 2.0
    edges = 2.0 ** np.arange(n_shells)
    row = pts[:, 0].astype(int) if n == 2 else np.zeros(len(pts), dtype=int)
    rows = np.bincount(row * n_shells + np.searchsorted(edges, norms), w,
                       (row[-1] + 1) * n_shells).reshape(-1, n_shells)
    totals = np.zeros(n_shells)
    for row_totals in rows:
        totals += row_totals
    diag = projection.LatticeDiagnostics(math.fsum(totals), tuple(float(t) for t in totals),
                                         projection._floored_slopes(totals, 2))
    return diag, cells


@pytest.mark.parametrize("spec, R_max", [(C3, 256), (C32, 128), (LEB2, 256)])
def test_lp_integral_walks_the_meshgrid_ball_bit_for_bit(spec, R_max):
    budget = EvalBudget()
    diag = lp_criterion_integral(spec, 2, R_max, budget=budget)
    reference, cells = _lp_half_ball_reference(spec, 2, R_max)
    assert pickle.dumps(diag) == pickle.dumps(reference)
    assert budget.spent == cells
    # the plane's tables and one gather per point and factor cost far
    # less than the levels of every point of the mirrored batch; the
    # line has no table and pays the levels of its half
    batch = EvalBudget()
    _lp_batch_reference(spec, 2, R_max, batch)
    assert budget.spent < batch.spent / 10 if total_dim(spec) == 2 else budget.spent == batch.spent


@pytest.mark.parametrize("spec", [C3, C32, LEB2, CARPET, ATOM, PAIR_57],
                         ids=["C3", "C3^2", "L3^2", "carpet", "atom", "(5,7)"])
def test_lp_integral_is_within_rounding_of_the_per_point_batch(spec):
    # Both paths multiply the same computed symbols, L = sum of the
    # depths of them per point, in different orders, then take the same
    # modulus and weight: each weight is within (6 L + 4) u of the
    # other's (complex products err by at most 2 sqrt(2) u each).  The
    # weights are positive, so any order of summing N of them is within
    # N u of their exact sum.  Hence the bound, relative to the total.
    R_max = 128
    diag = lp_criterion_integral(spec, 2, R_max)
    reference, ball = _lp_batch_reference(spec, 2, R_max)
    levels = sum(truncation_depth(f, float(R_max), 1e-9 / len(as_product(spec).factors))
                 for f in as_product(spec).factors)
    bound = (6 * levels + 4 + 2 * ball.shape[0]) * 2.0 ** -53
    assert abs(diag.partial - reference.partial) <= bound * reference.partial
    for new, old in zip(diag.shell_totals, reference.shell_totals):
        assert abs(new - old) <= bound * old
    assert len(diag.dyadic_slopes) == len(reference.dyadic_slopes)


def test_lp_integral_charges_the_carpet_no_more_than_its_mirrored_batch():
    # the carpet's 2-D factor has no per-axis table: it pays its levels
    # at every point of the half-ball, which is the batch's evaluated half
    budget, batch = EvalBudget(), EvalBudget()
    lp_criterion_integral(CARPET, 2, 128, budget=budget)
    _lp_batch_reference(CARPET, 2, 128, batch)
    assert budget.spent <= batch.spent


def test_lp_integral_completes_within_the_budget_its_mirrored_ball_needs():
    # the 411,737 points of the half-ball, two gathers each, and the
    # 513 + 1025 entries of the axis tables at 27 levels
    budget = EvalBudget(30_000_000)
    lp_criterion_integral(C32, 2, 512, budget=budget)
    assert budget.spent == 2 * 411_737 + (513 + 1025) * 27 == 865_000


def test_lp_integral_refuses_an_unaffordable_ball_before_any_transform(monkeypatch):
    # the whole half-ball's cells (3,380,170 at R = 1024) are charged
    # before any table or block is built
    monkeypatch.setattr(fourier, "digit_symbol",
                        lambda *args: pytest.fail("ball transformed past the budget"))
    budget = EvalBudget(3_380_169)
    with pytest.raises(BudgetExceededError, match="transform levels needs 3380170 cells"):
        lp_criterion_integral(C32, 2, 1024, budget=budget)
    assert budget.spent == 0


def test_lp_integral_refuses_an_oversized_ball_before_building_it(monkeypatch):
    monkeypatch.setattr(fourier, "digit_symbol",
                        lambda *args: pytest.fail("ball transformed past the budget"))
    budget = EvalBudget(200)
    # the half diamond |xi|_1 <= 16 inside the half-ball holds 273 points
    with pytest.raises(BudgetExceededError, match="lattice ball needs 273 cells"):
        lp_criterion_integral(C32, 2, 16, budget=budget)
    assert budget.spent == 0


def test_lp_integral_holds_one_block_of_the_ball_at_a_time():
    # the R = 512 ball of C3^2 has 823,473 points, 12.6 MiB as frequency
    # rows, and its batch peaked 58 MiB above them; the walk holds O(R)
    # tables and row lengths (some 40 KiB here) and blocks of at most
    # LATTICE_BLOCK points: a block's rows, values and the temporaries
    # of its weights while the next is built, under 192 bytes a point
    tracemalloc.start()
    try:
        lp_criterion_integral(C32, 2, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 192 * fourier.LATTICE_BLOCK


def _base_digits(m, base):
    """Number of base-`base` digits of the integer m >= 0 (0 for m = 0)."""
    count = 0
    while m:
        m //= base
        count += 1
    return count


def test_shell_count_is_exact():
    # for an integer top >= 1, base^s >= top exactly when top - 1 has at
    # most s digits in base `base`
    for base in range(2, 41):
        tops = {1, 2, 3, base - 1, base + 1}
        for s in range(1, 64):
            if base ** s > 2 ** 53:
                break
            tops |= {base ** s - 1, base ** s, base ** s + 1, base ** s // 2 + 1}
        for top in tops:
            expected = _base_digits(top - 1, base)
            assert projection._shell_count(top, base) == expected
            if float(top) == top:
                assert projection._shell_count(float(top), base) == expected
    assert projection._shell_count(0.0, 2) == projection._shell_count(0.5, 2) == 0
    # floating point log ratios overshoot here (ceil gives 30 shells)
    assert math.ceil(math.log(2 ** 29) / math.log(2)) == 30
    assert projection._shell_count(2 ** 29, 2) == 29
    # the shell counts of the benchmark's lp-256, slab-2048 and ld-generic
    assert projection._shell_count(256, 2) == 8
    assert projection._shell_count(2048.0, 2) == 11
    assert projection._shell_count(6561.0, 3) == 8


# ----------------------------------------------------------------- stripes


def test_stripe_coordinate_exceeds_generic():
    coord = stripe_integral(C32, (1.0, 0.0), 27.0)
    generic = stripe_integral(C32, (math.cos(0.61), math.sin(0.61)), 27.0)
    assert coord / generic >= 3.0


class _Checks(EvalBudget):
    """A budget that remembers the cells it was asked to check, by label."""

    __slots__ = ("checked",)

    def __init__(self):
        super().__init__()
        self.checked = {}

    def check(self, cells, what="evaluation"):
        self.checked[what] = int(cells)
        super().check(cells, what)


def test_half_annulus_and_its_negation_are_the_meshgrid_annulus(monkeypatch):
    for block in (fourier.LATTICE_BLOCK, 97):
        monkeypatch.setattr(fourier, "LATTICE_BLOCK", block)
        # the last two round an irrational norm up: sqrt(8) and sqrt(50)
        for R in (2.0, 5.5, 27.0, 40.0, 40.3, 81.0, 2.8284271247461903, 7.0710678118654755):
            pts, _ = _annulus(R)
            budget = _Checks()
            blocks = [points for points, _ in fourier.half_annulus(C32, R, 1e-9, budget)]
            walked = np.concatenate(blocks)
            # whole rows of xi_1 in C order, the first nonzero coordinate positive
            assert all(a[-1, 0] < b[0, 0] for a, b in zip(blocks, blocks[1:]))
            assert np.array_equal(np.lexsort((walked[:, 1], walked[:, 0])),
                                  np.arange(len(walked)))
            assert ((walked[:, 0] > 0) | ((walked[:, 0] == 0) & (walked[:, 1] > 0))).all()
            both = np.concatenate([walked, -walked])
            assert np.array_equal(both[np.lexsort((both[:, 1], both[:, 0]))], pts)
            # the half diamond ring checked first lies inside the half-annulus
            assert 0 < budget.checked["lattice annulus"] <= len(walked)


def test_half_annulus_check_is_a_lower_bound_of_its_points():
    for R in np.linspace(2.0, 60.0, 233):
        budget = _Checks()
        walked = sum(len(points) for points, _ in fourier.half_annulus(C32, R, 1e-9, budget))
        assert budget.checked["lattice annulus"] <= walked == len(_annulus(R)[0]) // 2
    # the half diamond rings 3 <= |xi|_1 <= 4 and 115 <= |xi|_1 <= 162
    for R, ring in ((2.0, 14), (81.0, 13_296)):
        budget = _Checks()
        fourier.half_annulus(C32, R, 1e-9, budget)
        assert budget.checked["lattice annulus"] == ring


@pytest.mark.parametrize("R", [1e12, 1e150])
def test_stripe_scan_refuses_a_huge_annulus_before_building_it(monkeypatch, R):
    # its row tables alone would hold 2R entries; the half diamond ring
    # is counted in Python integers and refused first
    monkeypatch.setattr(fourier, "digit_symbol",
                        lambda *args: pytest.fail("annulus transformed past the budget"))
    budget = EvalBudget()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="lattice annulus needs"):
            stripe_scan(C32, R, 64, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert budget.spent == 0
    assert peak < 1 << 16


def test_stripe_scan_charges_the_walk_of_its_half_annulus():
    # stripe-81: the 30,922 points of the half-annulus, one gather each
    # per factor, the 163- and 325-entry axis tables at 26 levels each,
    # and one binning cell per point and angle
    ledger = EvalBudget()
    stripe_scan(C32, 81.0, 256, budget=ledger)
    assert ledger.cells == {"transform levels": 2 * 30_922 + (163 + 325) * 26,
                            "stripe binning": 30_922 + 256}
    assert ledger.spent == 105_710


def test_stripe_scan_matches_single_integrals():
    angles, values = stripe_scan(C32, 16.0, 8)
    for a, v in zip(angles[::3], values[::3]):
        single = stripe_integral(C32, (math.cos(a), math.sin(a)), 16.0)
        assert v == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("R, angle_count", [
    (16.0, 8),                             # stripes narrower than the spacing
    (27.0, int(round(math.pi * 27.0))),    # neighbouring stripes just touch
    (2.0, 1), (2.0, 3), (5.5, 7), (40.0, 256), (81.0, 256), (300.0, 64),
])
def test_stripe_scan_matches_brute_mask(R, angle_count):
    ledger = EvalBudget()
    angles, values = stripe_scan(C32, R, angle_count, budget=ledger)
    pts, norms = _annulus(R)
    mags = np.abs(fourier_transform_batch(C32, pts)[0])
    brute = np.array([mags[np.abs(pts @ (math.cos(a), math.sin(a))) <= norms / R].sum()
                      for a in angles])
    assert np.abs(values - brute).max() <= 1e-12 * max(brute.max(), 1.0)
    # one binning cell per angle and per walked point, half the annulus
    assert ledger.cells["stripe binning"] == len(pts) // 2 + angle_count


def test_exceptional_directions_contain_coordinate_axis():
    *_, dirs = exceptional_directions(C32, 27.0, 0.05, 0.7376, angle_count=64)
    assert any(abs(d[0] - 1.0) < 1e-12 and abs(d[1]) < 1e-12 for d in dirs)
    assert len(dirs) < 64  # most directions are unexceptional


@pytest.mark.parametrize("eps", [0.0, -0.05])
def test_exceptional_directions_refuse_eps_before_the_scan(eps):
    # the scan would exceed this budget; the refusal of eps comes first
    with pytest.raises(BudgetExceededError):
        stripe_scan(C32, 27.0, 64, budget=EvalBudget(1000))
    with pytest.raises(ConfigError, match="eps must be positive"):
        exceptional_directions(C32, 27.0, eps, 0.7376, 64, budget=EvalBudget(1000))


def test_stripe_net_multiplicity_bounded():
    # stripes over a 1/R-separated direction net cover each lattice
    # point at most ~C times: their sum is <= 8x the annulus total
    R = 27.0
    angles, values = stripe_scan(C32, R, int(round(math.pi * R)))
    transform, _ = fourier_transform_batch(C32, _annulus(R)[0])
    annulus_total = float(np.abs(transform).sum())
    assert values.sum() <= 8.0 * annulus_total


# -------------------------------------------------------------------- slab


def test_slab_walked_in_blocks_matches_one_block(monkeypatch):
    # every sum that is built or walked in blocks (the slab's columns,
    # the stripe's half-annulus and the lp half-ball), and those of the
    # S_k window and the ray, at the default block and at 97 points a block
    sums = (lambda budget: slab_integral(C32, (1.0, 1.2345), 2048.0, budget=budget),
            lambda budget: stripe_scan(C32, 27.0, 64, budget=budget),
            lambda budget: partial_sum_S_k(C32, (0.3, 0.1), 3, budget=budget),
            lambda budget: lp_criterion_integral(C32, 2, 64, budget=budget),
            lambda budget: linear_density(C32, (1.0, 2.0), np.linspace(0.0, 1.0, 11),
                                          100.0, budget=budget))
    whole = []
    for compute in sums:
        budget = EvalBudget()
        whole.append((pickle.dumps(compute(budget)), budget.spent))
    monkeypatch.setattr(fourier, "LATTICE_BLOCK", 97)
    monkeypatch.setattr(projection, "LATTICE_BLOCK", 97)
    for compute, expected in zip(sums, whole):
        budget = EvalBudget()
        assert (pickle.dumps(compute(budget)), budget.spent) == expected


def test_slab_refused_once_its_kept_points_outgrow_the_budget(monkeypatch):
    # about half the columns of direction (1, 2) lie in the slab; the
    # refusal comes from the running check, before the transform
    monkeypatch.setattr(projection, "fourier_transform_batch",
                        lambda *args: pytest.fail("slab transformed past the budget"))
    budget = EvalBudget(100_000)
    with pytest.raises(BudgetExceededError, match="transform levels"):
        slab_integral(C32, (1.0, 2.0), 20_000.0, budget=budget)
    assert budget.spent == 0


@pytest.mark.parametrize("theta", [(1.0, 0.0), (0.0, 1.0)])
def test_slab_of_a_coordinate_direction_evaluates_half_its_mirrored_columns(theta):
    # all 4,097 columns lie in the slab, column T - i the bitwise
    # negation of column i - T: the batch evaluates 2,049 at 30 levels
    budget = EvalBudget()
    slab_integral(C32, theta, 2048.0, budget=budget)
    assert budget.spent == 2_049 * 30 == 61_470


def test_slab_flags_split_by_direction():
    coord = slab_integral(C32, (1.0, 0.0), 2048.0)
    generic = slab_integral(C32, (1.0, 1.2345), 2048.0)
    assert coord.non_convergent
    assert not generic.non_convergent
    assert coord.partial > 50.0 * generic.partial
