import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingdigits import (BudgetExceededError, EvalBudget, cylinder_mass, cylinders,
                           explicit_spec, lebesgue_spec, product, radial_tube_profile,
                           ray_tube_masses, square)
from missingdigits.cylinders import (_clear_columns, _distinct, _normal_codes, _normal_work,
                                     _ray_frames, _tube_codes, _tube_terms, _Tree)
from oracles import tube_mass_mc

C32 = square(explicit_spec(3, [0, 2]))
LEB2 = lebesgue_spec(3, 2)
CARPET = explicit_spec(3, [(a, b) for a in range(3) for b in range(3) if (a, b) != (1, 1)], n=2)
PAIR57 = product(explicit_spec(5, [0, 2, 4]), explicit_spec(7, [1, 3, 6]))


# ------------------------------------------------------------------ tubes


def test_ray_tube_reaches_forward_only():
    x = (0.5, -0.01)
    frames, half_length = _ray_frames(x, [2.0], 0.01)  # up-left, across the square
    assert half_length == pytest.approx((math.hypot(*x) + math.sqrt(2.0)) / 2.0)
    along = np.subtract(x, frames[:2, 0]) @ frames[2:4, 0]
    assert along == pytest.approx(-half_length)  # x is the tube's back end
    assert cylinder_mass(LEB2, x, 2.0, 0.01, depth=5)[0] > 0.01
    # down-right, away from the square
    assert cylinder_mass(LEB2, x, 2.0 - math.pi, 0.01, depth=5) == (0.0, 0.0)


def test_ray_tube_wider_than_long_keeps_half_width_within_half_length():
    assert _ray_frames((-100.0, -100.0), [0.8], 200.0)[1] == 200.0


SPARSE = explicit_spec(10, [(i, 3 * i % 10) for i in range(10)], n=2)


@pytest.mark.parametrize("spec", [C32, LEB2, CARPET, SPARSE,
                                  product(explicit_spec(5, [0, 1, 3]), explicit_spec(7, [2, 6]))])
def test_grid_offsets_are_numpy_unique_bit_for_bit(spec):
    tree = _Tree(spec)
    for level in range(1, 6):
        for offsets in tree.offsets(level).T:
            distinct, index = _distinct(offsets)
            expected, inverse = np.unique(offsets, return_inverse=True)
            assert np.array_equal(distinct.view(np.uint64), expected.view(np.uint64))
            assert np.array_equal(index, inverse)


def _elementwise_codes(low_x, low_y, sides, terms, half_length, half_width):
    """The tube predicate computed box by box: 0 outside, 1 inside,
    2 straddling, for boxes with low corners (low_x, low_y) of one shape
    and terms broadcast to it."""
    hx, hy = sides / 2.0
    ox, oy, tx, ty, wx, wy, rad_t, rad_w, ext_x, ext_y = terms
    cx = low_x + hx - ox
    cy = low_y + hy - oy
    proj_t = np.abs(cx * tx + cy * ty)
    proj_w = np.abs(cx * wx + cy * wy)
    inside = (proj_t + rad_t <= half_length) & (proj_w + rad_w <= half_width)
    sep = (proj_t - rad_t > half_length) | (proj_w - rad_w > half_width)
    sep |= np.abs(cx) - hx > ext_x
    sep |= np.abs(cy) - hy > ext_y
    codes = np.full(cx.shape, 2, dtype=np.int8)
    codes[sep] = 0
    codes[inside] = 1
    return codes


def _grid_of_tubes(x, angles, half_width, sides, rows, cols):
    """Terms (10, P) of the tubes from x at the given angles, and the
    grid rows (p_x, P) and columns (p_y, P) of low corners that give
    every tube the boxes (rows[i], cols[j])."""
    frames, half_length = _ray_frames(x, angles, half_width)
    terms = _tube_terms(frames, sides, half_length, half_width)
    count = len(angles)
    return (terms, half_length, np.repeat(np.asarray(rows)[:, None], count, axis=1),
            np.repeat(np.asarray(cols)[:, None], count, axis=1))


def _assert_codes_equal(low_x, low_y, sides, terms, half_length, half_width):
    inside, straddle = _tube_codes(low_x, low_y, sides, terms, half_length, half_width)
    full_x = np.broadcast_to(low_x[:, None, :], inside.shape)
    full_y = np.broadcast_to(low_y[None, :, :], inside.shape)
    # one tube: (10,) terms; one tube per parent: (10, 1, 1, P)
    per_box = terms if terms.ndim == 1 else terms[:, None, None, :]
    codes = _elementwise_codes(full_x, full_y, sides, per_box, half_length, half_width)
    assert np.array_equal(inside, codes == 1)
    assert np.array_equal(straddle, codes == 2)
    return codes


def test_tube_codes_per_grid_axis_equal_the_box_by_box_predicate():
    rng = np.random.default_rng(11)
    sides = np.array([3.0 ** -3, 7.0 ** -3])
    # random boxes against random tubes, one tube per parent column
    terms, half_length, low_x, low_y = _grid_of_tubes(
        (-0.6, 0.2), rng.uniform(-1.0, 1.0, 57), 0.05, sides, rng.random(13), rng.random(9))
    low_x += rng.random(low_x.shape) * 0.01
    codes = _assert_codes_equal(low_x, low_y, sides, terms, half_length, 0.05)
    assert {0, 1, 2} <= set(np.unique(codes))
    # one tube for the whole grid, as cylinder_mass classifies
    _assert_codes_equal(low_x, low_y, sides, terms[:, 3], half_length, 0.05)


def test_tube_codes_per_grid_axis_equal_the_box_by_box_predicate_on_tube_edges():
    # Tubes whose long edges pass through corners of depth-3 boxes of
    # the lattice of 27ths: the boxes beside each edge are ties of the
    # predicate, up to rounding.
    x, delta = (-1.0, -0.7), 0.05
    lattice = np.arange(28) / 27.0
    corners = np.array([(a, b) for a in lattice for b in lattice]) - x
    phi = np.arctan2(corners[:, 1], corners[:, 0])
    tangent = np.arcsin(delta / np.hypot(corners[:, 0], corners[:, 1]))
    angles = np.concatenate([phi - tangent, phi + tangent])
    sides = np.array([1.0 / 27.0, 1.0 / 27.0])
    terms, half_length, low_x, low_y = _grid_of_tubes(x, angles, delta, sides,
                                                      lattice[:27], lattice[:27])
    codes = _assert_codes_equal(low_x, low_y, sides, terms, half_length, delta)
    assert {0, 1, 2} <= set(np.unique(codes))
    # A tube's back end passes through its viewpoint: seen from a
    # lattice corner, the boxes at that corner are ties on the end, and
    # along the axes the box-axis tests tie as well.
    angles = np.concatenate([angles, np.arange(-2, 3) * (math.pi / 2)])
    terms, half_length, low_x, low_y = _grid_of_tubes((lattice[5], lattice[4]), angles, delta,
                                                      sides, lattice[:27], lattice[:27])
    codes = _assert_codes_equal(low_x, low_y, sides, terms, half_length, delta)
    assert {0, 1, 2} <= set(np.unique(codes))


def test_tube_codes_of_a_box_do_not_depend_on_its_row():
    # A box's codes depend on its own corner and tube alone: not on the
    # other rows, columns or parents of its grid.
    rng = np.random.default_rng(4)
    sides = np.array([3.0 ** -4, 3.0 ** -4])
    terms, half_length, low_x, low_y = _grid_of_tubes(
        (-0.7, 0.3), rng.uniform(0.0, 0.8, 67), 0.05, sides, rng.random(31), rng.random(29))
    low_x += rng.random(low_x.shape) * 0.05
    low_y += rng.random(low_y.shape) * 0.05

    def classify(rows, cols, parents):
        inside, straddle = _tube_codes(low_x[rows][:, parents], low_y[cols][:, parents], sides,
                                       terms[:, parents], half_length, 0.05)
        return inside.astype(np.int8) + 2 * straddle

    everything = slice(None)
    codes = classify(everything, everything, everything)
    assert {0, 1, 2} <= set(np.unique(codes))
    assert np.array_equal(codes[1:], classify(slice(1, None), everything, everything))
    assert np.array_equal(codes[:, 1:], classify(everything, slice(1, None), everything))
    assert np.array_equal(codes[:, :, 1:], classify(everything, everything, slice(1, None)))
    for i, j, k in rng.integers(0, (31, 29, 67), size=(200, 3)):
        alone = classify(slice(i, i + 1), slice(j, j + 1), slice(k, k + 1))
        assert alone.shape == (1, 1, 1) and alone[0, 0, 0] == codes[i, j, k]

    # One tube and a one-row grid of boxes, as cylinder_mass classifies.
    lows = rng.random((4099, 2))
    frames, half_length = _ray_frames((-0.7, 0.3), [0.21], 0.05)
    one = _tube_terms(frames[:, 0], sides, half_length, 0.05)

    def row(boxes):
        inside, straddle = _tube_codes(boxes[None, :, 0], boxes[None, :, 1], sides, one,
                                       half_length, 0.05)
        return (inside.astype(np.int8) + 2 * straddle)[0, 0]

    single = row(lows)
    assert np.array_equal(single[1:], row(lows[1:]))
    assert all(row(lows[i:i + 1])[0] == single[i] for i in range(0, 4099, 97))


def _parents(spec, level, count, rng):
    """Low corners (2, count) of depth-`level` boxes of the tree, drawn
    at random, with the sums the descent forms: each level's offset
    added to its parent's corner."""
    tree = _Tree(spec)
    lows = np.zeros((count, 2))
    for lev in range(1, level + 1):
        offsets = tree.offsets(lev)
        lows = lows + offsets[rng.integers(0, offsets.shape[0], count)]
    return lows.T


# Viewpoints inside the square, on its edges and corners, on its
# diagonal (where the far corner (1, 1) sits at the tube's far end),
# anywhere around it, and dyadic ones, from which the tube at angle 0
# has edges that box edges of base 4 meet exactly.
_VIEWPOINTS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.0, 0.4), (1.0, 0.3), (0.5, 0.0), (2 / 3, 1.0)]),
    st.sampled_from([(-1.0, -1.0), (-3.0, -3.0), (-2.05, -2.05), (-0.4, 0.45), (1.05, 0.5)]),
    st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0)),
    st.sampled_from([(-1.0, 0.5), (-0.5, 0.375), (0.25, 0.5), (-2.0, 0.0)]),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=st.sampled_from([C32, CARPET, LEB2, PAIR57, lebesgue_spec(10, 2),
                             lebesgue_spec(4, 2)]),
       x=_VIEWPOINTS, delta=st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.125, 0.25])
       | st.floats(0.001, 0.5), level=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_clear_columns_are_exactly_the_grids_that_the_normal_axis_decides(spec, x, delta,
                                                                          level, seed):
    # Children grids of random parents at random angles and at the tie
    # angles of their corners: tubes whose long edges pass through a
    # child's corner, tubes along the ray through it, the diagonal and
    # angle 0.
    rng = np.random.default_rng(seed)
    parents = _parents(spec, level - 1, 12, rng)
    tree = _Tree(spec)
    xs, ys, mask = tree.grid(level)
    sides = tree.sides(level)
    corners = (np.stack([xs[rng.integers(0, xs.shape[0], 12)], ys[rng.integers(0, ys.shape[0], 12)]])
               + parents + rng.integers(0, 2, (2, 12)) * sides[:, None]).T - x
    r = np.hypot(corners[:, 0], corners[:, 1])
    corners, r = corners[r > delta], r[r > delta]
    phi = np.arctan2(corners[:, 1], corners[:, 0])
    tangent = np.arcsin(delta / r)
    angles = np.concatenate([rng.uniform(-math.pi, math.pi, 8), phi, phi - tangent, phi + tangent,
                             [0.0, math.pi / 4, math.atan2(1.0 - x[1], 1.0 - x[0])]])
    frames, half_length = _ray_frames(x, angles, delta)
    terms = _tube_terms(frames, sides, half_length, delta)
    # every (parent, angle) pair is a column
    k_parent, k_angle = (a.ravel() for a in np.meshgrid(np.arange(12), np.arange(angles.shape[0])))
    low_x = xs[:, None] + parents[0, k_parent]
    low_y = ys[:, None] + parents[1, k_parent]
    terms = terms[:, k_angle]

    clear = _clear_columns(low_x, low_y, sides, terms, half_length)
    # box by box over the full grid: INSIDE on the tube's axis, and
    # passing both box-axis tests
    hx, hy = sides / 2.0
    ox, oy, tx, ty, _, _, rad_t, _, ext_x, ext_y = terms
    cx, cy = low_x + hx - ox, low_y + hy - oy
    proj_t = np.abs((cx * tx)[:, None] + cy * ty)
    tube_inside = np.all(proj_t + rad_t <= half_length, axis=(0, 1))
    box_kept = np.all(np.abs(cx) - hx <= ext_x, axis=0) & np.all(np.abs(cy) - hy <= ext_y, axis=0)
    assert np.array_equal(clear, tube_inside & box_kept)
    assert not np.any((proj_t - rad_t > half_length)[:, :, clear])

    cols = np.flatnonzero(clear)
    grid = low_x[:, cols], low_y[:, cols], sides, terms[:, cols]
    inside, near = _normal_codes(*grid, delta, _normal_work())
    expected_inside, expected_straddle = _tube_codes(*grid, half_length, delta)
    assert np.array_equal(inside, expected_inside)
    assert np.array_equal(near & ~inside, expected_straddle)
    assert np.array_equal(near & mask, (expected_inside | expected_straddle) & mask)


@pytest.mark.parametrize("spec", [C32, CARPET, lebesgue_spec(10, 2)])
def test_normal_codes_decide_ties_of_the_normal_axis_as_tube_codes_do(spec):
    # A tube's frame does not depend on its half-width d, so d can be
    # set to fl(|proj_w| + rad_w) or fl(|proj_w| - rad_w) of a grid's
    # farthest child: that child is then a tie of INSIDE or of NEAR.
    rng = np.random.default_rng(5)
    tree = _Tree(spec)
    xs, ys, mask = tree.grid(3)
    sides = tree.sides(3)
    x = (-1.0, -0.3)
    parents = _parents(spec, 2, 30, rng)
    centres = parents + rng.random((2, 30)) / 9.0
    for k, angle in enumerate(np.arctan2(centres[1] - x[1], centres[0] - x[0])):
        low_x, low_y = xs[:, None] + parents[:1, k], ys[:, None] + parents[1:, k]
        frames, half_length = _ray_frames(x, [angle], 1.0)
        ox, oy, _, _, wx, wy, _, rad_w, _, _ = _tube_terms(frames, sides, half_length, 1.0)
        proj_w = np.abs(((low_x + sides[0] / 2 - ox) * wx)[:, None]
                        + (low_y + sides[1] / 2 - oy) * wy)
        codes = []
        for delta in (np.max(proj_w + rad_w), np.max(proj_w - rad_w)):
            frames, half_length = _ray_frames(x, [angle], delta)
            terms = _tube_terms(frames, sides, half_length, delta)
            assert _clear_columns(low_x, low_y, sides, terms, half_length).all()
            inside, near = _normal_codes(low_x, low_y, sides, terms, delta, _normal_work())
            expected_inside, expected_straddle = _tube_codes(low_x, low_y, sides, terms,
                                                             half_length, delta)
            assert np.array_equal(inside, expected_inside)
            assert np.array_equal(near & ~inside, expected_straddle)
            codes.append((inside, near))
        # every child INSIDE, then every child NEAR, the farthest on a tie
        (inside, _), (tie_inside, near) = codes
        assert inside.all() and near.all() and not tie_inside.all()


def test_tube_validation():
    # A tube of width 0 or less, or seen from a viewpoint that is not a
    # finite point of the plane, is refused by the descent and by its
    # reference alike.
    angles = np.linspace(0.3, 1.2, 5)
    for x, half_width in (((-1.0, -1.0), -0.05), ((-1.0, -1.0), 0.0),
                          ((-1.0, -1.0, 5.0), 0.05), ((-1.0,), 0.05), ((math.nan, 0.5), 0.05)):
        with pytest.raises(ValueError, match="half-width|two-dimensional|finite"):
            ray_tube_masses(LEB2, x, half_width, angles, 3)
        with pytest.raises(ValueError, match="half-width|two-dimensional|finite"):
            cylinder_mass(LEB2, x, 0.5, half_width, 3)


def test_cylinder_mass_refuses_a_spec_that_is_not_planar():
    for spec in (explicit_spec(3, [0, 2]), lebesgue_spec(3, 3)):
        with pytest.raises(ValueError, match="two-dimensional"):
            cylinder_mass(spec, (-1.0, 0.5), 0.0, 0.05, depth=2)


def test_lebesgue_horizontal_tube_matches_area():
    # tube along y = 0.5 of half-width delta cuts a 1 x 2delta strip
    delta = 0.05
    lo, hi = cylinder_mass(LEB2, (-1.0, 0.5), 0.0, delta, depth=6)
    assert lo <= 2 * delta <= hi
    assert hi - lo < 0.01


def test_lebesgue_diagonal_tube_matches_area():
    # tube through the center along (1,1): area 2 sqrt(2) delta - 2 delta^2
    delta = 0.05
    exact = 2 * math.sqrt(2) * delta - 2 * delta ** 2
    lo, hi = cylinder_mass(LEB2, (-1.0, -1.0), math.pi / 4, delta, depth=6)
    assert lo <= exact <= hi
    assert hi - lo < 0.012


def test_tube_through_middle_third_gap_has_zero_mass():
    # the horizontal ray at height 1/2 runs inside the removed band
    assert cylinder_mass(C32, (-1.0, 0.5), 0.0, 0.05, depth=2) == (0.0, 0.0)


def test_tube_missing_the_square_entirely():
    assert cylinder_mass(C32, (-1.0, -1.0), math.pi / 2, 0.1, depth=3) == (0.0, 0.0)


def test_tube_enclosures_nest_and_bracket_monte_carlo():
    x, angle = (-1.0, 0.5), math.atan2(-0.4, 1.5)
    lo6, hi6 = cylinder_mass(C32, x, angle, 0.05, depth=6)
    lo8, hi8 = cylinder_mass(C32, x, angle, 0.05, depth=8)
    assert lo6 <= lo8 <= hi8 <= hi6
    p_hat, sigma = tube_mass_mc(C32, x, angle, 0.05, samples=200_000, seed=5)
    assert lo8 - 3 * sigma <= p_hat <= hi8 + 3 * sigma


def test_tube_mass_monotone_in_half_width():
    masses = [cylinder_mass(C32, (-1.0, 0.2), math.atan2(0.3, 1.0), delta, depth=6)[1]
              for delta in (0.02, 0.05, 0.1)]
    assert masses == sorted(masses)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(delta=st.floats(0.02, 0.2), heading=st.floats(-math.pi, math.pi),
       offset=st.floats(-0.3, 0.3), depth=st.integers(3, 5))
def test_ray_tube_enclosures_nest_by_depth_and_bracket_monte_carlo(delta, heading,
                                                                   offset, depth):
    x = (0.5 - 1.5 * math.cos(heading), 0.5 - 1.5 * math.sin(heading))
    angle = heading + offset
    lo, hi = cylinder_mass(C32, x, angle, delta, depth)
    lo_next, hi_next = cylinder_mass(C32, x, angle, delta, depth + 1)
    assert lo <= lo_next <= hi_next <= hi
    p_hat, sigma = tube_mass_mc(C32, x, angle, delta, samples=20_000, seed=depth)
    assert lo_next - 4 * sigma <= p_hat <= hi_next + 4 * sigma


@pytest.mark.parametrize("x", [(0.5, 0.5), (0.0, 0.0), (1.0, 0.3), (-1.0, -1.0), (1.3, 0.5),
                               (0.5, -0.05)])
@pytest.mark.parametrize("count, child_block", [(37, 1 << 16), (64, 1 << 16), (53, 3)])
def test_ray_tube_masses_equal_per_angle_cylinder_mass_all_around(x, count, child_block,
                                                                 monkeypatch):
    # Viewpoints inside the square, on it, on its diagonal (where the
    # far corner sits at the tube's far end) and beside it, with angles
    # all around the circle, in order and shuffled.  With small child
    # blocks, every level is cut into blocks of one parent.  Both paths
    # are taken: columns classified on the normal axis alone and columns
    # that _tube_codes classifies.
    monkeypatch.setattr(cylinders, "_CHILD_BLOCK", child_block)
    monkeypatch.setattr(cylinders, "_HELD_BOXES", child_block)
    cleared = []

    def clear_columns(*args):
        clear = _clear_columns(*args)
        cleared.extend(clear.tolist())
        return clear

    monkeypatch.setattr(cylinders, "_clear_columns", clear_columns)
    angles = np.linspace(-math.pi, math.pi, count)
    oracle = np.array([cylinder_mass(C32, x, a, 0.05, 3) for a in angles])
    for order in (np.arange(count), np.random.default_rng(count).permutation(count)):
        budget = _ChargeLog()
        lower, upper = ray_tube_masses(C32, x, 0.05, angles[order], depth=3, budget=budget)
        assert np.array_equal(lower, oracle[order, 0])
        assert np.array_equal(upper, oracle[order, 1])
        if child_block == 3:  # one parent of 4 children, or 3 roots, a block
            assert max(budget.charges) == 4
    assert True in cleared and False in cleared


@pytest.mark.parametrize("spec, x, delta, depth", [
    (CARPET, (2.0, 0.5), 0.05, 4),  # a masked child grid
    (lebesgue_spec(10, 2), (-0.3, 1.4), 0.03, 2),
    (PAIR57, (1.5, -0.3), 0.04, 3),  # axes of different bases
], ids=["carpet", "leb10", "pair57"])
@pytest.mark.parametrize("child_block, clearing", [
    (3, None), (1 << 16, None), (3, "none"), (1 << 16, "none"), (3, "alternate"),
    (1 << 16, "alternate"),
], ids=["3", "65536", "3-clear-none", "65536-clear-none", "3-clear-alternate",
        "65536-clear-alternate"])
def test_ray_tube_masses_equal_per_angle_cylinder_mass_on_other_specs(spec, x, delta, depth,
                                                                      child_block, clearing,
                                                                      monkeypatch):
    # _clear_columns as it is, clearing no column (every column takes
    # _tube_codes's codes in place), or only every other column that it
    # clears (every block with several columns is mixed)
    monkeypatch.setattr(cylinders, "_CHILD_BLOCK", child_block)
    monkeypatch.setattr(cylinders, "_HELD_BOXES", child_block)
    if clearing is not None:
        def clear_columns(*args):
            clear = _clear_columns(*args)
            if clearing == "none":
                return np.zeros_like(clear)
            clear[1::2] = False
            return clear

        monkeypatch.setattr(cylinders, "_clear_columns", clear_columns)
    angles = np.linspace(-math.pi, math.pi, 47)
    reference = EvalBudget()
    oracle = np.array([cylinder_mass(spec, x, a, delta, depth, reference) for a in angles])
    assert 0.0 < oracle[:, 0].max() and oracle[:, 1].max() < 1.0
    for order in (np.arange(47), np.random.default_rng(depth).permutation(47)):
        descent = _ChargeLog()
        lower, upper = ray_tube_masses(spec, x, delta, angles[order], depth, descent)
        assert np.array_equal(lower, oracle[order, 0])
        assert np.array_equal(upper, oracle[order, 1])
        assert descent.cells["cylinder classifications"] \
            == reference.cells["cylinder classifications"]
        if child_block == 3:  # one parent a block
            assert max(descent.charges) == _Tree(spec).branching


@pytest.mark.parametrize("x", [(-1.0, -1.0), (-3.0, -3.0), (-2.05, -2.05), (-0.4, 0.45),
                               (1.05, 0.5)])
def test_ray_tube_masses_on_angles_where_boxes_touch_the_tube(x):
    # Every angle is a tie of the tube predicate: a ray whose tube edge
    # passes through a depth-2 corner, or the diagonal through the far
    # corner (1, 1).  The carpet's children fill a masked grid.
    delta = 0.05
    corners = np.array([(i / 9.0, j / 9.0) for i in range(10) for j in range(10)]) - x
    phi = np.arctan2(corners[:, 1], corners[:, 0])
    tangent = np.arcsin(delta / np.hypot(corners[:, 0], corners[:, 1]))
    angles = np.unique(np.concatenate([phi - tangent, phi + tangent, [math.pi / 4]]))
    if x[0] > 1.0:  # the square lies across the cut at +-pi
        angles = np.unique(np.where(angles < 0, angles + 2 * math.pi, angles))
    for spec in (C32, CARPET):
        lower, upper = ray_tube_masses(spec, x, delta, angles, depth=3)
        oracle = np.array([cylinder_mass(spec, x, a, delta, 3) for a in angles])
        assert np.array_equal(lower, oracle[:, 0])
        assert np.array_equal(upper, oracle[:, 1])


def test_non_finite_angles_are_refused_before_any_cell_is_spent():
    for angle in (math.nan, math.inf, -math.inf):
        budget = EvalBudget()
        with pytest.raises(ValueError, match="finite"):
            cylinder_mass(LEB2, (-1.0, -1.0), angle, 0.05, 6, budget)
        with pytest.raises(ValueError, match="finite"):
            ray_tube_masses(LEB2, (-1.0, -1.0), 0.05, [0.3, angle, 0.9], 3, budget)
        with pytest.raises(ValueError, match="finite"):
            tube_mass_mc(LEB2, (-1.0, -1.0), angle, 0.05, samples=1000, budget=budget)
        assert budget.spent == 0


def test_ray_frames_equal_the_frames_of_single_ray_tubes():
    rng = np.random.default_rng(2)
    angles = np.sort(rng.uniform(-4.0, 4.0, 3001))
    frames, half_length = _ray_frames((1.7, -0.4), angles, 0.03)
    # unit directions, with the normal a quarter turn ahead
    tx, ty, wx, wy = frames[2:]
    assert np.allclose(np.hypot(tx, ty), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(wx, -ty) and np.array_equal(wy, tx)
    # each column is the frame cylinder_mass reads for its angle alone
    for i in range(0, angles.shape[0], 7):
        frame, length = _ray_frames((1.7, -0.4), [angles[i]], 0.03)
        assert np.array_equal(frames[:, i], frame[:, 0])
        assert half_length == length


def test_ray_tube_masses_check_the_arrays_over_the_angles_first():
    budget = EvalBudget(10_000)
    with pytest.raises(BudgetExceededError, match="tube angles needs 41000 cells"):
        ray_tube_masses(C32, (-1.0, -1.0), 0.05, np.linspace(0.2, 1.3, 1000), 2, budget)
    assert budget.spent == 0


class _ChargeLog(EvalBudget):
    """A budget that keeps the size of every charge, in order."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def charge(self, cells, what="evaluation"):
        super().charge(cells, what)
        self.charges.append(int(cells))


@pytest.mark.parametrize("spec, x, delta, depth", [
    (CARPET, (-1.0, -1.0), 0.02, 4),
    (lebesgue_spec(10, 2), (-0.3, 1.4), 0.01, 2),
])
def test_ray_tube_masses_charge_cylinder_mass_classifications_summed_over_angles(
        spec, x, delta, depth):
    angles = np.linspace(-math.pi, math.pi, 120)
    descent = EvalBudget()
    ray_tube_masses(spec, x, delta, angles, depth, descent)
    reference = EvalBudget()
    for angle in angles:
        cylinder_mass(spec, x, angle, delta, depth, reference)
    assert descent.cells["cylinder classifications"] \
        == reference.cells["cylinder classifications"] > 120


@pytest.mark.parametrize("spec, delta, count, cells, mib", [
    (C32, 1e-9, 1000, 7_976_232, 4.0),  # depth 21
    (lebesgue_spec(10, 2), 0.01, 800, 16_857_000, 5.0),  # the benchmark's tube-leb10, depth 3
], ids=["deep-c3sq", "leb10"])
def test_ray_tube_masses_hold_a_bounded_number_of_boxes(spec, delta, count, cells, mib):
    # Depth-first, a descent holds at most about
    # max(depth * _CHILD_BLOCK, _HELD_BOXES) boxes and one block's work
    # arrays: 2.5 and 3.4 MiB here.  Refining the oldest block first
    # (breadth-first) held 17.1 and 5.9 MiB.
    radial_tube_profile(spec, (-1.0, -1.0), delta, 8)  # imports and caches first
    budget = EvalBudget()
    tracemalloc.start()
    try:
        radial_tube_profile(spec, (-1.0, -1.0), delta, count, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert budget.spent == cells
    assert peak < mib * 2 ** 20
