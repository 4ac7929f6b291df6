"""Rigorous cylinder-counting enclosures for missing-digits measures.

A depth-m cylinder of a product spec is a closed box whose factor-f side
is p_f^-m; the measure gives every depth-m cylinder the same mass
prod_f (#D_f)^-m.  For a closed region G the mass lambda(G) is bracketed
by classifying cylinders against G:

    lower = sum of masses of cylinders contained in G,
    upper = sum of masses of cylinders meeting G,

with boundary-touching cylinders counting toward the upper bound only.
Only straddling boxes are refined: boxes decided at a coarse depth drop
out early, so work concentrates on the boundary of G.

Regions are the ray tubes of radial projections (rotated rectangles in
the plane, _ray_frames); classification is exact separating-axis
arithmetic (_tube_codes) over a grid of boxes, with the terms of each
grid row and column computed once.  cylinder_mass refines one tube
breadth-first, its boxes as a one-row grid; ray_tube_masses refines
(box, angle) pairs for many tubes at once, depth-first, a parent's
children as the grid of their low corners, with the same predicate:
each block's columns are classified on the tube's normal axis
(_normal_codes), which is exactly that predicate on the columns that
_clear_columns passes, and the columns it fails take _tube_codes's
codes in place.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import EvalBudget, ensure_budget
from .measure import Spec, as_product


def _ray_frames(x, angles, half_width: float) -> tuple:
    """Frames of the ray tubes of half-width half_width from the
    viewpoint x, one column per angle: centre, direction and normal,
    [cx, cy, tx, ty, wx, wy]; and their common half-length.  A ray tube
    reaches |x| + sqrt(2) forward from x (past every point of the unit
    square) and not behind x: a tube centred at x would also count mass
    lying in direction angle + pi.  Every column is computed
    elementwise, so a one-angle call gives the same column bit for bit.
    This is the one place where a tube is validated."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("tubes are two-dimensional: the viewpoint must be a 2-vector")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(angles))):
        raise ValueError("tube viewpoint and angles must be finite")
    if not half_width > 0:
        raise ValueError("tube half-width must be positive")
    reach = float(np.hypot(x[0], x[1])) + math.sqrt(2.0)
    cos, sin = np.cos(angles), np.sin(angles)
    norm = np.hypot(cos, sin)
    tx, ty = cos / norm, sin / norm
    frames = np.stack([x[0] + tx * (reach / 2.0), x[1] + ty * (reach / 2.0), tx, ty, -ty, tx])
    return frames, max(reach / 2.0, half_width)


def _tube_terms(frames, sides, half_length, half_width) -> np.ndarray:
    """Frames (_ray_frames: (6,) for one tube, (6, N) for N) with the
    per-tube terms of _tube_codes for boxes of the given sides
    appended: the box's radius along the tube's axes and the tube's
    extent along the box's axes."""
    hx, hy = sides / 2.0
    atx, aty, awx, awy = np.abs(frames[2:])
    return np.stack([*frames, hx * atx + hy * aty, hx * awx + hy * awy,
                     half_length * atx + half_width * awx,
                     half_length * aty + half_width * awy])


def _tube_codes(low_x, low_y, sides, terms, half_length, half_width) -> tuple:
    """INSIDE and STRADDLE masks, each (p_x, p_y, P), of the boxes of
    the given sides with low corners (low_x[i, k], low_y[j, k]) against
    tubes of the given half-sides: one tube with (10,) terms
    (_tube_terms), or tube k for the boxes (i, j, k) with (10, P) terms.
    A box in neither mask is OUTSIDE.

    The centre offsets, their products with the tube's axes and the
    box-axis tests are computed once per row of low_x (p_x, P) and of
    low_y (p_y, P); a box adds its two products.  Every product is
    written out elementwise, so a box's codes depend on its own corner
    and tube alone, not on the rest of the grid (a BLAS matrix-vector
    product may round a row differently by position)."""
    L, d = half_length, half_width
    hx, hy = sides / 2.0
    ox, oy, tx, ty, wx, wy, rad_t, rad_w, ext_x, ext_y = terms
    cx = low_x + hx - ox
    cy = low_y + hy - oy
    proj_t = np.abs((cx * tx)[:, None] + cy * ty)
    proj_w = np.abs((cx * wx)[:, None] + cy * wy)

    inside = (proj_t + rad_t <= L) & (proj_w + rad_w <= d)
    # Separating axes: the tube's own two axes and the box axes.
    sep = (proj_t - rad_t > L) | (proj_w - rad_w > d)
    sep |= (np.abs(cx) - hx > ext_x)[:, None]
    sep |= np.abs(cy) - hy > ext_y
    return inside, ~(inside | sep)


def _clear_columns(low_x, low_y, sides, terms, half_length) -> np.ndarray:
    """The columns (P,) of a _tube_codes grid, with (10, P) terms, in
    which every box of the full p_x * p_y grid is INSIDE on the tube's
    axis and passes both box-axis tests, decided from the grid's first
    and last rows and columns alone.

    The rows of low_x and low_y ascend (_Tree.grid sorts them), and
    rounding to nearest is monotone, so the centre offsets ascend too
    and their products with an axis are monotone: a grid's extremes of
    A = cx * tx and B = cy * ty, and of |cx| and |cy|, lie in its end
    rows.  Every box's tube-axis projection fl(A_i + B_j) then lies
    between fl(min A + min B) and fl(max A + max B), so
    fl(max(|fl(max A + max B)|, |fl(min A + min B)|) + rad_t) <= L
    holds if and only if every box is INSIDE on the tube's axis, and
    then none is separated on it, as fl(q - r) <= fl(q + r).  A masked
    grid's boxes are a part of the full grid, so its columns are
    cleared conservatively.  In a cleared column _tube_codes's codes
    are therefore INSIDE where fl(|proj_w| + rad_w) <= d and STRADDLE
    where not INSIDE and fl(|proj_w| - rad_w) <= d (_normal_codes): the
    same floats, compared with no new constant."""
    hx, hy = sides / 2.0
    ox, oy, tx, ty, _, _, rad_t, _, ext_x, ext_y = terms
    cx = low_x[[0, -1]] + hx - ox
    cy = low_y[[0, -1]] + hy - oy
    a, b = cx * tx, cy * ty
    reach = np.maximum(np.abs(a.max(axis=0) + b.max(axis=0)),
                       np.abs(a.min(axis=0) + b.min(axis=0)))
    return ((reach + rad_t <= half_length)
            & (np.abs(cx).max(axis=0) - hx <= ext_x)
            & (np.abs(cy).max(axis=0) - hy <= ext_y))


def _normal_work() -> list:
    """Empty work arrays for _normal_codes: two float and two bool."""
    return [np.empty(0), np.empty(0), np.empty(0, bool), np.empty(0, bool)]


def _normal_codes(low_x, low_y, sides, terms, half_width, work) -> tuple:
    """INSIDE and NEAR (INSIDE or STRADDLE) masks, each (p_x, p_y, P),
    of a _tube_codes grid from the tube's normal axis alone: in every
    column that passes _clear_columns, _tube_codes's codes (why that is
    exact: _clear_columns); in the others they may differ, and
    ray_tube_masses overwrites them.  The masks and the sums behind them
    are views of the work arrays (_normal_work), which are replaced in
    the list by larger ones when the grid does not fit."""
    hx, hy = sides / 2.0
    ox, oy, _, _, wx, wy, _, rad_w, _, _ = terms
    cx = low_x + hx - ox
    cy = low_y + hy - oy
    shape = (cx.shape[0], cy.shape[0], cx.shape[1])
    size = math.prod(shape)
    if work[0].shape[0] < size:
        work[:] = [np.empty(size, w.dtype) for w in work]
    proj_w, edge, inside, near = (w[:size].reshape(shape) for w in work)
    np.abs(np.add((cx * wx)[:, None], cy * wy, out=proj_w), out=proj_w)
    np.less_equal(np.add(proj_w, rad_w, out=edge), half_width, out=inside)
    np.less_equal(np.subtract(proj_w, rad_w, out=edge), half_width, out=near)
    return inside, near


class _Tree:
    """Level geometry of the cylinder tree of a product spec."""

    def __init__(self, spec: Spec):
        prod = as_product(spec)
        self.n = prod.total_dim
        self.mats = [f.digit_matrix().astype(np.float64) for f in prod.factors]
        self.bases = [float(f.p_int()) for f in prod.factors]
        self.counts = [m.shape[0] for m in self.mats]
        self.slices = prod.factor_slices()
        self.branching = math.prod(self.counts)

    def sides(self, level: int) -> np.ndarray:
        sides = np.empty(self.n, dtype=np.float64)
        for base, sl in zip(self.bases, self.slices):
            sides[sl] = base ** -level
        return sides

    def mass(self, level: int) -> float:
        mass = 1.0
        for c in self.counts:
            mass *= float(c) ** -level
        return mass

    def offsets(self, level: int) -> np.ndarray:
        """Low corners of a depth-(level-1) box's digit children,
        relative to its own, for level >= 1."""
        offsets = np.zeros((1, self.n), dtype=np.float64)
        for mat, base, sl in zip(self.mats, self.bases, self.slices):
            block = mat * base ** -level
            reps = offsets.shape[0]
            offsets = np.repeat(offsets, block.shape[0], axis=0)
            offsets[:, sl] += np.tile(block, (reps, 1))
        return offsets

    def grid(self, level: int) -> tuple:
        """The offsets of a planar tree as a grid: its distinct x and y
        offsets, and the (x, y, 1) mask of the pairs that are offsets."""
        (xs, ix), (ys, iy) = (_distinct(o) for o in self.offsets(level).T)
        mask = np.zeros((xs.shape[0], ys.shape[0], 1), dtype=bool)
        mask[ix, iy] = True
        return xs, ys, mask


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values and each value's index among them, bit
    for bit np.unique(values, return_inverse=True) (which sorts and
    masks the same way) without the numpy.ma import that it costs."""
    ordered = np.sort(values)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return distinct, np.searchsorted(distinct, values)


def cylinder_mass(spec: Spec, x, angle: float, half_width: float, depth: int,
                  budget: EvalBudget | None = None) -> tuple[float, float]:
    """Enclosure [lower, upper] of lambda(T) for the ray tube T of
    half-width half_width from x in direction angle (_ray_frames), from
    depth-`depth` cylinder counting, for a planar spec: the reference
    that ray_tube_masses equals.

    The enclosure is exact for the stated depth: lower counts cylinders
    whose closed box lies in the tube, upper additionally counts every
    straddling box.  Enclosures at greater depth are nested within
    shallower ones.
    """
    tree = _Tree(spec)
    n = tree.n
    if n != 2:
        raise ValueError("tubes are two-dimensional")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    frames, half_length = _ray_frames(x, [angle], half_width)
    bud = ensure_budget(budget)

    lows = np.zeros((1, n), dtype=np.float64)
    lower = 0.0
    for level in range(depth + 1):
        bud.charge(lows.shape[0], "cylinder classifications")
        sides = tree.sides(level)
        terms = _tube_terms(frames[:, 0], sides, half_length, half_width)
        inside, straddle = _tube_codes(lows[None, :, 0], lows[None, :, 1], sides, terms,
                                       half_length, half_width)
        mass = tree.mass(level)
        lower += int(np.count_nonzero(inside)) * mass
        undecided = lows[straddle[0, 0]]
        if level == depth or undecided.shape[0] == 0:
            return lower, lower + undecided.shape[0] * mass
        # Expand straddling boxes into their digit children.
        offsets = tree.offsets(level + 1)
        bud.charge(undecided.shape[0] * offsets.shape[0], "cylinder expansions")
        lows = (undecided[:, None, :] + offsets[None, :, :]).reshape(-1, n)


# Children built and classified at once by ray_tube_masses: at least
# _CHILD_BLOCK, and more for a shallow descent, so that the boxes held
# across its levels stay about _HELD_BOXES.
_CHILD_BLOCK = 1 << 13
_HELD_BOXES = 1 << 18

# Arrays over the angles that ray_tube_masses holds at once, besides
# three per level (the INSIDE counts and the boxes' two radii along the
# tube's axes): the grid, the tube terms and their set-up, the root's
# boxes and angle indices, the STRADDLE counts, one count per block and
# the results.
_ANGLE_ROWS = 32


def ray_tube_cells(count: int, depth: int) -> int:
    """Budget cells that ray_tube_masses checks before it sets up count
    angles at the given depth: one per angle and array over the angles
    that it holds."""
    return count * (3 * (depth + 1) + _ANGLE_ROWS)


def ray_tube_masses(spec: Spec, x, half_width: float, angles, depth: int,
                    budget: EvalBudget | None = None) -> tuple:
    """Arrays lower, upper with [lower[i], upper[i]] =
    cylinder_mass(spec, x, angles[i], half_width, depth), bit for bit,
    from one depth-first descent over (box, angle) pairs; the angles may
    come in any order.

    A block is a set of parent boxes, each with the index of one angle.
    A parent's children lie on the grid of their distinct x and y
    offsets (_Tree.grid), all of it for a product of 1-D factors and a
    masked part for a 2-D factor such as the carpet.  cylinder_mass's
    own predicate (_tube_codes) classifies them against the parent's
    tube from terms of each grid row and column, p_x + p_y of them, not
    p_x * p_y; a child's projection adds its row's product to its
    column's: the same floats, in the same order, as for a child
    classified alone, so no rounding changes.  INSIDE and STRADDLE
    children are counted per angle and level, straddling children become
    the parents of the next level's blocks, and lower and upper are
    formed from the counts in cylinder_mass's level order.

    Every (parent, angle) column of a block is classified on the tube's
    normal axis (_normal_codes); the columns that fail _clear_columns,
    an exact check from their grid's end rows and columns, are
    classified again by _tube_codes, whose codes overwrite theirs in
    place.  One mask, count and child decode then serve the whole
    block.  At the last level the STRADDLE count is the NEAR count less
    the INSIDE count, with no STRADDLE mask.

    A block holds at most max(_CHILD_BLOCK, _HELD_BOXES // (depth + 1))
    children (or one parent), and the newest block is refined first, so
    at most about max(depth * _CHILD_BLOCK, _HELD_BOXES) boxes are held
    at once.  _normal_codes fills two float and two bool arrays that are
    kept for the whole descent, each grown to the largest block's grid.
    Budget: the arrays over the angles are checked (ray_tube_cells)
    before they are set up, and one "cylinder classifications" cell is
    charged per (box, angle) pair, for a whole block before any child of
    it is built; that is the sum over the angles of cylinder_mass's
    classification cells.
    """
    tree = _Tree(spec)
    if tree.n != 2:
        raise ValueError("ray tubes are two-dimensional")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 1 or angles.shape[0] == 0:
        raise ValueError("angles must be a nonempty 1-D array")
    count = angles.shape[0]
    bud = ensure_budget(budget)
    bud.check(ray_tube_cells(count, depth), "tube angles")
    frames, half_length = _ray_frames(x, angles, half_width)
    # The terms of _tube_codes for every angle: the frame and the tube's
    # extent along the box's axes (rows 0-5, 8 and 9) once, and per
    # level the box's radii along the tube's axes (rows 6 and 7).
    sides = [tree.sides(level) for level in range(depth + 1)]
    fixed_terms = _tube_terms(frames, sides[0], half_length, half_width)[[0, 1, 2, 3, 4, 5, 8, 9]]
    radii = [_tube_terms(frames, side, half_length, half_width)[6:8].copy() for side in sides]
    del frames

    n_inside = np.zeros((depth + 1, count))
    n_straddle = np.zeros(count)
    # Per level, the children's grid: a block's children lie in
    # (p_x, p_y, P) arrays, one column per parent; a full grid has no mask.
    grids = {0: (np.zeros(1), np.zeros(1), None)}
    todo = []  # blocks still to refine, the newest last
    block = max(_CHILD_BLOCK, _HELD_BOXES // (depth + 1))

    def push(level, parents, ang):
        step = max(1, block // (tree.branching if level else 1))
        for start in range(0, ang.shape[0], step):
            todo.append((level, parents[:, start:start + step], ang[start:start + step]))

    work = _normal_work()  # kept for the whole descent

    # The root is the only child of a parent at 0, once per angle.
    push(0, np.zeros((2, count)), np.arange(count))
    while todo:
        level, parents, ang = todo.pop()
        bud.charge(ang.shape[0] * (tree.branching if level else 1), "cylinder classifications")
        if level not in grids:
            xs, ys, mask = tree.grid(level)
            grids[level] = xs, ys, None if mask.all() else mask
        xs, ys, mask = grids[level]
        low_x, low_y = xs[:, None] + parents[0], ys[:, None] + parents[1]
        fixed = np.take(fixed_terms, ang, axis=1)
        terms = np.concatenate([fixed[:6], np.take(radii[level], ang, axis=1), fixed[6:]])
        # Every column on the normal axis; the columns that fail
        # _clear_columns then take _tube_codes's codes (on the others
        # the two agree).
        inside, near = _normal_codes(low_x, low_y, sides[level], terms, half_width, work)
        fail = np.flatnonzero(~_clear_columns(low_x, low_y, sides[level], terms, half_length))
        if fail.size:
            tube_in, straddle = _tube_codes(low_x[:, fail], low_y[:, fail], sides[level],
                                            terms[:, fail], half_length, half_width)
            inside[:, :, fail] = tube_in
            near[:, :, fail] = tube_in | straddle
        if mask is not None:
            inside &= mask
            near &= mask
        n_in = np.count_nonzero(inside, axis=(0, 1))
        n_inside[level] += np.bincount(ang, n_in, count)
        if level == depth:
            n_near = np.count_nonzero(near, axis=(0, 1))
            n_straddle += np.bincount(ang, n_near - n_in, count)
        else:
            # (i, j, k) of the straddling children from flat indices, at
            # about half the cost of np.nonzero of a 3-D mask
            row, k = np.divmod(np.flatnonzero(np.logical_xor(near, inside, out=near)),
                               ang.shape[0])
            i, j = np.divmod(row, ys.shape[0])
            push(level + 1, np.stack([low_x[i, k], low_y[j, k]]), ang[k])

    lower = np.zeros(count)
    for level, counts in enumerate(n_inside):
        lower += counts * tree.mass(level)
    return lower, lower + n_straddle * tree.mass(depth)
