"""Rigorous cylinder-counting enclosures for missing-digits measures.

A depth-m cylinder of a product spec is a closed box whose factor-f side
is p_f^-m; the measure gives every depth-m cylinder the same mass
prod_f (#D_f)^-m.  For a closed region G the mass lambda(G) is bracketed
by classifying cylinders against G:

    lower = sum of masses of cylinders contained in G,
    upper = sum of masses of cylinders meeting G,

with boundary-touching cylinders counting toward the upper bound only.
Refinement is breadth-first: boxes decided at a coarse depth leave the
frontier early, so work concentrates on the boundary of G.

Regions are the ray tubes of radial projections (rotated rectangles in
the plane, _ray_frames); classification is exact separating-axis
arithmetic, fully vectorized over the frontier.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import EvalBudget, ensure_budget
from .measure import Spec, as_product

OUTSIDE, INSIDE, STRADDLE = 0, 1, 2


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
    if not np.all(np.isfinite(x)):
        raise ValueError("tube viewpoint must be finite")
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


def _tube_codes(low_x, low_y, sides, terms, half_length, half_width) -> np.ndarray:
    """OUTSIDE/INSIDE/STRADDLE codes of the boxes with low corners
    (low_x, low_y) and the given sides against tubes of the given
    half-sides: one tube with (10,) terms (_tube_terms), or one tube per
    box with (10, N) terms.

    Every product is written out elementwise, so a box's code depends
    on its own row alone and not on where it sits in the frontier (a
    BLAS matrix-vector product may round a row differently by
    position)."""
    L, d = half_length, half_width
    hx, hy = sides / 2.0
    ox, oy, tx, ty, wx, wy, rad_t, rad_w, ext_x, ext_y = terms
    cx = low_x + hx - ox
    cy = low_y + hy - oy
    proj_t = np.abs(cx * tx + cy * ty)
    proj_w = np.abs(cx * wx + cy * wy)

    inside = (proj_t + rad_t <= L) & (proj_w + rad_w <= d)
    # Separating axes: the tube's own two axes and the box axes.
    sep = (proj_t - rad_t > L) | (proj_w - rad_w > d)
    sep |= np.abs(cx) - hx > ext_x
    sep |= np.abs(cy) - hy > ext_y

    out = np.full(cx.shape, STRADDLE, dtype=np.int8)
    out[sep] = OUTSIDE
    out[inside] = INSIDE
    return out


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


def cylinder_mass(
    spec: Spec,
    x,
    angle: float,
    half_width: float,
    depth: int,
    budget: EvalBudget | None = None,
) -> tuple[float, float]:
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
    upper = 0.0
    for level in range(depth + 1):
        bud.charge(lows.shape[0], "cylinder classifications")
        sides = tree.sides(level)
        terms = _tube_terms(frames[:, 0], sides, half_length, half_width)
        codes = _tube_codes(lows[:, 0], lows[:, 1], sides, terms, half_length, half_width)
        mass = tree.mass(level)
        n_inside = int((codes == INSIDE).sum())
        lower += n_inside * mass
        upper += n_inside * mass
        undecided = lows[codes == STRADDLE]
        if level == depth or undecided.shape[0] == 0:
            upper += undecided.shape[0] * mass
            break
        # Expand straddling boxes into their digit children.
        offsets = tree.offsets(level + 1)
        bud.charge(undecided.shape[0] * offsets.shape[0], "cylinder expansions")
        lows = (undecided[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    return lower, upper


# Children built and classified at once by ray_tube_masses.
_CHILD_BLOCK = 1 << 13

# (box, angle) pairs classified exactly at once by ray_tube_masses.
_PAIR_BLOCK = 1 << 16

# Longest run of angles that ray_tube_masses decides pair by pair.
_SHORT_RUN = 2

# Smallest angular guard (radians) around a closed-form run endpoint.
_ANGLE_GUARD = 1e-9

# Arrays over the angles that ray_tube_masses holds at once, besides
# three per level (the INSIDE counts and the boxes' two radii along the
# tube's axes): the grid, the tube terms and their set-up, the STRADDLE
# counts and the results.
_ANGLE_ROWS = 32


def ray_tube_cells(count: int, depth: int) -> int:
    """Budget cells that ray_tube_masses checks before it sets up count
    angles at the given depth: one per angle and array over the angles
    that it holds."""
    return count * (3 * (depth + 1) + _ANGLE_ROWS)


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over zip(starts, counts)."""
    begins = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(begins - starts, counts)


def _merge_runs(node: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The pieces [lo, hi) of the boxes node, with each piece that
    continues the one before it (same box, lo at the previous hi)
    merged into it."""
    start = np.ones(node.shape[0], dtype=bool)
    start[1:] = (node[1:] != node[:-1]) | (lo[1:] != hi[:-1])
    stop = np.empty_like(start)
    stop[:-1] = start[1:]
    stop[-1:] = True
    return node[start], lo[start], hi[stop]


def _pair_blocks(run: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The nonempty windows [lo, hi) of the runs `run` in groups of fewer
    than 2 * _PAIR_BLOCK angles, wider windows cut into pieces of at
    most _PAIR_BLOCK angles first."""
    if int((hi - lo).sum()) <= _PAIR_BLOCK:
        return [(run, lo, hi)]
    cuts = (hi - lo - 1) // _PAIR_BLOCK + 1
    lo = np.repeat(lo, cuts) + _ragged_arange(np.zeros_like(cuts), cuts) * _PAIR_BLOCK
    run, hi = np.repeat(run, cuts), np.minimum(np.repeat(hi, cuts), lo + _PAIR_BLOCK)
    widths = hi - lo
    group = (np.cumsum(widths) - widths) // _PAIR_BLOCK
    edges = np.flatnonzero(np.diff(group)) + 1
    return zip(*(np.split(part, edges) for part in (run, lo, hi)))


def ray_tube_masses(spec: Spec, x, half_width: float, angles, depth: int,
                    budget: EvalBudget | None = None) -> tuple:
    """Arrays lower, upper with [lower[i], upper[i]] =
    cylinder_mass(spec, x, angles[i], half_width, depth), bit for bit,
    from one descent of the cylinder tree shared by all angles, which
    must increase strictly.

    Each box carries the runs of angle indices for which its parent
    straddles the tube; the root carries all of them.  Seen from x, a
    box lies inside the ray's tube exactly for angles in
    [max_k(phi_k - a_k), min_k(phi_k + a_k)] and meets it exactly for
    angles in [min_k(phi_k - a_k), max_k(phi_k + a_k)], where phi_k is
    the angle of corner k from x, r_k its distance and
    a_k = asin(half_width / r_k).  That holds while every angle of the
    run is within pi/2 of every corner angle.  The exact per-box
    predicate of cylinder_mass takes over, so that every code agrees
    with it, for angles within a rounding guard of an endpoint, for runs
    outside that domain and for the INSIDE range of a box with a corner
    at the tube's far end (a tie there).  INSIDE and STRADDLE counts
    per angle are added up per level in difference arrays, and lower
    and upper are formed from them in cylinder_mass's level order.

    Boxes are refined level by level in blocks of at most _CHILD_BLOCK
    children, and a block's straddling children are refined before the
    next block, so memory stays bounded by depth blocks; exact pairs are
    classified _PAIR_BLOCK or so at a time.  Budget: the arrays over the
    angles are checked (ray_tube_cells) before they are set up; one
    "cylinder classifications" cell is charged per box, for a whole
    block before any box of it is built, and one per exactly classified
    (box, angle) pair.
    """
    tree = _Tree(spec)
    if tree.n != 2:
        raise ValueError("ray tubes are two-dimensional")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    grid = np.asarray(angles, dtype=np.float64)
    if grid.ndim != 1 or grid.shape[0] == 0 or not np.all(np.isfinite(grid)) \
            or not np.all(np.diff(grid) > 0):
        raise ValueError("angles must be a nonempty strictly increasing 1-D array")
    count = grid.shape[0]
    bud = ensure_budget(budget)
    bud.check(ray_tube_cells(count, depth), "tube angles")
    x = np.asarray(x, dtype=np.float64)
    frames, half_length = _ray_frames(x, grid, half_width)
    # The terms of _tube_codes for every angle: the frame and the tube's
    # extent along the box's axes (rows 0-5, 8 and 9) once, and per
    # level the box's radii along the tube's axes (rows 6 and 7).
    sides = [tree.sides(level) for level in range(depth + 1)]
    fixed_terms = _tube_terms(frames, sides[0], half_length, half_width)[[0, 1, 2, 3, 4, 5, 8, 9]]
    radii = [_tube_terms(frames, side, half_length, half_width)[6:8].copy() for side in sides]
    del frames
    reach = float(np.hypot(x[0], x[1])) + math.sqrt(2.0)
    # A distance far above the rounding of the exact predicate and of
    # the closed form, both some 1e-16 of the coordinates' scale.
    tol = 1e-12 * (reach + float(np.abs(x).max()) + 1.0)
    far = reach / 2.0 + half_length - tol
    # Corner angles are measured from the grid's mid angle, so they
    # fall on the grid's branch.
    mid_angle = 0.5 * (grid[0] + grid[-1])
    cos_mid, sin_mid = math.cos(mid_angle), math.sin(mid_angle)

    def formula(lows, sides):
        """Per box: the cut points of the guard windows around its four
        run endpoints in angle order, whether INSIDE lies between the
        middle two, and the angle range [first, last] of its domain."""
        dx, dy = lows[0] - x[0], lows[1] - x[1]
        u, v = dx * cos_mid + dy * sin_mid, dy * cos_mid - dx * sin_mid
        su, sv = sides[0] * cos_mid, -sides[0] * sin_mid
        tu, tv = sides[1] * sin_mid, sides[1] * cos_mid
        ends = None
        for cu, cv in ((u, v), (u + su, v + sv), (u + tu, v + tv), (u + su + tu, v + sv + tv)):
            r = np.sqrt(cu * cu + cv * cv)
            phi = np.arctan2(cv, cu) + mid_angle
            with np.errstate(divide="ignore"):
                a = np.arcsin(np.minimum(half_width / r, 1.0))
            corner = (phi - a, phi - a, phi + a, phi + a, phi, phi, r, r)
            ends = corner if ends is None else [
                np.minimum(old, new) if at % 2 == 0 else np.maximum(old, new)
                for at, (old, new) in enumerate(zip(ends, corner))]
        e1, e2, e3, e4, phi_min, phi_max, r_min, r_max = ends
        slack = (r_min - half_width) * (r_min + half_width)
        with np.errstate(divide="ignore"):
            guard = np.maximum(_ANGLE_GUARD, tol / np.sqrt(np.maximum(slack, 0.0)))
        # A corner at the tube's far end makes the INSIDE decision a tie
        # there: the windows around e2 and e3 then cover [e2, e3] whole.
        inner = np.where((r_max > far) & (e2 <= e3), guard + (e3 - e2), guard)
        cuts = np.empty((8, lows.shape[1]), dtype=np.int64)
        for row, (end, width) in enumerate(((e1, guard), (np.minimum(e2, e3), inner),
                                            (np.maximum(e2, e3), inner), (e4, guard))):
            cuts[2 * row] = np.searchsorted(grid, end - width)
            cuts[2 * row + 1] = np.searchsorted(grid, end + width, side="right")
        first = phi_max - math.pi / 2.0 + guard
        last = phi_min + math.pi / 2.0 - guard
        return cuts, e2 <= e3, first, last

    def add_runs(diff, lo, hi):
        np.add.at(diff, lo, 1)
        np.add.at(diff, hi, -1)

    def exact_codes(level, lows, node, ang):
        """Codes of the boxes lows[:, node] against the tubes of the
        angle indices ang by the exact predicate, one budget cell
        each."""
        bud.charge(node.size, "cylinder classifications")
        fixed = np.take(fixed_terms, ang, axis=1)
        terms = (*fixed[:6], *np.take(radii[level], ang, axis=1), *fixed[6:])
        return _tube_codes(np.take(lows[0], node), np.take(lows[1], node), sides[level],
                           terms, half_length, half_width)

    def classify(level, lows, run_node, run_lo, run_hi):
        """Add the INSIDE pieces of the runs [run_lo, run_hi) of the
        level-`level` boxes run_node to that level's difference array,
        and return their STRADDLE pieces as (run, lo, hi), unordered."""
        inside_diff = inside_diffs[level]
        straddle = []
        # Runs of at most _SHORT_RUN angles are decided exactly: that
        # costs less than their box's closed form.
        long = run_hi - run_lo > _SHORT_RUN
        has = np.bincount(run_node[long], minlength=lows.shape[1]) > 0
        cuts, middle, first, last = formula(lows[:, has], sides[level])
        closed = np.flatnonzero(long)
        f = (np.cumsum(has) - 1)[run_node[closed]]
        s, e = run_lo[closed], run_hi[closed]
        ok = (grid[s] >= first[f]) & (grid[e - 1] <= last[f])
        short = np.flatnonzero(~long)
        exact = [(short, run_lo[short], run_hi[short]), (closed[~ok], s[~ok], e[~ok])]
        closed, f, s, e = closed[ok], f[ok], s[ok], e[ok]
        # p[0] <= ... <= p[7]: the cuts clipped to the run; the windows
        # [p0, p1), [p2, p3), [p4, p5), [p6, p7) are exact.
        p, prev = [], s
        for row in cuts:
            prev = np.minimum(np.maximum(row[f], prev), e)
            p.append(prev)
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7)):
            some = np.flatnonzero(p[b] > p[a])
            exact.append((closed[some], p[a][some], p[b][some]))
        mid = middle[f]
        add_runs(inside_diff, p[3][mid], p[4][mid])
        straddle += [(closed[~mid], p[3][~mid], p[4][~mid]), (closed, p[1], p[2]),
                     (closed, p[5], p[6])]

        windows = (np.concatenate(part) for part in zip(*exact))
        for run, lo, hi in _pair_blocks(*windows):
            widths = hi - lo
            run = np.repeat(run, widths)
            ang = _ragged_arange(lo, widths)
            codes = exact_codes(level, lows, run_node[run], ang)
            hit = ang[codes == INSIDE]
            add_runs(inside_diff, hit, hit + 1)
            hit = codes == STRADDLE
            straddle.append(_merge_runs(run[hit], ang[hit], ang[hit] + 1))
        run, lo, hi = (np.concatenate(part) for part in zip(*straddle))
        some = hi > lo
        return run[some], lo[some], hi[some]

    def blocks(level, parents, run_node, run_lo, run_hi):
        """Split parents whose children sit at `level`, their runs grouped
        by parent, into blocks of at most _CHILD_BLOCK children (or one
        parent)."""
        step = max(1, _CHILD_BLOCK // (tree.branching if level else 1))
        for q0 in range(0, parents.shape[1], step):
            q1 = min(q0 + step, parents.shape[1])
            r0, r1 = np.searchsorted(run_node, [q0, q1])
            yield (level, parents[:, q0:q1], run_node[r0:r1] - q0,
                   run_lo[r0:r1], run_hi[r0:r1])

    inside_diffs = np.zeros((depth + 1, count + 1), dtype=np.int64)
    straddle_diff = np.zeros(count + 1, dtype=np.int64)
    kids = {0: np.zeros((2, 1))}
    # Blocks still to refine, the newest first.  The root is the only
    # child of a parent with low corner 0 and one run of all angles.
    todo = list(blocks(0, np.zeros((2, 1)), np.zeros(1, dtype=np.int64),
                       np.zeros(1, dtype=np.int64), np.full(1, count, dtype=np.int64)))
    while todo:
        level, parents, run_node, run_lo, run_hi = todo.pop()
        k = tree.branching if level else 1
        bud.charge(parents.shape[1] * k, "cylinder classifications")
        if level not in kids:
            kids[level] = tree.offsets(level).T
        lows = (parents[:, :, None] + kids[level][:, None, :]).reshape(2, -1)
        # Every child inherits all runs of its parent.
        per_parent = np.bincount(run_node, minlength=parents.shape[1])
        per_child = np.repeat(per_parent, k)
        src = _ragged_arange(np.repeat(np.cumsum(per_parent) - per_parent, k), per_child)
        child = np.repeat(np.arange(lows.shape[1]), per_child)
        run, lo, hi = classify(level, lows, child, run_lo[src], run_hi[src])
        if level == depth:
            add_runs(straddle_diff, lo, hi)
            continue
        # Runs in index order, adjacent pieces of one box merged.
        node = child[run]
        order = np.argsort(node * (count + 1) + lo)
        node, lo, hi = _merge_runs(node[order], lo[order], hi[order])
        hit = np.zeros(lows.shape[1], dtype=bool)
        hit[node] = True
        renumber = np.cumsum(hit) - 1
        todo.extend(blocks(level + 1, lows[:, hit], renumber[node], lo, hi))

    lower = np.zeros(count)
    upper = np.zeros(count)
    for level, diff in enumerate(inside_diffs):
        inside = np.cumsum(diff[:-1])
        mass = tree.mass(level)
        lower += inside * mass
        upper += inside * mass
    upper += np.cumsum(straddle_diff[:-1]) * tree.mass(depth)
    return lower, upper
