import math

import numpy as np
import pytest

from missingdigits import (BudgetExceededError, EvalBudget, digit_symbol,
                           explicit_spec, fourier_transform_batch, interval_spec,
                           lebesgue_spec, product, square, truncation_depth)
from missingdigits.fourier import _tail_bound, half_annulus, half_ball, transform_levels
from missingdigits.measure import as_product
from oracles import fourier_oracle, fourier_transform

C3 = explicit_spec(3, [0, 2])
C52 = square(explicit_spec(5, [0, 1, 2, 3]))
RNG = np.random.default_rng(20260821)


def _closed_form_lebesgue(xi):
    # transform of the uniform law on [0,1]: e^{-i pi xi} sinc(xi)
    return np.exp(-1j * math.pi * xi) * np.sinc(xi)


def _closed_form_cantor(xi, terms=64):
    # digits {0,2} base 3: product of e^{-2 pi i xi/3^j} cos(2 pi xi/3^j)
    out = np.ones_like(np.asarray(xi, dtype=complex))
    for j in range(1, terms + 1):
        eta = xi / 3.0 ** j
        out = out * np.exp(-2j * math.pi * eta) * np.cos(2 * math.pi * eta)
    return out


def test_value_at_zero_is_one():
    assert fourier_transform(C3, [0.0]).value == pytest.approx(1.0, abs=1e-12)
    assert fourier_transform(C52, [0.0, 0.0]).value == pytest.approx(1.0, abs=1e-12)


def test_matches_lebesgue_closed_form():
    xi = np.linspace(-8.0, 8.0, 97)
    values, _ = fourier_transform_batch(lebesgue_spec(3), xi[:, None], tol=1e-10)
    assert np.max(np.abs(values - _closed_form_lebesgue(xi))) < 1e-9


def test_matches_cantor_closed_form():
    xi = np.linspace(-30.0, 30.0, 121)
    values, _ = fourier_transform_batch(C3, xi[:, None], tol=1e-10)
    assert np.max(np.abs(values - _closed_form_cantor(xi))) < 1e-8


def test_conjugate_symmetry():
    xi = RNG.uniform(-50, 50, size=(200, 2))
    plus, _ = fourier_transform_batch(C52, xi)
    minus, _ = fourier_transform_batch(C52, -xi)
    assert np.max(np.abs(plus - np.conj(minus))) < 1e-9


def test_modulus_never_exceeds_one():
    xi = RNG.uniform(-200, 200, size=(500, 2))
    values, _ = fourier_transform_batch(C52, xi)
    assert np.max(np.abs(values)) <= 1.0 + 1e-9
    xi1 = RNG.uniform(-500, 500, size=(500, 1))
    values1, _ = fourier_transform_batch(C3, xi1)
    assert np.max(np.abs(values1)) <= 1.0 + 1e-9


def test_self_similarity_one_factor_step():
    # transform(p*xi) = digit_symbol(xi) * transform(xi)
    factor = C3
    xi = RNG.uniform(-20, 20, size=40)
    big, _ = fourier_transform_batch(factor, (3 * xi)[:, None], tol=1e-11)
    small, _ = fourier_transform_batch(factor, xi[:, None], tol=1e-11)
    sym = digit_symbol(factor, xi[:, None])
    assert np.max(np.abs(big - sym.ravel() * small)) < 1e-9


def test_self_similarity_product_measure():
    factor = as_product(C52).factors[0]
    xi = RNG.uniform(-10, 10, size=(30, 2))
    big, _ = fourier_transform_batch(C52, 5 * xi, tol=1e-11)
    small, _ = fourier_transform_batch(C52, xi, tol=1e-11)
    sym = (digit_symbol(factor, xi[:, :1]).ravel()
           * digit_symbol(factor, xi[:, 1:]).ravel())
    assert np.max(np.abs(big - sym * small)) < 1e-9


# ----------------------------------------------------------------- oracle


def _brute_corner_sum(spec, xi, depth):
    # direct enumeration of depth-m cylinder corners, the slow oracle
    prod = as_product(spec)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    total = np.zeros((), dtype=complex)
    corners = [np.zeros((1, prod.total_dim))]
    for level in range(1, depth + 1):
        new = []
        for block in corners:
            offset = 0
            grown = block
            for f in prod.factors:
                mat = f.digit_matrix() / f.p_int() ** level
                cols = slice(offset, offset + f.ambient_dim)
                rep = np.repeat(grown, mat.shape[0], axis=0)
                add = np.tile(mat, (grown.shape[0], 1))
                rep = rep.copy()
                rep[:, cols] += add
                grown = rep
                offset += f.ambient_dim
            new.append(grown)
        corners = new
    pts = corners[0]
    phases = np.exp(-2j * math.pi * (pts @ xi))
    return complex(phases.mean())


def test_oracle_equals_brute_enumeration():
    for spec, xi, depth in ((C3, [1.7], 4), (C3, [-11.25], 5),
                            (C52, [2.0, -3.5], 3)):
        fast = fourier_oracle(spec, xi, depth)
        slow = _brute_corner_sum(spec, xi, depth)
        assert abs(fast - slow) < 1e-12


def test_oracle_equals_partial_symbol_product():
    factor = C3
    xi = 7.3
    depth = 9
    expected = 1.0 + 0j
    for j in range(1, depth + 1):
        expected *= complex(digit_symbol(factor, np.array([[xi / 3.0 ** j]]))[0])
    assert abs(fourier_oracle(C3, [xi], depth) - expected) < 1e-12


def test_oracle_close_to_full_transform_at_unit_frequency():
    full = fourier_transform(C3, [1.0], tol=1e-12).value
    approx = fourier_oracle(C3, [1.0], depth=14)
    assert abs(full - approx) <= 1e-5


def test_depth_14_oracle_within_its_documented_bound():
    # the acceptance suite's 200 base-3 frequencies, |xi| <= 100, where
    # the depth-14 bound 2 pi |xi| 3^-14 reaches 1.3e-4
    rng = np.random.default_rng(20260821)
    for xi in rng.uniform(-100.0, 100.0, size=200):
        exact = fourier_transform(C3, [xi], tol=1e-9)
        bound = 2.0 * math.pi * abs(xi) * 3.0 ** -14 + exact.abs_err
        assert abs(exact.value - fourier_oracle(C3, [xi], depth=14)) <= bound


def test_reported_error_bound_dominates_truncation():
    xi = np.linspace(0.5, 60.0, 40)[:, None]
    coarse, err = fourier_transform_batch(C3, xi, tol=1e-4)
    fine, _ = fourier_transform_batch(C3, xi, tol=1e-12)
    assert np.all(np.abs(coarse - fine) <= err + 1e-12)
    assert np.all(err <= 1e-4 + 1e-15)


def test_truncation_depth_grows_with_frequency():
    factor = C3
    d1 = truncation_depth(factor, 1.0, 1e-9)
    d2 = truncation_depth(factor, 1000.0, 1e-9)
    assert d2 > d1


def test_budget_exhaustion():
    xi = RNG.uniform(-100, 100, size=(4000, 2))
    with pytest.raises(BudgetExceededError):
        fourier_transform_batch(C52, xi, budget=EvalBudget(500))


def test_batch_charges_its_transform_levels_before_any_work():
    # per point, each factor's depth at its largest norm (at least one
    # level), at that factor's half of tol
    xi = RNG.uniform(-100, 100, size=(300, 2))
    levels = sum(max(truncation_depth(f, float(np.abs(xi[:, i]).max()), 0.5e-9), 1)
                 for i, f in enumerate(as_product(C52).factors))
    assert transform_levels(C52, xi) == levels
    budget = EvalBudget()
    fourier_transform_batch(C52, xi, budget=budget)
    assert budget.spent == 300 * levels
    # one cell short: refused whole, nothing charged
    short = EvalBudget(300 * levels - 1)
    with pytest.raises(BudgetExceededError, match="transform levels"):
        fourier_transform_batch(C52, xi, budget=short)
    assert short.spent == 0


# ---------------------------------------------------- per-factor symbol tables

C3_SQ = square(C3)
I512 = interval_spec(512, 0, 499)
CARPET = explicit_spec(3, [(a, b) for a in range(3) for b in range(3) if (a, b) != (1, 1)], n=2)


def _per_level_product(spec, xis, tol=1e-9, tabled=()):
    # the transform and its bound as a product over factors and levels,
    # with every row evaluated at every level: a factor in `tabled` has
    # its levels multiplied first, from 1, and their product then into
    # the values; any other factor multiplies each level into the values
    prod = as_product(spec)
    values = np.ones(xis.shape[0], dtype=complex)
    errs = np.zeros(xis.shape[0])
    for i, (factor, sl) in enumerate(zip(prod.factors, prod.factor_slices())):
        block = xis[:, sl]
        norms = np.sqrt((block * block).sum(axis=1))
        depth = truncation_depth(factor, float(norms.max()), tol / len(prod.factors))
        p = float(factor.p_int())
        levels = np.ones(xis.shape[0], dtype=complex) if i in tabled else values
        for j in range(1, depth + 1):
            levels *= digit_symbol(factor, block / p ** j)
        if i in tabled:
            values *= levels
        errs += _tail_bound(factor, norms, depth)
    return values, errs


def _assert_same_bits(spec, xis):
    values, errs = fourier_transform_batch(spec, xis)
    every_values, every_errs = _per_level_product(spec, xis)
    assert np.array_equal(values.view(np.uint64), every_values.view(np.uint64))
    assert np.array_equal(errs.view(np.uint64), every_errs.view(np.uint64))


def _walked(walk, spec, tabled, tol=1e-9):
    # the walk's points and values, after checking that its values are
    # the per-level product with the `tabled` factors multiplied from 1,
    # bit for bit, and that its charge is what it evaluates: per table,
    # its axis range times its levels plus a gather per point; per other
    # factor, its levels (at least one) at every point
    budget = EvalBudget()
    blocks = list(walk(budget))
    points = np.concatenate([pts for pts, _ in blocks])
    values = np.concatenate([v for _, v in blocks])
    expected, _ = _per_level_product(spec, points, tol, tabled)
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
    prod = as_product(spec)
    top = int(np.abs(points).max())
    cells = 0
    for i, (factor, sl) in enumerate(zip(prod.factors, prod.factor_slices())):
        norms = np.sqrt((points[:, sl] ** 2).sum(axis=1))
        depth = truncation_depth(factor, float(norms.max()), tol / len(prod.factors))
        span = top + 1 if sl.start == 0 else 2 * top + 1
        cells += span * depth + len(points) if i in tabled else len(points) * max(depth, 1)
    assert budget.spent == cells
    return points, values


def test_symbol_table_on_the_c3_squared_lp_ball():
    # 513 and 1025 values per axis for the 411,737 points of the half-ball,
    # and 325 per axis for the 30,922 points of the stripe-81 half-annulus
    points, _ = _walked(lambda budget: half_ball(C3_SQ, 512, 1e-9, budget), C3_SQ, (0, 1))
    assert len(points) == 411_737
    points, _ = _walked(lambda budget: half_annulus(C3_SQ, 81.0, 1e-9, budget), C3_SQ, (0, 1))
    assert len(points) == 30_922


def test_symbol_table_on_a_one_dimensional_interval_factor():
    # I512 and I729 take the Dirichlet path; a line has no table, since
    # its half-axis holds each value once
    spec = product(I512, interval_spec(729, 0, 499))
    _walked(lambda budget: half_ball(spec, 300, 1e-9, budget), spec, (0, 1))
    _walked(lambda budget: half_annulus(spec, 40.3, 1e-9, budget), spec, (0, 1))
    _walked(lambda budget: half_ball(I512, 3000, 1e-9, budget), I512, ())


def test_a_carpet_block_has_all_rows_distinct_and_no_table():
    # the carpet's 2-D factor multiplies its levels at every point
    _walked(lambda budget: half_ball(CARPET, 128, 1e-9, budget), CARPET, ())
    _walked(lambda budget: half_annulus(CARPET, 40.3, 1e-9, budget), CARPET, ())
    # a 1-D factor beside it is tabled
    spec = product(C3, explicit_spec(5, [0, 1, 3]))
    _walked(lambda budget: half_annulus(spec, 40.3, 1e-9, budget), spec, (0, 1))


# ------------------------------------------------------- mirrored ±xi pairs

L10_SQ = lebesgue_spec(10, 2)
E48 = explicit_spec(48, range(0, 48, 2))
MIRROR_SPECS = {"C3": C3, "C3^2": C3_SQ, "carpet": CARPET,
                "I512xI729": product(I512, interval_spec(729, 0, 499)),
                "(5,7)": product(explicit_spec(5, [0, 1, 2, 3]), explicit_spec(7, [0, 2, 3, 5, 6])),
                "E48": E48, "L10^2": L10_SQ}


def _mirror_batch(kind, n):
    t = np.arange(-600, 601) * 0.25
    if kind == "ray":  # a generic direction
        theta = np.array([math.cos(1.1), math.sin(1.1)]) if n == 2 else np.array([0.6180339887])
        return t[:, None] * theta
    if kind == "axis ray":  # (1, 0): its second block is -0.0 before the centre, +0.0 after
        return t[:, None] * np.array([1.0, 0.0])[:n]
    if kind == "annulus":  # integer points, in C order, with their +0.0 axis points
        box = np.indices((97,) * n, dtype=np.float64).reshape(n, -1).T - 48
        norms = np.sqrt((box * box).sum(axis=1))
        return box[(norms >= 24) & (norms <= 48)]
    if kind == "odd":  # an odd batch whose centre is 0
        half = RNG.uniform(-40.0, 40.0, size=(200, n))
        return np.concatenate([half, np.zeros((1, n)), -half[::-1]])
    axes = [np.linspace(-300.7, 300.7, 1001), np.linspace(-55.3, 55.3, 41)][:n]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


@pytest.mark.parametrize("kind", ["ray", "axis ray", "annulus", "odd", "linspace"])
@pytest.mark.parametrize("name", sorted(MIRROR_SPECS))
def test_a_mirrored_batch_equals_evaluating_every_row(name, kind):
    spec = MIRROR_SPECS[name]
    xis = _mirror_batch(kind, as_product(spec).total_dim)
    _assert_same_bits(spec, xis)
    # some rows were taken from their partners, and only the rest charged
    budget = EvalBudget()
    fourier_transform_batch(spec, xis, budget=budget)
    assert budget.spent < xis.shape[0] * transform_levels(spec, xis)


def test_a_symmetric_batch_charges_the_levels_of_its_evaluated_half():
    half = RNG.uniform(-100, 100, size=(150, 2))
    xi = np.concatenate([half, -half[::-1]])
    levels = transform_levels(C52, xi)
    budget = EvalBudget()
    fourier_transform_batch(C52, xi, budget=budget)
    assert budget.spent == 150 * levels
    # one cell short: refused whole, nothing charged
    short = EvalBudget(150 * levels - 1)
    with pytest.raises(BudgetExceededError, match="transform levels"):
        fourier_transform_batch(C52, xi, budget=short)
    assert short.spent == 0
    # the bitwise negation is the test: -0.0 does not pair with +0.0
    zeros = np.zeros((4, 2))
    budget = EvalBudget()
    fourier_transform_batch(C52, zeros, budget=budget)
    assert budget.spent == 4 * transform_levels(C52, zeros)


# ------------------------------------------------------------ digit average


def _mean_symbol(factor, eta):
    # the digit average as a per-row reduce
    mat = factor.digit_matrix().astype(np.float64)
    return np.exp(-2j * np.pi * (eta @ mat.T)).mean(axis=-1)


@pytest.mark.parametrize("factor", [C3, explicit_spec(7, [1, 5]),
                                    explicit_spec(5, [(0, 1), (3, 4)], n=2)])
def test_a_two_digit_average_equals_the_mean_bit_for_bit(factor):
    eta = RNG.uniform(-50.0, 50.0, size=(5000, factor.ambient_dim))
    eta[:10] = 0.0
    eta[10:20] = 0.5
    assert np.array_equal(digit_symbol(factor, eta).view(np.uint64),
                          _mean_symbol(factor, eta).view(np.uint64))


@pytest.mark.parametrize("factor", [E48, CARPET])
def test_a_many_digit_average_stays_within_its_summation_bound(factor):
    # in any order, #D - 1 additions and one division put each component
    # of the average within gamma_{#D} sum |terms| / #D of the exact
    # average of the same phases; the two orders differ by at most twice that
    count = factor.digit_count()
    u = 2.0 ** -53
    gamma = count * u / (1 - count * u)
    eta = RNG.uniform(-50.0, 50.0, size=(5000, factor.ambient_dim))
    new, old = digit_symbol(factor, eta), _mean_symbol(factor, eta)
    mat = factor.digit_matrix().astype(np.float64)
    phases = np.exp(-2j * np.pi * (eta @ mat.T))
    for part in (np.real, np.imag):
        bound = 2 * gamma * np.abs(part(phases)).sum(axis=-1) / count
        assert np.all(np.abs(part(new) - part(old)) <= bound)


def _column_symbol(factor, eta):
    # the digit average by column adds over the whole phase array at once
    mat = factor.digit_matrix().astype(np.float64)
    phases = np.exp(-2j * np.pi * (eta @ mat.T))
    total = phases[..., 0].copy()
    for column in range(1, phases.shape[-1]):
        total += phases[..., column]
    total /= phases.shape[-1]
    return total[()]


@pytest.mark.parametrize("factor, shape", [
    (C3, (50_000, 1)),
    (C3, (1,)),  # a scalar eta gives a scalar
    (CARPET, (7, 3001, 2)),
    (E48, (910, 48, 1)),  # 43,680 rows of 24 phases: 128 chunks of 341 rows and 32 more
])
def test_a_chunked_digit_average_equals_the_whole_array_form_bit_for_bit(factor, shape):
    eta = RNG.uniform(-50.0, 50.0, size=shape)
    chunked, whole = digit_symbol(factor, eta), _column_symbol(factor, eta)
    assert np.shape(chunked) == np.shape(whole)
    assert np.array_equal(np.atleast_1d(chunked).view(np.uint64),
                          np.atleast_1d(whole).view(np.uint64))
