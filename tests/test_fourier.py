import math
import warnings

import numpy as np
import pytest

from missingdigits import (BudgetExceededError, EvalBudget, digit_symbol,
                           explicit_spec, fourier_transform_batch, interval_spec,
                           lebesgue_spec, product, square, truncation_depth)
from missingdigits.fourier import _symbol_table, _tail_bound, box_blocks, transform_levels
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


def _per_level_product(spec, xis, tol=1e-9):
    # the transform and its bound as a plain product over factors and
    # levels, with every row evaluated at every level
    prod = as_product(spec)
    values = np.ones(xis.shape[0], dtype=complex)
    errs = np.zeros(xis.shape[0])
    for factor, sl in zip(prod.factors, prod.factor_slices()):
        block = xis[:, sl]
        norms = np.sqrt((block * block).sum(axis=1))
        depth = truncation_depth(factor, float(norms.max()), tol / len(prod.factors))
        p = float(factor.p_int())
        for j in range(1, depth + 1):
            values *= digit_symbol(factor, block / p ** j)
        errs += _tail_bound(factor, norms, depth)
    return values, errs


def _assert_same_bits(spec, xis):
    values, errs = fourier_transform_batch(spec, xis)
    every_values, every_errs = _per_level_product(spec, xis)
    assert np.array_equal(values.view(np.uint64), every_values.view(np.uint64))
    assert np.array_equal(errs.view(np.uint64), every_errs.view(np.uint64))


def _tabled(block):
    # the helper's table, after checking that it gathers back to block bit for bit
    rows, index = _symbol_table(block)
    if index is None:
        assert rows is block
    else:
        assert rows.shape[0] <= block.shape[0] / 2
        assert np.array_equal(rows[index].view(np.uint64), block.view(np.uint64))
    return index is not None


def test_symbol_table_on_the_c3_squared_lp_ball():
    box = np.concatenate(list(box_blocks(161, 2, EvalBudget(), "ball")))
    ball = box[np.hypot(box[:, 0], box[:, 1]) <= 80]
    assert _tabled(ball[:, :1]) and _tabled(ball[:, 1:])
    _assert_same_bits(C3_SQ, ball)


def test_symbol_table_on_a_one_dimensional_interval_factor():
    # I512 takes the Dirichlet path; 20000 integer rows over 6001 values
    rows = RNG.integers(-3000, 3001, size=20000).astype(np.float64)[:, None]
    assert _tabled(rows)
    _assert_same_bits(I512, rows)


def test_a_negative_zero_declines_the_table():
    # the ray along (1, 0) holds -0.0 in its second block
    t = np.arange(-400, 401) * 0.25
    ray = t[:, None] * np.array([1.0, 0.0])
    assert np.signbit(ray[:400, 1]).all()
    assert not _tabled(ray[:, :1]) and not _tabled(ray[:, 1:])
    _assert_same_bits(C3_SQ, ray)
    # an integral block that is tabled without its negative zeros
    block = np.repeat(np.arange(-20.0, 21.0), 10)[:, None]
    assert _tabled(block)
    block[block == 0] = -0.0
    assert not _tabled(block)
    _assert_same_bits(C3_SQ, np.hstack([block, block[::-1]]))


def test_a_carpet_block_has_all_rows_distinct_and_no_table():
    box = np.concatenate(list(box_blocks(129, 2, EvalBudget(), "box")))
    assert not _tabled(box)
    _assert_same_bits(CARPET, box)


@pytest.mark.parametrize("top", [1e18, 1e150])
def test_symbol_table_spans_of_huge_integral_rows_do_not_overflow(top):
    step = np.spacing(top)  # 128 at 1e18, the next float up at 1e150
    near = np.repeat([top, top + step, top + 2 * step], 400)
    spread = np.repeat([-top, top], 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an int64 overflow in a cast warns
        assert _tabled(near[:, None]) == (2 * step + 1 <= 600)
        assert _tabled(np.full((1200, 1), -top))
        assert not _tabled(spread[:, None])
        assert not _tabled(np.stack([near, spread], axis=-1))
    small = np.tile(np.arange(-5.0, 7.0), 100)
    for first in (near, -near, spread):
        _assert_same_bits(C3_SQ, np.stack([first, small], axis=-1))


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
        box = np.concatenate(list(box_blocks(97, n, EvalBudget(), "box")))
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
