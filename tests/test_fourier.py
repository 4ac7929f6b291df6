import math

import numpy as np
import pytest

from missingdigits import (BudgetExceededError, EvalBudget, digit_symbol,
                           explicit_spec, fourier_oracle, fourier_transform,
                           fourier_transform_batch, lebesgue_spec, square,
                           truncation_depth)
from missingdigits.fourier import transform_levels
from missingdigits.measure import as_product

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
