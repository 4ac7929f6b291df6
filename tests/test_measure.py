import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from missingdigits import (BasePower, BudgetExceededError, ConfigError, EvalBudget,
                           MissingDigitsSpec, ProductMeasureSpec, SymbolicBaseError,
                           explicit_spec, hausdorff_dim, interval_spec,
                           lebesgue_spec, parse_spec, product, sample, square,
                           total_dim)
from missingdigits import measure
from missingdigits.measure import (DigitInterval, ExplicitDigits, as_product, block_levels,
                                   draw_cells, int_less)

C3 = explicit_spec(3, [0, 2])
C5 = explicit_spec(5, [0, 1, 2, 3])
CARPET = explicit_spec(3, [(a, b) for a in range(3) for b in range(3) if (a, b) != (1, 1)], n=2)
L10 = interval_spec(10, 0, 9)
I512 = interval_spec(512, 0, 499)


# ------------------------------------------------------------ construction


def test_base_must_be_at_least_two():
    with pytest.raises(ConfigError):
        BasePower(1)
    with pytest.raises(ConfigError):
        BasePower(10, 0)


def test_digit_set_validation():
    with pytest.raises(ConfigError):
        explicit_spec(3, [])
    with pytest.raises(ConfigError):
        explicit_spec(3, [0, 0, 2])
    with pytest.raises(ConfigError):
        explicit_spec(3, [0, 3])
    with pytest.raises(ConfigError):
        explicit_spec(3, [-1, 0])


def test_digit_vectors_must_match_ambient_dim():
    spec = explicit_spec(3, [(0, 0), (2, 2)], n=2)
    assert spec.digit_matrix().shape == (2, 2)
    with pytest.raises(ConfigError):
        MissingDigitsSpec(BasePower(3), spec.digits, 1)


def test_interval_endpoints():
    with pytest.raises(ConfigError):
        interval_spec(10, 5, 3)
    with pytest.raises(ConfigError):
        interval_spec(10, 0, 10)  # hi must stay below the base
    spec = interval_spec(10, 1, 8)
    assert spec.digit_count() == 8
    # symbolic endpoints: empty intervals are refused, 0 compares below a power
    big = BasePower(10, 200)
    for lo, hi in ((BasePower(10, 100), 5), (BasePower(10, 100), BasePower(10, 50))):
        with pytest.raises(ConfigError, match="empty"):
            interval_spec(big, lo, hi)
    assert interval_spec(big, 0, 0).hausdorff_dim() == 0.0
    assert interval_spec(big, BasePower(10, 100), BasePower(10, 100)).hausdorff_dim() == 0.0


def test_equal_powers_in_different_bases_compare_exactly():
    two, four = BasePower(2, 400), BasePower(4, 200)
    assert not int_less(two, four) and not int_less(four, two)
    assert int_less(2 ** 400 - 1, four) and not int_less(four, 2 ** 400 - 1)
    spec = parse_spec("factor { base = 10^200; digits = 2^400..4^200; }")
    assert hausdorff_dim(spec) == 0.0
    # past 2^20 bits a tie of logarithms is still refused
    with pytest.raises(ConfigError, match="cannot compare"):
        int_less(BasePower(2, 1 << 21), BasePower(4, 1 << 20))


def test_symbolic_base_stays_symbolic():
    big = BasePower(10, 10000)
    assert not big.is_exact()
    assert big.log_value() == pytest.approx(10000 * math.log(10))
    with pytest.raises(SymbolicBaseError):
        big.exact_int()
    spec = interval_spec(big, 1, BasePower(10, 8000))
    assert not spec.is_enumerable()
    with pytest.raises(SymbolicBaseError):
        spec.digit_matrix()


def test_base_power_parse():
    assert BasePower.parse("10^5") == BasePower(10, 5)
    assert BasePower.parse("7") == BasePower(7, 1)
    with pytest.raises(ConfigError):
        BasePower.parse("ten")


def test_small_power_base_materializes():
    spec = interval_spec(BasePower(2, 4), 0, 15)
    assert spec.p_int() == 16
    assert spec.digit_count() == 16


# -------------------------------------------------------------- dimension


@pytest.mark.parametrize("factor", [
    C3, C5, explicit_spec(7, [0, 2, 3, 5, 6]), explicit_spec(48, range(0, 48, 2)), CARPET,
    explicit_spec(3, [(1, 2)], n=2), explicit_spec(5, [0]),
], ids=["C3", "C5", "C7", "E48", "CARPET", "ONE", "ZERO"])
def test_max_digit_norm_equals_the_float_norm_of_the_digit_matrix(factor):
    mat = factor.digit_matrix().astype(float)
    assert factor.max_digit_norm() == float(np.sqrt((mat ** 2).sum(axis=1)).max())


def test_hausdorff_dim_values():
    assert hausdorff_dim(C3) == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert hausdorff_dim(C5) == pytest.approx(math.log(4) / math.log(5), abs=1e-12)
    assert hausdorff_dim(lebesgue_spec(10)) == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_dim_adds_over_factors():
    sq = square(C3)
    assert hausdorff_dim(sq) == pytest.approx(2 * hausdorff_dim(C3), abs=1e-12)
    assert total_dim(sq) == 2


def test_symbolic_dimension_is_exact_in_logs():
    # digits 1..10^8000 in base 10^10000: dim = 8000/10000 exactly
    spec = interval_spec(BasePower(10, 10000), 1, BasePower(10, 8000))
    assert spec.hausdorff_dim() == pytest.approx(0.8, abs=1e-12)


def test_product_flattening():
    prod = product(C3, C5)
    assert isinstance(prod, ProductMeasureSpec)
    assert total_dim(prod) == 2
    assert as_product(C3).factors == (C3,)


def test_lebesgue_spec_is_full_digit_product():
    leb = lebesgue_spec(3, 2)
    prod = as_product(leb)
    assert len(prod.factors) == 2
    assert prod.factors[0].digit_count() == 3


# ---------------------------------------------------------------- parsing


def test_parse_single_factor():
    spec = parse_spec("base = 3; digits = {0,2}")
    assert spec == C3


def test_parse_two_factor_product():
    text = "factor { base = 3; digits = {0,2}; } factor { base = 5; digits = {0,1,2,3}; }"
    spec = parse_spec(text)
    assert as_product(spec).factors == (C3, C5)


def test_parse_interval_and_powers():
    spec = parse_spec("base = 10^10000; digits = 1..10^8000")
    assert spec.hausdorff_dim() == pytest.approx(0.8, abs=1e-12)


def test_parse_planar_digit_tuples():
    spec = parse_spec("base = 3; digits = {(0,0),(2,2)}; n = 2")
    assert spec.ambient_dim == 2
    assert spec.digit_count() == 2


def test_config_text_round_trip():
    for spec in (C3, C5, interval_spec(10, 1, 8)):
        assert parse_spec(spec.config_text()) == spec


@st.composite
def explicit_factors(draw):
    p = draw(st.integers(2, 7))
    n = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), min_size=1,
                            max_size=8, unique=True))
    return MissingDigitsSpec(BasePower(p), ExplicitDigits(vectors), n)


@st.composite
def interval_factors(draw):
    # bases b^e up to 10^10000; each endpoint a whole number or a power
    # of b, symbolic once it is too large to materialize
    b = draw(st.sampled_from([2, 3, 10]))
    e = draw(st.one_of(st.just(10000), st.integers(1, 10000)))
    if e > 1 and draw(st.booleans()):
        k = draw(st.integers(1, e - 1))
        hi = BasePower(b, k)
        lo = draw(st.one_of(st.integers(0, 10 ** 6) if k > 20 else st.just(0),
                            st.integers(1, k).map(lambda j: BasePower(b, j))))
    else:
        hi = draw(st.integers(0, min(b ** e - 1, 10 ** 12)))
        lo = draw(st.integers(0, hi))
    return MissingDigitsSpec(BasePower(b, e), DigitInterval(lo, hi), 1)


@st.composite
def specs(draw):
    factors = draw(st.lists(st.one_of(explicit_factors(), interval_factors()),
                            min_size=1, max_size=3))
    if len(factors) == 1 and draw(st.booleans()):
        return factors[0]
    return ProductMeasureSpec(factors)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(specs())
@example(interval_spec(BasePower(10, 10000), 1, BasePower(10, 8000)))
@example(product(interval_spec(BasePower(10, 10000), BasePower(10, 3), BasePower(10, 9999)),
                 explicit_spec(3, [(0, 0), (2, 1)], n=2)))
def test_config_text_round_trips_through_the_grammar(spec):
    # a one-factor product parses back as its bare factor
    assert as_product(parse_spec(spec.config_text())) == as_product(spec)


def test_parse_errors():
    for text in ("", "base = 3", "digits = {0}", "base = 3; digits = {}",
                 "base = 3; digits = {0,2}; extra = 1"):
        with pytest.raises(ConfigError):
            parse_spec(text)


# --------------------------------------------------------------- sampling


def test_sample_shape_and_range():
    pts = sample(square(C3), depth=10, count=500, seed=1)
    assert pts.shape == (500, 2)
    assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_sample_deterministic_by_seed():
    a = sample(C3, depth=8, count=64, seed=42)
    b = sample(C3, depth=8, count=64, seed=42)
    c = sample(C3, depth=8, count=64, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_accepts_tuple_seed():
    a = sample(C3, depth=8, count=16, seed=(7, 0))
    b = sample(C3, depth=8, count=16, seed=(7, 1))
    assert a.shape == b.shape and not np.array_equal(a, b)


def _digits(pts, p, depth):
    """(count, depth, n) base-p digits of depth-truncated points, the
    first level first."""
    scaled = np.rint(pts * float(p) ** depth).astype(np.int64)
    levels = []
    for _ in range(depth):
        scaled, digit = np.divmod(scaled, p)
        levels.append(digit)
    return np.stack(levels[::-1], axis=1)


def test_sample_digits_stay_in_digit_set():
    digits = _digits(sample(square(C3), depth=6, count=400, seed=3), 3, 6)
    assert set(digits.ravel().tolist()) <= {0, 2}
    allowed = {tuple(v) for v in CARPET.digit_matrix()}
    for depth in (6, 7):
        digits = _digits(sample(CARPET, depth=depth, count=400, seed=3), 3, depth)
        assert {tuple(d) for d in digits.reshape(-1, 2)} <= allowed


def test_block_levels_fill_at_most_4096_rows():
    assert block_levels(2, 100) == 12 and block_levels(16, 100) == 3
    assert block_levels(8, 100) == 4 and block_levels(10, 100) == 3
    assert block_levels(64, 100) == 2 and block_levels(65, 100) == 1
    assert block_levels(500, 100) == 1 and block_levels(10 ** 6, 100) == 1
    assert block_levels(2, 8) == 8 and block_levels(1, 9) == 9
    for k in range(2, 300):
        b = block_levels(k, 100)
        assert k ** b <= 4096 or b == 1
        assert k ** (b + 1) > 4096


def _chi2_critical(dof, z=3.719):
    """Upper chi-square quantile by the Wilson-Hilferty cube; z = 3.719
    is the normal quantile of tail 1e-4."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


def _chi2(labels, cells):
    counts = np.bincount(labels, minlength=cells)
    expected = len(labels) / cells
    return float(((counts - expected) ** 2).sum() / expected)


def _cylinder_labels(digits, factor):
    """Label in [0, k^levels) of each point's cylinder, from its digits
    (count, levels, n) in a factor of k digits."""
    rows = factor.digit_matrix()
    row_of = np.full((factor.p_int(),) * factor.ambient_dim, -1)
    row_of[tuple(rows.T)] = np.arange(len(rows))
    labels = np.zeros(len(digits), dtype=np.int64)
    for level in range(digits.shape[1]):
        labels = labels * len(rows) + row_of[tuple(digits[:, level].T)]
    return labels


@pytest.mark.parametrize("seed", [5, 6])
def test_sampled_cylinders_are_uniform_on_c3_squared(seed):
    # depth 3 in one block per factor: 8 x 8 cylinders
    digits = _digits(sample(square(C3), 3, 32_000, seed=seed), 3, 3)
    labels = _cylinder_labels(digits[:, :, :1], C3) * 8 + _cylinder_labels(digits[:, :, 1:], C3)
    assert _chi2(labels, 64) < _chi2_critical(63)


@pytest.mark.parametrize("seed", [5, 6])
def test_sampled_cylinders_are_uniform_on_the_carpet(seed):
    # depth 2, one block: all 64 cylinders
    digits = _digits(sample(CARPET, 2, 32_000, seed=seed), 3, 2)
    assert _chi2(_cylinder_labels(digits, CARPET), 64) < _chi2_critical(63)


def test_carpet_depth_7_draws_uniform_level_pairs_across_its_blocks():
    # blocks of 4 and 3 levels: every pair of adjacent levels, the pair
    # (4, 5) straddling the blocks, is uniform on its 64 cells
    assert block_levels(8, 7) == 4
    digits = _digits(sample(CARPET, 7, 32_000, seed=8), 3, 7)
    for level in range(6):
        labels = _cylinder_labels(digits[:, level:level + 2], CARPET)
        assert _chi2(labels, 64) < _chi2_critical(63), level


@pytest.mark.parametrize("spec, depth", [
    (CARPET, 7), (CARPET, 8), (L10, 7), (I512, 4), (square(C3), 13),
    (explicit_spec(5, [3]), 9), (product(explicit_spec(7, [(4, 1)], n=2), C3), 12)])
def test_sampled_points_are_exact_truncated_sums_within_rounding(spec, depth):
    # every coordinate is within (depth + 4) 2^-53, relative, of the
    # exact sum over the digits the point lies on, which are its own
    count = 300
    pts = sample(spec, depth, count, seed=4)
    prod = as_product(spec)
    for f, sl in zip(prod.factors, prod.factor_slices()):
        p = f.p_int()
        allowed = {tuple(v) for v in f.digit_matrix()}
        digits = _digits(pts[:, sl], p, depth)
        for point, point_digits in zip(pts[:, sl], digits):
            assert {tuple(d) for d in point_digits} <= allowed
            for c in range(f.ambient_dim):
                exact = sum(Fraction(int(d), p ** (j + 1))
                            for j, d in enumerate(point_digits[:, c]))
                assert abs(Fraction(point[c]) - exact) <= (depth + 4) * Fraction(1, 2 ** 53) * exact


def test_sample_charges_its_draw_cells():
    for spec, depth, count in ((square(C3), 8, 1000), (CARPET, 7, 333), (I512, 3, 10)):
        budget = EvalBudget()
        sample(spec, depth, count, seed=1, budget=budget)
        assert budget.spent == draw_cells(spec, depth, count) == \
            count * depth * len(as_product(spec).factors)
        exact = EvalBudget(draw_cells(spec, depth, count))
        sample(spec, depth, count, seed=1, budget=exact)
        assert exact.spent == exact.limit


def test_sample_one_cell_short_is_refused_before_any_draw(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("drew codes or built a table past the budget")
    monkeypatch.setattr(np.random, "Generator", reached)
    monkeypatch.setattr(measure, "_block_table", reached)
    for spec, depth, count in ((square(C3), 8, 1000), (CARPET, 7, 333)):
        budget = EvalBudget(draw_cells(spec, depth, count) - 1)
        with pytest.raises(BudgetExceededError, match="digit draws"):
            sample(spec, depth, count, budget=budget)
        assert budget.spent == 0


def test_sample_mean_matches_digit_average():
    # E[point] = mean(D)/(p-1) for each coordinate: 1/2 for Cantor {0,2}
    pts = sample(C3, depth=20, count=200_000, seed=11)
    assert abs(pts.mean() - 0.5) < 0.003
