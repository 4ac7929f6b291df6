import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from missingdigits import (BasePower, ConfigError, MissingDigitsSpec,
                           ProductMeasureSpec, SymbolicBaseError,
                           explicit_spec, hausdorff_dim, interval_spec,
                           lebesgue_spec, parse_spec, product, sample, square,
                           total_dim)
from missingdigits.measure import DigitInterval, ExplicitDigits, as_product, int_less

C3 = explicit_spec(3, [0, 2])
C5 = explicit_spec(5, [0, 1, 2, 3])


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


def test_sample_digits_stay_in_digit_set():
    depth = 6
    pts = sample(square(C3), depth=depth, count=400, seed=3)
    scaled = np.rint(pts * 3 ** depth).astype(np.int64)
    for column in scaled.T:
        for value in column:
            for _ in range(depth):
                value, digit = divmod(value, 3)
                assert digit in (0, 2)


def test_sample_mean_matches_digit_average():
    # E[point] = mean(D)/(p-1) for each coordinate: 1/2 for Cantor {0,2}
    pts = sample(C3, depth=20, count=200_000, seed=11)
    assert abs(pts.mean() - 0.5) < 0.003
