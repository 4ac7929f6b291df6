import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingdigits import (BudgetExceededError, ConfigError, EvalBudget,
                           Restriction, density_report, digits_ok,
                           enumerate_restricted, enumerate_scaled,
                           parse_system, system)
from missingdigits.graham import ONE, next_allowed

PAIR = system((3, {0, 1}), (5, {0, 1, 2}))
SCALED_PAIR = system((3, {0, 1}), (5, {0, 1, 2}),
                     scales=[Fraction(1), Fraction(1, 2)])


def brute_force(parts, scales, limit):
    """Linear scan of 1..limit with exact integer floors."""
    return [n for n in range(1, limit + 1)
            if all(digits_ok(n * t.numerator // t.denominator, b, d)
                   for (b, d), t in zip(parts, scales))]


# --------------------------------------------------------------- digit test


def test_digits_ok_examples():
    assert digits_ok(10, 3, {0, 1})        # 101 in base 3
    assert digits_ok(10, 5, {0, 1, 2})     # 20 in base 5
    assert not digits_ok(2, 3, {0, 1})
    assert digits_ok(0, 3, {0, 1})         # zero's expansion is "0"
    assert not digits_ok(0, 3, {1, 2})


def test_restriction_validation():
    with pytest.raises(ConfigError):
        Restriction(2, frozenset({0, 1}))
    with pytest.raises(ConfigError):
        Restriction(3, frozenset())
    with pytest.raises(ConfigError):
        Restriction(3, frozenset({0, 3}))
    with pytest.raises(ConfigError):
        Restriction(3, frozenset({0, 1}), Fraction(3, 2))


def test_float_scales_rejected():
    with pytest.raises(ConfigError):
        system((3, {0, 1}), scales=[0.5])


# ------------------------------------------------------------- enumeration


def test_reference_pair_up_to_100():
    assert enumerate_restricted(PAIR, 100) == [1, 10, 12, 27, 30, 31, 36, 37]


def test_single_full_restriction_keeps_everything():
    full = system((10, range(10)))
    assert enumerate_restricted(full, 75) == list(range(1, 76))


def test_output_strictly_increasing_and_rechecks():
    members = enumerate_restricted(PAIR, 5000)
    assert all(a < b for a, b in zip(members, members[1:]))
    assert all(digits_ok(m, 3, {0, 1}) and digits_ok(m, 5, {0, 1, 2})
               for m in members)
    assert 0 not in members


def test_dfs_equals_brute_force_on_random_systems():
    rng = random.Random(2026)
    for _ in range(50):
        parts = []
        for _ in range(rng.randint(1, 3)):
            base = rng.randint(3, 12)
            size = rng.randint(1, base - 1)
            digits = frozenset(rng.sample(range(base), size))
            parts.append((base, digits))
        limit = rng.randint(10, 100_000)
        sys_ = system(*parts)
        brute = [n for n in range(1, limit + 1)
                 if all(digits_ok(n, b, d) for b, d in parts)]
        assert enumerate_restricted(sys_, limit) == brute


def test_three_base_system_matches_brute_force():
    parts = [(3, {0, 1}), (5, {0, 1, 2}), (7, {0, 1, 2, 3})]
    limit = 10 ** 6
    want = brute_force(parts, [ONE] * 3, limit)
    assert enumerate_restricted(system(*parts), limit) == want


def test_count_below_base_power_with_zero_digit():
    single = system((3, {0, 1}))
    for k in (3, 5, 7):
        members = enumerate_restricted(single, 3 ** k - 1)
        assert len(members) == 2 ** k - 1


def test_enumeration_budget():
    wide = system((10, range(10)))
    with pytest.raises(BudgetExceededError):
        enumerate_restricted(wide, 10 ** 7, budget=EvalBudget(1000))
    wide_scaled = system((10, range(10)), scales=[Fraction(1, 3)])
    with pytest.raises(BudgetExceededError):
        enumerate_scaled(wide_scaled, 10 ** 7, budget=EvalBudget(1000))


def test_scaled_budget_charges_steps_taken():
    # A scan of 1..N would need N cells per restriction, 4e8 here.
    budget = EvalBudget()
    members = enumerate_scaled(SCALED_PAIR, 2 * 10 ** 8, budget)
    assert len(members) == 1243
    assert 0 < budget.spent < 10 ** 5


# ------------------------------------------------------------------ scaling


def test_scaled_with_unit_scales_matches_enumerate():
    assert enumerate_scaled(PAIR, 300) == enumerate_restricted(PAIR, 300)


def test_scaled_floor_uses_exact_rationals():
    got = enumerate_scaled(SCALED_PAIR, 100)
    # independent re-scan with integer arithmetic
    want = [n for n in range(1, 101)
            if digits_ok(n, 3, {0, 1}) and digits_ok(n // 2, 5, {0, 1, 2})]
    assert got == want


def test_scaled_pair_members_up_to_a_million():
    members = enumerate_scaled(SCALED_PAIR, 10 ** 6)
    assert len(members) == 172
    assert members == brute_force([(3, {0, 1}), (5, {0, 1, 2})],
                                  [ONE, Fraction(1, 2)], 10 ** 6)


def test_zero_digit_set_stops_once_floor_is_positive():
    only_zero = system((3, {0, 1}), (5, {0}), scales=[ONE, Fraction(1, 40)])
    assert enumerate_scaled(only_zero, 10 ** 9) == [1, 3, 4, 9, 10, 12, 13, 27,
                                                    28, 30, 31, 36, 37, 39]


def test_tiny_scale_floors_to_zero_digit():
    tiny = system((3, {0, 1}), scales=[Fraction(1, 10 ** 9)])
    assert enumerate_scaled(tiny, 200) == list(range(1, 201))


def test_enumerate_requires_unit_scales():
    scaled = system((3, {0, 1}), scales=[Fraction(1, 2)])
    with pytest.raises(ConfigError):
        enumerate_restricted(scaled, 100)


# ------------------------------------------------------------------ parsing


def test_parse_system_round_trip():
    sys_ = parse_system("3:{0,1};5:{0,1,2}")
    assert sys_ == PAIR
    scaled = parse_system("3:{0,1};5:{0,1,2}", "1,1/2")
    assert scaled.restrictions[1].scale == Fraction(1, 2)


def test_parse_system_errors():
    for text in ("", "3:0,1", "3:{}", "x:{0}", "3:{0,a}"):
        with pytest.raises((ConfigError, ValueError)):
            parse_system(text)


@pytest.mark.parametrize("scales", ["1,abc", "1,1/0"])
def test_parse_system_bad_scales_are_config_errors(scales):
    with pytest.raises(ConfigError):
        parse_system("3:{0,1};5:{0,1,2}", scales)


# ------------------------------------------------------------------ density


def test_density_exponent_single_cantor_restriction():
    rows = density_report(system((3, {0, 1})), [3 ** 12])
    target = math.log(2) / math.log(3)
    assert rows[0]["exponent"] == pytest.approx(target, abs=0.05)


def test_density_exponent_full_digit_sets_near_one():
    rows = density_report(system((10, range(10))), [10 ** 5])
    assert rows[0]["exponent"] == pytest.approx(1.0, abs=0.01)


def test_density_counts_cumulative():
    rows = density_report(PAIR, [10, 100, 1000])
    counts = [r["count"] for r in rows]
    assert counts == sorted(counts)
    assert counts[1] == 8  # the reference set up to 100


# ------------------------------------------------------- kernel properties


@settings(deadline=None)
@given(base=st.integers(3, 12), data=st.data(), m=st.integers(0, 3000))
def test_next_allowed_is_least_allowed_at_or_above(base, data, m):
    digits = frozenset(data.draw(st.sets(st.integers(0, base - 1), min_size=1)))
    y = next_allowed(m, base, digits)
    if y is None:
        assert digits == {0} and m > 0
        return
    assert y >= m and digits_ok(y, base, digits)
    # no allowed integer lies strictly between m and y
    assert not any(digits_ok(v, base, digits) for v in range(m, y))


@st.composite
def restriction_systems(draw):
    parts, scales = [], []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.integers(3, 12))
        digits = draw(st.one_of(
            st.just(frozenset({0})),
            st.frozensets(st.integers(0, base - 1), min_size=1)))
        parts.append((base, digits))
        den = draw(st.integers(1, 60))
        scales.append(Fraction(draw(st.integers(1, den)), den))
    return parts, scales


@settings(max_examples=150, deadline=None)
@given(spec=restriction_systems(), limit=st.integers(1, 3 * 10 ** 4))
def test_kernel_equals_brute_force(spec, limit):
    parts, scales = spec
    assert enumerate_scaled(system(*parts, scales=scales), limit) == \
        brute_force(parts, scales, limit)
    assert enumerate_restricted(system(*parts), limit) == \
        brute_force(parts, [ONE] * len(parts), limit)
