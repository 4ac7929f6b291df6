import decimal
import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import missingdigits.dimension as dimension
import oracles
from missingdigits import (BoundKind, BudgetExceededError, DigitInterval, EvalBudget,
                           SymbolicBaseError, best_lower_bound, crude_bound,
                           digit_symbol, explicit_spec, f_theta, fourier_transform_batch,
                           grid_lower_bound, hausdorff_dim, interval_spec,
                           lebesgue_spec, rectangle_bound, square, sup_f)
from missingdigits.measure import BasePower, as_product
from oracles import partial_sum_S_k

C3 = explicit_spec(3, [0, 2])
C5 = explicit_spec(5, [0, 1, 2, 3])
C7 = explicit_spec(7, [0, 2, 3, 5, 6])
RNG = np.random.default_rng(4)

FACTORS = {
    "I512": interval_spec(512, 0, 499),
    "I729": interval_spec(729, 0, 700),
    "L10": interval_spec(10, 0, 9),
    "C3": C3,
    "E48": explicit_spec(48, range(0, 48, 2)),
    "CARPET": explicit_spec(3, [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1),
                                (0, 2), (1, 2), (2, 2)], n=2),
}


def _terms(factor):
    """f(theta) terms per theta and residue: #D for explicit digit sets."""
    return 1 if isinstance(factor.digits, DigitInterval) else factor.digit_count()


def _f_theta_reference(factor, thetas):
    """sum_i |g((i + theta)/p)| from digit_symbol, whole residue grid at once."""
    p, n = factor.p_int(), factor.ambient_dim
    mesh = np.meshgrid(*([np.arange(p, dtype=float)] * n), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    eta = (thetas[:, None, :] + grid[None, :, :]) / p
    return np.abs(digit_symbol(factor, eta)).sum(axis=1)


# -------------------------------------------------------------- f and sup f


def test_f_theta_cantor_known_values():
    vals = f_theta(C3, np.array([[0.0], [0.5]]))
    assert vals[0] == pytest.approx(2.0, abs=1e-12)
    assert vals[1] == pytest.approx(2.0, abs=1e-12)


def test_f_theta_periodic():
    thetas = RNG.uniform(0, 1, size=(20, 1))
    a = f_theta(C3, thetas)
    b = f_theta(C3, thetas + 1.0)
    assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_f_theta_matches_the_digit_symbol_reference_over_several_blocks(name):
    factor = FACTORS[name]
    per_theta = factor.p_int() ** factor.ambient_dim * _terms(factor)
    k = 3 * max(1, dimension.F_THETA_BLOCK // per_theta) + 5  # four theta blocks
    thetas = np.random.default_rng(11).uniform(-0.5, 1.5, size=(k, factor.ambient_dim))
    np.testing.assert_allclose(f_theta(factor, thetas),
                               _f_theta_reference(factor, thetas), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["I729", "E48", "CARPET"])
def test_f_theta_splits_the_residue_grid_when_a_row_exceeds_the_block(name, monkeypatch):
    factor = FACTORS[name]
    monkeypatch.setattr(dimension, "F_THETA_BLOCK", 50)
    thetas = np.random.default_rng(12).uniform(0, 1, size=(7, factor.ambient_dim))
    np.testing.assert_allclose(f_theta(factor, thetas),
                               _f_theta_reference(factor, thetas), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["I512", "E48", "CARPET"])
def test_f_theta_charges_one_cell_per_term(name):
    factor = FACTORS[name]
    budget = EvalBudget()
    f_theta(factor, np.zeros((10, factor.ambient_dim)), budget)
    assert budget.spent == 10 * factor.p_int() ** factor.ambient_dim * _terms(factor)


# the benchmark's factors (C5 and C7 make its linear pair), L10 and the carpet
LIST_FACTORS = {**FACTORS, "C5": C5, "C7": C7}


def _lists_bound(factor):
    """The rounding bound that _f_theta_lists states, for theta in [0, 1)^n."""
    u = 2.0 ** -53
    p, n = factor.p_int(), factor.ambient_dim
    if isinstance(factor.digits, DigitInterval):
        return p * (2 * math.pi * factor.max_digit_norm() + 17) * u
    return p ** n * (2 * factor.digit_count() + 32 + 9 * n * (2 * n + 3)) * u


def _f_theta_bound(factor):
    """The rounding bound that f_theta states: _lists_bound's with fsum's
    one rounding replaced by L = ceil(log2 p^n) + 25 + B, B the number of
    residue blocks."""
    size, terms = dimension._residue_terms(factor)
    blocks = -(-size // min(size, max(1, dimension.F_THETA_BLOCK // terms)))
    return _lists_bound(factor) + size * (math.ceil(math.log2(size)) + 24 + blocks) * 2.0 ** -53


def _exact_f(factor, theta):
    """f(theta) = sum_i |g((i + theta)/p)| in 200-bit mpmath, from the
    Dirichlet form for interval digit sets and the digit exponentials
    otherwise."""
    p = factor.p_int()
    with mpmath.workprec(200):
        total = mpmath.mpf(0)
        for i in itertools.product(range(p), repeat=factor.ambient_dim):
            eta = [(mpmath.mpf(t) + k) / p for t, k in zip(theta, i)]
            if isinstance(factor.digits, DigitInterval):
                count = factor.digit_count()
                den = count * mpmath.sinpi(eta[0])
                total += 1 if den == 0 else abs(mpmath.sinpi(count * eta[0]) / den)
            else:
                digits = factor.digits.vectors
                total += abs(mpmath.fsum(mpmath.expjpi(-2 * mpmath.fsum(
                    d * e for d, e in zip(digit, eta))) for digit in digits)) / len(digits)
        return total


@pytest.mark.parametrize("name", sorted(LIST_FACTORS))
def test_list_evaluator_agrees_with_f_theta_within_its_rounding_bound(name):
    factor = LIST_FACTORS[name]
    thetas = np.random.default_rng(16).uniform(0, 1, size=(1000, factor.ambient_dim))
    thetas[0] = 0.0  # eta = 0 on the first residue, where the Dirichlet ratio is 1
    budget = EvalBudget()
    lists = dimension._f_theta_lists(factor)([tuple(t) for t in thetas.tolist()], budget)
    assert budget.spent == 1000 * factor.p_int() ** factor.ambient_dim * _terms(factor)
    assert all(type(v) is float for v in lists)
    assert np.abs(np.array(lists) - f_theta(factor, thetas)).max() <= _lists_bound(factor)


@pytest.mark.parametrize("name", sorted(LIST_FACTORS))
def test_list_evaluator_is_within_its_rounding_bound_of_200_bit_values(name):
    # and f_theta within its own
    factor = LIST_FACTORS[name]
    n = factor.ambient_dim
    thetas = [(0.0,) * n, (1 - 2.0 ** -40,) * n, (0.5,) * n,
              *map(tuple, np.random.default_rng(17).uniform(0, 1, size=(3, n)).tolist())]
    exact = [_exact_f(factor, theta) for theta in thetas]
    for values, bound in [(dimension._f_theta_lists(factor)(thetas), _lists_bound(factor)),
                          (f_theta(factor, np.array(thetas)).tolist(), _f_theta_bound(factor))]:
        for theta, value, want in zip(thetas, values, exact):
            with mpmath.workprec(200):
                assert abs(mpmath.mpf(value) - want) <= bound, theta


@pytest.mark.parametrize("name", ["E48", "CARPET", "C3", "I729"])
def test_f_far_from_the_period_cube_is_f_at_the_exactly_reduced_theta(name):
    factor = FACTORS[name]
    far = list(itertools.product([2.0 ** 30 + 0.25, 2.0 ** 45 + 0.25, -3.75],
                                 repeat=factor.ambient_dim))
    reduced = [tuple(t - math.floor(t) for t in theta) for theta in far]
    lists = dimension._f_theta_lists(factor)
    for evaluate in (lists, lambda thetas: f_theta(factor, np.array(thetas)).tolist()):
        assert [v.hex() for v in evaluate(far)] == [v.hex() for v in evaluate(reduced)]


def test_f_theta_holds_no_temporary_much_larger_than_its_block(monkeypatch):
    factor = explicit_spec(729, range(0, 701, 2))  # its 351 x 729 table is 4 MiB whole
    monkeypatch.setattr(dimension, "F_THETA_BLOCK", 1 << 14)
    thetas = np.random.default_rng(18).uniform(0, 1, size=(20, 1))
    tracemalloc.start()
    try:
        values = f_theta(factor, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * dimension.F_THETA_BLOCK * 16
    np.testing.assert_allclose(values, _f_theta_reference(factor, thetas), rtol=1e-12, atol=0)


def _former_f_theta_lists(factor, thetas, budget=None):
    """The list evaluator as one function that rebuilt its explicit-set
    table on every call, kept to pin the evaluator bit for bit."""
    size, terms = dimension._residue_terms(factor)
    if budget is not None:
        budget.charge(len(thetas) * size * terms, "f(theta) residues")
    p, sin, fsum = factor.p_int(), math.sin, math.fsum
    if isinstance(factor.digits, DigitInterval):
        count = factor.digit_count()
        scale, each, pi = math.pi * count, float(count), math.pi
        sums = []
        for (t,) in thetas:
            moduli = []
            for i in [float(i) for i in range(p)]:
                r = (t + i) / p
                if r > 0.5:
                    r -= 1.0
                moduli.append(abs(sin(scale * r) / (each * sin(pi * r))) if r else 1.0)
            sums.append(fsum(moduli))
        return sums
    digits, cos, n = factor.digits.vectors, math.cos, factor.ambient_dim
    tau = 2.0 * math.pi / p
    roots = [complex(cos(tau * k), -sin(tau * k)) for k in range(p)]
    table = [[roots[sum(map(operator.mul, d, i)) % p] for d in digits]
             for i in itertools.product(range(p), repeat=n)]
    sums = []
    for theta in thetas:
        phases = [complex(cos(a), -sin(a))
                  for a in [tau * sum(map(operator.mul, d, theta)) for d in digits]]
        sums.append(fsum([abs(sum(map(operator.mul, phases, row))) for row in table])
                    / len(digits))
    return sums


# the explicit sets of the benchmark's dim-e48, tube-carpet and cert-linear jobs, and L10
BIT_FACTORS = {"E48": FACTORS["E48"], "CARPET": FACTORS["CARPET"], "C5": C5, "C7": C7,
               "L10": FACTORS["L10"]}


@pytest.mark.parametrize("name", sorted(BIT_FACTORS))
def test_one_list_evaluator_gives_the_former_values_bit_for_bit_on_every_call(name):
    factor = BIT_FACTORS[name]
    rng = np.random.default_rng(27)
    evaluate = dimension._f_theta_lists(factor)
    for count in (1, 7, 64):  # several calls on one evaluator
        thetas = [tuple(t) for t in rng.uniform(0, 1, (count, factor.ambient_dim)).tolist()]
        budget, former = EvalBudget(), EvalBudget()
        values = evaluate(thetas, budget)
        assert [v.hex() for v in values] == \
            [v.hex() for v in _former_f_theta_lists(factor, thetas, former)]
        assert budget.spent == former.spent


@pytest.mark.parametrize("name", sorted(BIT_FACTORS))
def test_sup_f_builds_one_list_evaluator_and_finds_what_the_former_function_found(
        name, monkeypatch):
    factor = BIT_FACTORS[name]
    built = []
    evaluator = dimension._f_theta_lists

    def counted(factor):
        built.append(factor)
        return evaluator(factor)

    monkeypatch.setattr(dimension, "_f_theta_lists", counted)
    budget = EvalBudget()
    sup = sup_f(factor, budget=budget)
    assert built == [factor]
    monkeypatch.setattr(dimension, "_f_theta_lists",
                        lambda factor: lambda thetas, budget=None:
                        _former_f_theta_lists(factor, thetas, budget))
    former = EvalBudget()
    assert sup_f(factor, budget=former) == sup
    cells = sup.evaluations * factor.p_int() ** factor.ambient_dim * _terms(factor)
    assert budget.cells == former.cells == {"f(theta) residues": cells}


def test_sup_f_certificate_brackets_estimate():
    sup = sup_f(C3, h=1e-3)
    assert sup.sup_estimate <= sup.certified_upper
    dense = f_theta(C3, RNG.uniform(0, 1, size=(4000, 1)))
    assert dense.max() <= sup.certified_upper + 1e-12


def _gradient_sums(factor, thetas):
    """(sum_i |grad g_c(eta_i)| / p, sum_i |grad g_c(eta_i)|^2) at each
    theta, eta_i = (i + theta)/p over the residue grid, from the digit
    exponentials of g_c (digits shifted by their range midpoint c)."""
    p, n = factor.p_int(), factor.ambient_dim
    digits = factor.digit_matrix().astype(float)
    shifted = digits - (digits.min(axis=0) + digits.max(axis=0)) / 2
    mesh = np.meshgrid(*([np.arange(p, dtype=float)] * n), indexing="ij")
    residues = np.stack([m.ravel() for m in mesh], axis=-1)
    sums, squares = [], []
    for theta in thetas:
        eta = (residues + theta) / p
        phases = np.exp(2j * np.pi * (eta @ shifted.T))
        grad = 2j * np.pi * (phases @ shifted) / len(digits)
        norms = np.sqrt((np.abs(grad) ** 2).sum(axis=1))
        sums.append(norms.sum() / p)
        squares.append((norms ** 2).sum())
    return np.array(sums), np.array(squares)


@pytest.mark.parametrize("name, count", [("C3", 4000), ("E48", 2000), ("I512", 100),
                                         ("CARPET", 4000)])
def test_parseval_lipschitz_bounds_the_gradient_sum(name, count):
    factor = FACTORS[name]
    p, n = factor.p_int(), factor.ambient_dim
    lip = dimension._parseval_lipschitz(factor)
    thetas = np.random.default_rng(13).uniform(0, 1, size=(count, n))
    sums, squares = _gradient_sums(factor, thetas)
    # Parseval: the squares sum to (L')^2 / p^(n-2) at every theta
    np.testing.assert_allclose(squares * p ** (n - 2), lip ** 2, rtol=1e-9)
    assert sums.max() <= lip  # Cauchy-Schwarz


@pytest.mark.parametrize("factor", [
    *FACTORS.values(), C5, explicit_spec(7, [0, 2, 3, 5, 6]), explicit_spec(5, [3]),
    explicit_spec(2, [(1, 0), (0, 1)], n=2), interval_spec(10 ** 8, 0, 10 ** 8 - 1),
    interval_spec(97, 40, 40),
])
def test_parseval_lipschitz_is_exact_then_rounded_up(factor):
    p, n = factor.p_int(), factor.ambient_dim
    total = dimension._centred_square_sum(factor.digits)
    if factor.digit_count() < 10 ** 6:
        vectors = factor.digit_matrix().tolist()
        centre = [Fraction(min(col) + max(col), 2) for col in zip(*vectors)]
        assert total == 4 * sum((c - m) ** 2 for d in vectors for c, m in zip(d, centre))
    else:  # 0..N-1: sum_d (d - c)^2 = N (N^2 - 1) / 12
        count = factor.digit_count()
        assert total == 4 * Fraction(count * (count ** 2 - 1), 12)
    lip = dimension._parseval_lipschitz(factor)
    with mpmath.workprec(200):
        exact = mpmath.iv.mpf(p) ** (n - 1) * mpmath.iv.pi * mpmath.iv.sqrt(total) \
            / factor.digit_count()
        assert lip >= exact.b  # rounded up ...
        assert lip <= exact.b * (1 + 1e-14)  # ... by a few ulps


def _random_max(factor, count=10 ** 5):
    thetas = np.random.default_rng(14).uniform(0, 1, size=(count, factor.ambient_dim))
    return f_theta(factor, thetas, EvalBudget(10 ** 9)).max()


@pytest.mark.parametrize("factor", [C3, FACTORS["E48"], C5, FACTORS["CARPET"]],
                         ids=["C3", "E48", "LP5", "CARPET"])
def test_sup_f_certificate_dominates_random_thetas(factor):
    assert sup_f(factor).certified_upper >= _random_max(factor)


@pytest.mark.parametrize("factor", [C3, C5, FACTORS["E48"], FACTORS["I512"]],
                         ids=["C3", "LP5", "E48", "I512"])
def test_sup_f_is_at_most_the_grid_max_plus_lipschitz_slack(factor):
    h = 1e-3
    p, n = factor.p_int(), factor.ambient_dim
    axis = np.arange(0.0, 1.0 + h / 2, h)
    crude = p ** (n - 1) * 2.0 * math.pi * factor.max_digit_norm()
    sup = sup_f(factor, h=h)
    assert sup.certified_upper <= f_theta(factor, axis).max() + crude * h * math.sqrt(n) / 2
    assert sup.sup_estimate <= sup.certified_upper
    assert sup.h == h


@pytest.mark.parametrize("name", ["C3", "E48", "I512"])
def test_sup_f_reports_the_cells_the_budget_was_charged(name):
    factor = FACTORS[name]
    budget = EvalBudget()
    sup = sup_f(factor, budget=budget)
    cells = budget.cells["f(theta) residues"]
    assert cells == budget.spent <= dimension._LIST_CELLS  # the search ran on lists
    assert cells == sup.evaluations * factor.p_int() ** factor.ambient_dim * _terms(factor)
    assert sup.lipschitz == dimension._parseval_lipschitz(factor)
    assert dimension._f_theta_lists(factor)([sup.argmax]) == [sup.sup_estimate]
    assert abs(f_theta(factor, np.array([sup.argmax]))[0] - sup.sup_estimate) \
        <= _lists_bound(factor)


@pytest.mark.parametrize("factor, count", [
    (FACTORS["CARPET"], 10 ** 5),  # 1,527,552 cells
    (interval_spec(4096, 0, 3999), 2000),  # 360,448 cells
], ids=["CARPET", "I4096"])
def test_sup_f_above_the_list_constant_spends_the_cells_of_a_search_on_lists(
        factor, count, monkeypatch):
    budget = EvalBudget(10 ** 9)
    sup = sup_f(factor, budget=budget)
    assert budget.cells["f(theta) residues"] == budget.spent > dimension._LIST_CELLS
    assert sup.certified_upper >= _random_max(factor, count)
    monkeypatch.setattr(dimension, "_LIST_CELLS", 10 ** 12)
    on_lists = EvalBudget(10 ** 9)
    lists = sup_f(factor, budget=on_lists)
    # the routes take the same decisions: equal cells, values within rounding
    assert (on_lists.cells, lists.evaluations) == (budget.cells, sup.evaluations)
    assert abs(lists.certified_upper - sup.certified_upper) <= 2 * _lists_bound(factor)


def test_sup_f_carpet_cells_and_certificate():
    carpet = FACTORS["CARPET"]
    budget = EvalBudget()
    sup = sup_f(carpet, budget=budget)
    assert budget.cells == {"f(theta) residues": 1_527_552}  # 21,216 thetas x 9 x 8 digits
    assert sup.evaluations == 21_216
    assert 3.0 <= sup.certified_upper < 3.0032
    assert 2 - math.log(sup.certified_upper) / math.log(3) > 0.999


def test_sup_f_refuses_an_over_budget_grid_before_building_it(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("f(theta) ran on a level the budget cannot pay for")

    monkeypatch.setattr(dimension, "_f_theta_lists", no_grid)
    monkeypatch.setattr(dimension, "f_theta", no_grid)
    budget = EvalBudget(16 ** 2 * 72 - 1)
    with pytest.raises(BudgetExceededError, match="f\\(theta\\) residues"):
        sup_f(FACTORS["CARPET"], budget=budget)  # 16^2 first boxes x 72 cells
    assert budget.spent == 0


def test_sup_f_refuses_a_later_level_before_evaluating_it(monkeypatch):
    levels = []
    evaluator = dimension._f_theta_lists

    def counted(factor):
        evaluate = evaluator(factor)

        def level(thetas, budget=None):
            levels.append(len(thetas))
            return evaluate(thetas, budget)

        return level

    monkeypatch.setattr(dimension, "_f_theta_lists", counted)
    budget = EvalBudget(16 * 3 * 2 + 1)  # the first level and one theta more
    with pytest.raises(BudgetExceededError, match="f\\(theta\\) residues"):
        sup_f(C3, budget=budget)
    assert levels == [16]
    assert budget.spent == 16 * 3 * 2


@pytest.mark.parametrize("factor", [explicit_spec(5, [3]), interval_spec(7, 2, 2),
                                    explicit_spec(3, [(1, 2)], n=2)])
def test_sup_f_of_a_single_digit_factor_stops_on_its_first_level(factor):
    # |g| = 1 everywhere, so f = p^n and L' = 0
    n = factor.ambient_dim
    sup = sup_f(factor)
    assert sup.lipschitz == 0.0
    assert sup.evaluations == 16 ** n
    assert sup.certified_upper == sup.sup_estimate == pytest.approx(factor.p_int() ** n)


# ------------------------------------------------------------------ bounds


def test_grid_bound_cantor_value():
    bound = grid_lower_bound(C3)
    assert bound.rigorous
    assert bound.kind is BoundKind.GRID_SUP
    assert bound.value == pytest.approx(0.36907, abs=1e-3)


def test_bounds_never_exceed_hausdorff_dimension():
    for spec in (C3, C5, square(C3), lebesgue_spec(10), interval_spec(10, 1, 8)):
        assert best_lower_bound(spec).value <= hausdorff_dim(spec) + 1e-9


def test_single_digit_spec_clamps_to_zero():
    spec = explicit_spec(3, [0])
    bound = grid_lower_bound(spec)
    assert bound.value == 0.0
    assert hausdorff_dim(spec) == 0.0


def test_crude_bound_reference_values():
    # #D = p - 1 (one missing digit)
    small = crude_bound(interval_spec(10, 0, 8))
    assert small.value == pytest.approx(0.205654, abs=1e-3)
    big = crude_bound(interval_spec(10 ** 6, 0, 10 ** 6 - 2))
    assert big.value == pytest.approx(0.757194, abs=1e-3)
    assert big.value > small.value


@pytest.mark.parametrize("exponent", [12, 15, 18])
def test_crude_bound_exact_missing_count_at_large_base(exponent):
    # t = 1 must survive when #D/p is within 1e-12 of 1; the closed form
    # 1 - log[(p + 2 p log p)/(p - 1)]/log p is evaluated at 50 digits
    p = 10 ** exponent
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        big_p = decimal.Decimal(p)
        log_p = big_p.ln()
        expected = float(1 - ((big_p + 2 * big_p * log_p)
                              / (big_p - 1)).ln() / log_p)
    assert crude_bound(interval_spec(p, 0, p - 2)).value == pytest.approx(
        expected, abs=1e-12)


def test_crude_bound_needs_base_at_least_four():
    with pytest.raises(ValueError):
        crude_bound(C3)


def test_rectangle_bound_needs_interval_digits():
    with pytest.raises(ValueError):
        rectangle_bound(C3)


def test_rectangle_bound_symbolic_flagship_factor():
    factor = interval_spec(BasePower(10, 10000), 1, BasePower(10, 8000))
    bound = rectangle_bound(factor)
    assert bound.rigorous
    assert bound.value == pytest.approx(0.7995337, abs=1e-4)


def test_rectangle_bound_monotone_in_digit_interval():
    small = rectangle_bound(interval_spec(10, 1, 5)).value
    large = rectangle_bound(interval_spec(10, 1, 8)).value
    assert large >= small


def test_best_lower_bound_is_the_max_of_methods():
    spec = interval_spec(10, 0, 8)
    candidates = [grid_lower_bound(spec).value, crude_bound(spec).value,
                  rectangle_bound(spec).value]
    assert best_lower_bound(spec).value == pytest.approx(max(candidates), abs=1e-12)


def test_best_lower_bound_bounds_a_repeated_factor_once():
    factor = interval_spec(10, 0, 8)
    single, pair = EvalBudget(), EvalBudget()
    one = best_lower_bound(factor, budget=single)
    two = best_lower_bound(square(factor), budget=pair)
    assert single.spent > 0
    assert pair.spent == single.spent
    assert two.value == 2 * one.value


def test_candidates_reach_the_grid_bound_by_its_module_name(monkeypatch):
    calls = []
    grid = dimension.grid_lower_bound

    def counted(*args, **kwargs):
        calls.append(args[0])
        return grid(*args, **kwargs)

    monkeypatch.setattr(dimension, "grid_lower_bound", counted)
    factor = interval_spec(10, 0, 8)
    best_lower_bound(square(factor))
    assert calls == [factor]


def test_grid_bound_rejects_symbolic_base():
    factor = interval_spec(BasePower(10, 10000), 1, BasePower(10, 8000))
    with pytest.raises(SymbolicBaseError):
        grid_lower_bound(factor)
    # best_lower_bound silently falls back to the log-space methods
    assert best_lower_bound(factor).value == pytest.approx(0.7995337, abs=1e-4)


def test_product_bound_adds_factors():
    single = best_lower_bound(C3).value
    pair = best_lower_bound(square(C3))
    assert pair.value == pytest.approx(2 * single, abs=1e-12)
    assert pair.rigorous


# -------------------------------------------------------------- S_k sums


def test_partial_sums_bounded_by_sup_f_powers():
    # symmetric window spans two residue periods: S_k <= 2 (sup f)^k
    for spec in (C3, C5):
        sup = sup_f(spec, h=1e-3).certified_upper
        for k in (1, 2, 3):
            for theta in RNG.uniform(0, 1, size=4):
                s_k = partial_sum_S_k(spec, [theta], k)
                assert s_k <= 2.0 * sup ** k + 1e-9


def test_partial_sum_monotone_in_k():
    theta = [0.37]
    values = [partial_sum_S_k(C3, theta, k) for k in range(1, 5)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _s_k_reference(spec, theta, k, budget):
    """S_k from the meshgrid of the whole window, transformed in one
    batch."""
    p, n = as_product(spec).factors[0].p_int(), len(theta)
    axis = np.arange(-p ** k + 1, p ** k, dtype=np.float64)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    window = np.stack([m.ravel() for m in mesh], axis=-1)
    values, _ = fourier_transform_batch(spec, window + np.asarray(theta)[None, :], 1e-9, budget)
    return float(np.abs(values).sum())


@pytest.mark.parametrize("spec, theta, k", [
    (C3, [0.37], 4), (C5, [0.2], 3), (square(C3), [0.3, 0.1], 3),
    (FACTORS["CARPET"], [0.25, 0.6], 2), (square(interval_spec(10, 0, 9)), [0.5, 0.0], 1),
])
def test_partial_sum_walks_the_meshgrid_window_bit_for_bit(spec, theta, k):
    budget, reference_budget = EvalBudget(), EvalBudget()
    assert partial_sum_S_k(spec, theta, k, budget=budget) == _s_k_reference(
        spec, theta, k, reference_budget)
    assert budget.spent == reference_budget.spent


def test_partial_sum_refuses_an_oversized_window_before_building_it(monkeypatch):
    monkeypatch.setattr(oracles, "fourier_transform_batch",
                        lambda *args: pytest.fail("window transformed past the budget"))
    budget = EvalBudget()
    with pytest.raises(BudgetExceededError, match="S_k window"):
        partial_sum_S_k(square(C3), [0.3, 0.1], 12, budget=budget)  # 1062881^2 points
    assert budget.spent == 0


def test_partial_sum_needs_common_base():
    from missingdigits import product
    with pytest.raises(ValueError):
        partial_sum_S_k(product(C3, C5), [0.1, 0.2], 2)
