import re
import threading
import time

import pytest

from missingdigits import BudgetExceededError, EvalBudget

THREADS = 4
CHARGES = 1_000


class _YieldingBudget(EvalBudget):
    """A budget that yields the GIL after every read of its running
    total, so other threads run between charge's check and its add, and
    between the read and the write of its add."""

    __slots__ = ("_spent",)

    @property
    def spent(self):
        value = self._spent
        time.sleep(1e-6)
        return value

    @spent.setter
    def spent(self, value):
        self._spent = value


def _charge_concurrently(budget) -> int:
    """THREADS threads charge one cell CHARGES times each; returns how
    many charges were refused."""
    start = threading.Barrier(THREADS)
    refused = []

    def worker():
        start.wait(timeout=60)
        for _ in range(CHARGES):
            try:
                budget.charge(1, "test cells")
            except BudgetExceededError:
                refused.append(1)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return len(refused)


def test_concurrent_charges_add_up_exactly():
    budget = _YieldingBudget(THREADS * CHARGES)
    assert _charge_concurrently(budget) == 0
    assert budget.spent == THREADS * CHARGES
    with pytest.raises(BudgetExceededError):
        budget.charge(1)
    assert budget.spent == THREADS * CHARGES
    budget.check(0, "checked")
    # neither a refused charge nor a check adds to the cells by label
    assert budget.cells == {"test cells": budget.spent}


def test_concurrent_overflow_still_raises():
    limit = THREADS * CHARGES - 7
    budget = _YieldingBudget(limit)
    assert _charge_concurrently(budget) == 7
    assert budget.cells == {"test cells": budget.spent}
    assert budget.spent == limit


def test_refusals_give_counts_past_15_digits_in_scientific_form():
    budget = EvalBudget(10)
    for cells, shown in ((10 ** 15 - 1, "999999999999999"), (10 ** 15, "1.000e+15"),
                         (643 * 10 ** 297, "6.430e+299"), (10 ** 400, "1.000e+400")):
        with pytest.raises(BudgetExceededError, match=re.escape(f"needs {shown} cells")):
            budget.check(cells, "x")
