"""Evaluation budget accounting.

Lattice sums, cylinder refinements, f(theta) grids and digit
enumerations all reduce to "cells": single transform evaluations, box
classifications, f(theta) terms (one per residue for interval digit
sets, one per residue and digit for explicit ones) or digit
restriction tests.  A budget caps the total number of cells a
computation may touch so that runaway parameter choices fail fast
instead of freezing the process.
"""

from __future__ import annotations

import threading

from .errors import BudgetExceededError

DEFAULT_BUDGET = 100_000_000

# The other limits that the CLI checks its input against while it builds
# its parser, kept beside DEFAULT_BUDGET so that building it loads no
# numerics: transform tolerances below TOL_FLOOR are meaningless in
# double precision, and certify.preset rebuilds the PRESET_NAMES.
TOL_FLOOR = 1e-12
PRESET_NAMES = ("theorem-a", "theorem-b", "theorem-b-homogeneous")


class EvalBudget:
    """Mutable cell counter with a hard limit.

    charge(n, what) adds n cells and raises BudgetExceededError once the
    running total would pass the limit.  A single budget may be threaded
    through several operations so their combined cost is capped.  No
    library code starts a thread; the check and the add happen under one
    lock for callers who share one budget across threads of their own.
    `cells` holds the charged cells by label `what`, so they add
    up to `spent`; a refused charge adds to neither.
    """

    __slots__ = ("limit", "spent", "cells", "_lock")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if limit <= 0:
            raise ValueError("budget limit must be positive")
        self.limit = int(limit)
        self.spent = 0
        self.cells = {}
        self._lock = threading.Lock()

    def charge(self, cells: int, what: str = "evaluation") -> None:
        cells = int(cells)
        if cells < 0:
            raise ValueError("cannot charge a negative cell count")
        with self._lock:
            if self.spent + cells > self.limit:
                raise self._exceeded(cells, what)
            self.spent += cells
            self.cells[what] = self.cells.get(what, 0) + cells

    def check(self, cells: int, what: str = "evaluation") -> None:
        """Raise as charge(cells, what) would, but charge nothing: work
        the budget cannot pay for is refused before it is set up, and
        the charges that pay for it still enforce the limit."""
        cells = int(cells)
        if self.spent + cells > self.limit:
            raise self._exceeded(cells, what)

    def _exceeded(self, cells: int, what: str) -> BudgetExceededError:
        need = cells
        if cells >= 10 ** 15:
            # in scientific form; Decimal takes ints past the float range,
            # and is imported here so that no other run loads it
            from decimal import Decimal

            need = f"{Decimal(cells):.3e}"
        return BudgetExceededError(
            f"budget exceeded: {what} needs {need} cells, "
            f"{self.limit - self.spent} of {self.limit} remain",
            spent=self.spent,
            limit=self.limit,
        )


def ensure_budget(budget: EvalBudget | None) -> EvalBudget:
    """Return the given budget, or a fresh default-sized one."""
    return budget if budget is not None else EvalBudget()
