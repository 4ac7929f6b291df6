"""Evaluation budget accounting.

Lattice sums, cylinder refinements and digit enumerations all reduce to
"cells": single transform evaluations, box classifications or digit
restriction tests.  A budget caps the total number of cells a
computation may touch so that runaway parameter choices fail fast
instead of freezing the process.
"""

from __future__ import annotations

from .errors import BudgetExceededError

DEFAULT_BUDGET = 100_000_000


class EvalBudget:
    """Mutable cell counter with a hard limit.

    charge(n) adds n cells and raises BudgetExceededError once the
    running total would pass the limit.  A single budget may be threaded
    through several operations so their combined cost is capped.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if limit <= 0:
            raise ValueError("budget limit must be positive")
        self.limit = int(limit)
        self.spent = 0

    def charge(self, cells: int, what: str = "evaluation") -> None:
        cells = int(cells)
        if cells < 0:
            raise ValueError("cannot charge a negative cell count")
        if self.spent + cells > self.limit:
            raise BudgetExceededError(
                f"budget exceeded: {what} needs {cells} cells, "
                f"{self.limit - self.spent} of {self.limit} remain",
                spent=self.spent,
                limit=self.limit,
            )
        self.spent += cells

    def remaining(self) -> int:
        return self.limit - self.spent


def ensure_budget(budget: EvalBudget | None) -> EvalBudget:
    """Return the given budget, or a fresh default-sized one."""
    return budget if budget is not None else EvalBudget()
