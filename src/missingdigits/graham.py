"""Integers with simultaneously restricted digits in several bases.

A restriction system is a list of (base b_i, digit set D_i, scale t_i)
with t_i in (0, 1].  An integer n qualifies when, for every i, the
base-b_i expansion of floor(t_i * n) uses only digits from D_i.  Both
the unscaled and the scaled enumeration run one output-sensitive
kernel: starting from x = 1, a restriction that rejects floor(t_i * x)
moves x straight to ceil(y / t_i), where y is the next integer whose
digits D_i allows (found digit by digit, `next_allowed`), until every
restriction accepts x.  Because floor(t*n) is nondecreasing in n no
member is ever jumped over, and the work grows with the number of
jumps, not with N.  Scales are exact fractions so the floor never
suffers a boundary misclassification, which is why floating-point
scales are rejected outright.

By convention 0 never appears in the output: the subject is positive
integers, even though 0's digit string "0" passes any digit set
containing 0.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .budget import EvalBudget, ensure_budget
from .errors import ConfigError
from .value import Value

ONE = Fraction(1)


class Restriction(Value):
    """One digit condition: base-`base` digits of floor(scale * n)
    must all lie in `digits`."""

    _fields = ("base", "digits", "scale")

    def __init__(self, base: int, digits: frozenset, scale: Fraction = ONE):
        if not isinstance(base, int) or base < 3:
            raise ConfigError("restriction base must be an integer >= 3")
        digits = frozenset(int(d) for d in digits)
        if not digits:
            raise ConfigError("digit set must be nonempty")
        if any(d < 0 or d >= base for d in digits):
            raise ConfigError(f"digits must lie in 0..{base - 1}")
        if not isinstance(scale, (Fraction, int)):
            raise ConfigError(
                "scale must be an exact Fraction (or integer 1); "
                "floating-point scales misclassify floor boundaries"
            )
        scale = Fraction(scale)
        if not 0 < scale <= 1:
            raise ConfigError("scale must lie in (0, 1]")
        self._set(base=base, digits=digits, scale=scale)

    @property
    def selectivity(self) -> float:
        return len(self.digits) / self.base


class RestrictionSystem(Value):
    _fields = ("restrictions",)

    def __init__(self, restrictions: tuple):
        rs = tuple(restrictions)
        if not rs:
            raise ConfigError("restriction system must be nonempty")
        if not all(isinstance(r, Restriction) for r in rs):
            raise ConfigError("restrictions must be Restriction instances")
        self._set(restrictions=rs)

    @property
    def unscaled(self) -> bool:
        return all(r.scale == 1 for r in self.restrictions)


def system(*parts, scales=None) -> RestrictionSystem:
    """Build a RestrictionSystem from (base, digits) pairs plus an
    optional parallel list of scales."""
    scales = [ONE] * len(parts) if scales is None else list(scales)
    if len(scales) != len(parts):
        raise ConfigError("need one scale per restriction")
    return RestrictionSystem(tuple(
        Restriction(base, frozenset(digits), scale)
        for (base, digits), scale in zip(parts, scales)
    ))


def parse_system(text: str, scales_text: str | None = None) -> RestrictionSystem:
    """Parse "3:{0,1};5:{0,1,2}" with optional scales "1,1/2"."""
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        base_text, _, digit_text = chunk.partition(":")
        digit_text = digit_text.strip()
        if not digit_text.startswith("{") or not digit_text.endswith("}"):
            raise ConfigError(f"digit set must be brace-delimited: {chunk!r}")
        try:
            base = int(base_text)
            digits = frozenset(int(d) for d in digit_text[1:-1].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad restriction {chunk!r}: {exc}") from exc
        parts.append((base, digits))
    scales = None
    if scales_text is not None:
        try:
            scales = [Fraction(s.strip()) for s in scales_text.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad scales {scales_text!r}: {exc}") from exc
    return system(*parts, scales=scales)


# ------------------------------------------------------------- digit test


def digits_ok(m: int, base: int, digits) -> bool:
    """True iff every base-`base` digit of m lies in `digits`; m = 0
    has the single digit 0."""
    if m == 0:
        return 0 in digits
    while m:
        m, d = divmod(m, base)
        if d not in digits:
            return False
    return True


def next_allowed(m: int, base: int, digits) -> int | None:
    """Smallest y >= m whose base-`base` digits all lie in `digits`
    (0 has the single digit 0), or None when no such y exists, which
    happens only for digits = {0} and m > 0.  Costs O(number of digits
    of m) integer steps."""
    if digits_ok(m, base, digits):
        return m
    ordered = sorted(digits)
    low = ordered[0]
    expansion = []  # least significant digit first
    rest = m
    while True:
        rest, d = divmod(rest, base)
        expansion.append(d)
        if not rest:
            break
    first_bad = len(expansion) - 1
    while expansion[first_bad] in digits:
        first_bad -= 1
    expansion.append(0)  # a leading zero: y may have one digit more than m
    # Keep the allowed digits above some position j >= first_bad, raise
    # digit j to the next allowed one and fill below with the least.
    for j in range(first_bad, len(expansion)):
        up = bisect.bisect_right(ordered, expansion[j])
        if up < len(ordered):
            scale = base ** j
            head = (m // (scale * base)) * base + ordered[up]
            return head * scale + low * (scale - 1) // (base - 1)
    return None


# ------------------------------------------------------------ enumeration

# Restriction tests charged to the budget per charge() call.
CHARGE_BLOCK = 1 << 16


def _members(system_: RestrictionSystem, limit: int, bud: EvalBudget,
             label: str) -> list:
    """Sorted n in [1, limit] passing every restriction, by fixpoint
    jumps: a restriction that rejects x moves x to the least n whose
    scaled floor reaches the next allowed integer.

    floor(t*n) is nondecreasing in n, so no n between x and the jump
    target qualifies; since t <= 1 the target's floor equals that
    allowed integer, so the restriction that jumped already passes
    there.  Each restriction test is one budget cell, charged in
    blocks under `label` as the enumeration runs.
    """
    order = sorted(system_.restrictions, key=lambda r: r.selectivity)
    rules = [(r.base, r.digits, r.scale.numerator, r.scale.denominator)
             for r in order]
    k = len(rules)
    out = []
    x, i, clean, cells = 1, 0, 0, 0
    while x <= limit:
        base, digits, num, den = rules[i]
        i = (i + 1) % k
        cells += 1
        if cells == CHARGE_BLOCK:
            bud.charge(cells, label)
            cells = 0
        s = num * x // den
        y = next_allowed(s, base, digits)
        if y == s:
            clean += 1
        elif y is None:
            break
        else:
            x = -(-y * den // num)
            clean = 1
        if clean == k and x <= limit:
            out.append(x)
            x += 1
            clean = 0
    bud.charge(cells, label)
    return out


def enumerate_restricted(system_: RestrictionSystem, limit: int,
                         budget: EvalBudget | None = None) -> list:
    """Sorted list of n in [1, limit] meeting every restriction; all
    scales must be 1 (use enumerate_scaled otherwise)."""
    if not system_.unscaled:
        raise ConfigError("enumerate_restricted requires all scales = 1")
    return _members(system_, limit, ensure_budget(budget), "digit tree")


def enumerate_scaled(system_: RestrictionSystem, limit: int,
                     budget: EvalBudget | None = None) -> list:
    """Sorted list of n in [1, limit] such that floor(scale_i * n)
    passes every digit restriction."""
    return _members(system_, limit, ensure_budget(budget), "scaled scan")


def enumerate_members(system_: RestrictionSystem, limit: int,
                      budget: EvalBudget | None = None) -> list:
    """Sorted list of n in [1, limit] meeting every restriction, by
    enumerate_restricted when all scales are 1, else enumerate_scaled."""
    if system_.unscaled:
        return enumerate_restricted(system_, limit, budget)
    return enumerate_scaled(system_, limit, budget)


def density_report(system_: RestrictionSystem, checkpoints,
                   budget: EvalBudget | None = None) -> list:
    """Counts of qualifying integers up to each checkpoint N together
    with the fitted exponent log(count)/log(N), None for a count of 0;
    rows are dicts."""
    checkpoints = sorted(int(n) for n in checkpoints)
    if any(n < 2 for n in checkpoints):
        raise ConfigError("checkpoints must be >= 2")
    members = enumerate_members(system_, checkpoints[-1], budget)
    rows = []
    idx = 0
    for n in checkpoints:
        while idx < len(members) and members[idx] <= n:
            idx += 1
        count = idx
        exponent = math.log(count) / math.log(n) if count else None
        rows.append({"limit": n, "count": count, "exponent": exponent})
    return rows
