"""Missing-digits measures and their product combinations.

A missing-digits measure on [0,1]^n is the law of the random series

    S = sum_{i>=1} p^{-i} d_i,

where the d_i are independent and uniform on a digit set D contained in
{0,...,p-1}^n.  Its support is the set of points whose base-p expansion
uses only digits from D.  Products of such measures (possibly with
different bases per factor) are handled by ProductMeasureSpec.

Bases are represented as b^e so that astronomically large bases (say
10^10000) can be manipulated through their logarithms without ever
materializing the integer.  Digit sets are either explicit vectors or
integer intervals lo..hi; intervals may have symbolic endpoints, in
which case only log-arithmetic (dimension formulas, certified bounds)
is available, not sampling or pointwise Fourier evaluation.

The Hausdorff dimension of a factor is log(#D)/log(p); for a product it
is the sum over factors.  This is also the L2-flattening dimension of
the measure, since missing-digits measures are Ahlfors-David regular.
"""

from __future__ import annotations

import math
import numbers
import re
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .budget import EvalBudget, ensure_budget
from .errors import ConfigError, SymbolicBaseError
from .value import Value

if TYPE_CHECKING:
    import numpy as np

# numpy is imported where digit arrays are built, so that the log
# arithmetic of symbolic bases and the digit norms run without it.

# Largest integer we are willing to materialize exactly: anything whose
# logarithm exceeds ln(2^62) stays symbolic and supports only
# log-arithmetic.
_EXACT_LOG_CAP = 62 * math.log(2.0)

# Cap on explicit digit enumeration (rows of a digit matrix).
_ENUM_CAP = 1 << 22

# Largest bit length int_less builds to settle a tie of logarithms.
_TIE_BITS = 1 << 20


# ---------------------------------------------------------------- BasePower


class BasePower(Value):
    """Integer of the form b^e, kept symbolic when too large to touch.

    log_value() is always available; exact_int() only when
    e*ln(b) <= ln(2^62).
    """

    _fields = ("b", "e")

    def __init__(self, b: int, e: int = 1):
        if b < 2:
            raise ConfigError(f"base must be >= 2, got {b}")
        if e < 1:
            raise ConfigError(f"exponent must be >= 1, got {e}")
        self._set(b=b, e=e)

    def log_value(self) -> float:
        return self.e * math.log(self.b)

    def is_exact(self) -> bool:
        return self.log_value() <= _EXACT_LOG_CAP

    def exact_int(self) -> int:
        if not self.is_exact():
            raise SymbolicBaseError(
                f"{self} is too large to materialize as an exact integer"
            )
        return self.b ** self.e

    def __str__(self) -> str:
        return str(self.b) if self.e == 1 else f"{self.b}^{self.e}"

    @staticmethod
    def parse(text: str) -> "BasePower":
        text = text.strip()
        m = re.fullmatch(r"(\d+)\s*\^\s*(\d+)", text)
        if m:
            return BasePower(_parse_int(m.group(1), "base"), _parse_int(m.group(2), "exponent"))
        if re.fullmatch(r"\d+", text):
            return BasePower(_parse_int(text, "base"), 1)
        raise ConfigError(f"cannot parse integer or power: {text!r}")


IntLike = Union[int, BasePower]


def log_int(x: IntLike) -> float:
    """Natural log of a positive integer or symbolic power."""
    if isinstance(x, BasePower):
        return x.log_value()
    if x <= 0:
        raise ValueError("log_int needs a positive integer")
    return math.log(x)


def as_exact_int(x: IntLike) -> int:
    return x.exact_int() if isinstance(x, BasePower) else int(x)


def is_exact_int(x: IntLike) -> bool:
    return not isinstance(x, BasePower) or x.is_exact()


def _python_int(x: IntLike) -> int:
    """x as a Python int, however large."""
    return x.b ** x.e if isinstance(x, BasePower) else int(x)


def int_less(x: IntLike, y: IntLike) -> bool:
    """Exact x < y for possibly-symbolic integers."""
    if is_exact_int(x) and is_exact_int(y):
        return as_exact_int(x) < as_exact_int(y)
    if isinstance(x, BasePower) and isinstance(y, BasePower) and x.b == y.b:
        return x.e < y.e
    # one side is a symbolic power, so positive; the other may have no log
    if is_exact_int(x) and as_exact_int(x) < 1:
        return True
    if is_exact_int(y) and as_exact_int(y) < 1:
        return False
    lx, ly = log_int(x), log_int(y)
    if abs(lx - ly) > 1e-9 * max(1.0, abs(lx), abs(ly)):
        return lx < ly
    if max(lx, ly) <= _TIE_BITS * math.log(2.0):
        # equal powers in different bases, say 2^400 and 4^200
        return _python_int(x) < _python_int(y)
    raise ConfigError(
        f"cannot compare {x} and {y} exactly; rewrite them with a common base"
    )


# ---------------------------------------------------------------- digit sets


class ExplicitDigits(Value):
    """Digit set given as explicit vectors in {0,...,p-1}^n.

    Vectors are stored sorted lexicographically; duplicates are
    rejected.  For n = 1 scalar digits are accepted and normalized to
    1-vectors.
    """

    _fields = ("vectors",)

    def __init__(self, vectors: Iterable):
        rows = []
        for v in vectors:
            if isinstance(v, numbers.Integral):  # int or numpy integer
                rows.append((int(v),))
            else:
                rows.append(tuple(int(c) for c in v))
        if not rows:
            raise ConfigError("digit set must be nonempty")
        dims = {len(r) for r in rows}
        if len(dims) != 1:
            raise ConfigError("digit vectors must share one dimension")
        if len(set(rows)) != len(rows):
            raise ConfigError("digit set contains duplicates")
        self._set(vectors=tuple(sorted(rows)))

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    def count(self) -> int:
        return len(self.vectors)

    def log_count(self) -> float:
        return math.log(self.count())

    def validate_for(self, base: BasePower, ambient_dim: int) -> None:
        if self.dim != ambient_dim:
            raise ConfigError(
                f"digit vectors have dimension {self.dim}, spec has n={ambient_dim}"
            )
        if not base.is_exact():
            raise SymbolicBaseError(
                "explicit digit sets require a materializable base"
            )
        p = base.exact_int()
        for v in self.vectors:
            if any(c < 0 or c >= p for c in v):
                raise ConfigError(f"digit {v} outside {{0..{p - 1}}}^{ambient_dim}")

    def digit_matrix(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.vectors, dtype=np.int64)

    def max_euclid_norm(self) -> float:
        """sqrt of the largest exact integer sum of squares, which is the
        largest float norm of a digit while the squares are exact
        (coordinates below 2^26), as sqrt is monotone."""
        return math.sqrt(max(sum(c * c for c in v) for v in self.vectors))

    def is_rectangle(self) -> bool:
        """True when the set equals a product of integer intervals."""
        sizes = []
        for column in zip(*self.vectors):
            vals = set(column)
            if max(vals) - min(vals) + 1 != len(vals):
                return False
            sizes.append(len(vals))
        if math.prod(sizes) != len(self.vectors):
            return False
        # Consecutive per-coordinate ranges with matching cardinality
        # force the set to be the full product.
        return True

    def __str__(self) -> str:
        if self.dim == 1:
            return "{" + ",".join(str(v[0]) for v in self.vectors) + "}"
        return "{" + ",".join("(" + ",".join(map(str, v)) + ")" for v in self.vectors) + "}"


class DigitInterval(Value):
    """One-dimensional digit interval lo..hi, endpoints possibly symbolic.

    Always a rectangle; cardinality hi-lo+1 is computed exactly when the
    endpoints materialize and in log-space otherwise.
    """

    _fields = ("lo", "hi")

    def __init__(self, lo: IntLike, hi: IntLike):
        if isinstance(lo, BasePower) and lo.is_exact():
            lo = lo.exact_int()
        if isinstance(hi, BasePower) and hi.is_exact():
            hi = hi.exact_int()
        if isinstance(lo, int) and lo < 0:
            raise ConfigError("digit interval must start at >= 0")
        if int_less(hi, lo):
            raise ConfigError("digit interval is empty")
        self._set(lo=lo, hi=hi)

    @property
    def dim(self) -> int:
        return 1

    def is_symbolic(self) -> bool:
        return not (is_exact_int(self.lo) and is_exact_int(self.hi))

    def count(self) -> int:
        if self.is_symbolic():
            raise SymbolicBaseError("symbolic digit interval has no exact count")
        return as_exact_int(self.hi) - as_exact_int(self.lo) + 1

    def log_count(self) -> float:
        if not self.is_symbolic():
            return math.log(self.count())
        if not int_less(self.lo, self.hi):  # one digit: the form below cancels to log(0)
            return 0.0
        # #D = hi - lo + 1 = hi * (1 - lo/hi + 1/hi), in logs:
        log_hi = log_int(self.hi)
        ratio = math.exp(log_int(self.lo) - log_hi) if not _is_zero(self.lo) else 0.0
        tiny = math.exp(-log_hi) if log_hi < 700 else 0.0
        return log_hi + math.log1p(-ratio + tiny)

    def validate_for(self, base: BasePower, ambient_dim: int) -> None:
        if ambient_dim != 1:
            raise ConfigError("digit intervals are one-dimensional; use n=1")
        # hi <= p-1, i.e. hi < p, must hold exactly.
        if not int_less(self.hi, base):
            raise ConfigError(f"digit interval end {self.hi} not below base {base}")

    def digit_matrix(self) -> np.ndarray:
        import numpy as np

        n = self.count()
        if n > _ENUM_CAP:
            raise SymbolicBaseError(
                f"digit interval has {n} elements; enumeration is capped at {_ENUM_CAP}"
            )
        lo = as_exact_int(self.lo)
        return np.arange(lo, lo + n, dtype=np.int64).reshape(-1, 1)

    def max_euclid_norm(self) -> float:
        if self.is_symbolic():
            raise SymbolicBaseError("symbolic digit interval has no float norm")
        return float(as_exact_int(self.hi))

    def is_rectangle(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


def _is_zero(x: IntLike) -> bool:
    return isinstance(x, int) and x == 0


DigitSet = Union[ExplicitDigits, DigitInterval]


# ---------------------------------------------------------------- specs


class MissingDigitsSpec(Value):
    """One missing-digits factor: base p = b^e, digit set D, ambient n."""

    _fields = ("base", "digits", "ambient_dim")

    def __init__(self, base: BasePower, digits: DigitSet, ambient_dim: int = 1):
        if ambient_dim < 1:
            raise ConfigError("ambient dimension must be >= 1")
        digits.validate_for(base, ambient_dim)
        self._set(base=base, digits=digits, ambient_dim=ambient_dim)

    # -- log-arithmetic quantities (always available) --

    def log_base(self) -> float:
        return self.base.log_value()

    def log_digit_count(self) -> float:
        return self.digits.log_count()

    def hausdorff_dim(self) -> float:
        return self.log_digit_count() / self.log_base()

    # -- exact quantities (materializable base only) --

    def is_enumerable(self) -> bool:
        if not self.base.is_exact():
            return False
        if isinstance(self.digits, DigitInterval) and self.digits.is_symbolic():
            return False
        return True

    def p_int(self) -> int:
        return self.base.exact_int()

    def digit_count(self) -> int:
        return self.digits.count()

    def digit_matrix(self) -> np.ndarray:
        if not self.is_enumerable():
            raise SymbolicBaseError(
                "spec with symbolic base or digits cannot enumerate digits"
            )
        return self.digits.digit_matrix()

    def max_digit_norm(self) -> float:
        return self.digits.max_euclid_norm()

    def config_text(self) -> str:
        return (
            f"factor {{ base = {self.base}; digits = {self.digits}; "
            f"n = {self.ambient_dim}; }}"
        )

    def __str__(self) -> str:
        return self.config_text()


class ProductMeasureSpec(Value):
    """Product of missing-digits factors, acting on R^(sum of factor dims)."""

    _fields = ("factors",)

    def __init__(self, factors: Sequence[MissingDigitsSpec]):
        factors = tuple(factors)
        if not factors:
            raise ConfigError("product spec needs at least one factor")
        for f in factors:
            if not isinstance(f, MissingDigitsSpec):
                raise ConfigError("product factors must be MissingDigitsSpec")
        self._set(factors=factors)

    @property
    def total_dim(self) -> int:
        return sum(f.ambient_dim for f in self.factors)

    def hausdorff_dim(self) -> float:
        return sum(f.hausdorff_dim() for f in self.factors)

    def is_enumerable(self) -> bool:
        return all(f.is_enumerable() for f in self.factors)

    def factor_slices(self) -> list[slice]:
        out, at = [], 0
        for f in self.factors:
            out.append(slice(at, at + f.ambient_dim))
            at += f.ambient_dim
        return out

    def config_text(self) -> str:
        return "\n".join(f.config_text() for f in self.factors)

    def __str__(self) -> str:
        return self.config_text()


Spec = Union[MissingDigitsSpec, ProductMeasureSpec]


def as_product(spec: Spec) -> ProductMeasureSpec:
    """View any spec uniformly as a product of factors."""
    if isinstance(spec, ProductMeasureSpec):
        return spec
    return ProductMeasureSpec((spec,))


def hausdorff_dim(spec: Spec) -> float:
    """log(#D)/log(p) per factor, summed over factors; lies in [0, n]."""
    return as_product(spec).hausdorff_dim()


def total_dim(spec: Spec) -> int:
    return as_product(spec).total_dim


# ---------------------------------------------------------------- factories


def explicit_spec(base: int, digits: Iterable, n: int = 1) -> MissingDigitsSpec:
    return MissingDigitsSpec(BasePower(base), ExplicitDigits(digits), n)


def interval_spec(base: IntLike, lo: IntLike, hi: IntLike) -> MissingDigitsSpec:
    bp = base if isinstance(base, BasePower) else BasePower(int(base))
    return MissingDigitsSpec(bp, DigitInterval(lo, hi), 1)


def lebesgue_spec(base: int, n: int = 1) -> Spec:
    """Full digit set: the measure is Lebesgue on [0,1]^n (as an n-fold
    product of 1-D full-digit factors)."""
    factor = interval_spec(base, 0, base - 1)
    if n == 1:
        return factor
    return ProductMeasureSpec([factor] * n)


def product(*factors: MissingDigitsSpec) -> ProductMeasureSpec:
    return ProductMeasureSpec(factors)


def square(factor: MissingDigitsSpec) -> ProductMeasureSpec:
    return ProductMeasureSpec([factor, factor])


# ---------------------------------------------------------------- sampling

# Most rows of a block table: a factor with k digits draws b levels at
# once, for the largest b with k^b <= _BLOCK_ROWS.
_BLOCK_ROWS = 4096


def draw_cells(spec: Spec, depth: int, count: int) -> int:
    """Budget cells that sample(spec, depth, count) charges: one per
    point, digit level and factor."""
    return count * depth * len(as_product(spec).factors)


def block_levels(k: int, depth: int) -> int:
    """Digit levels that one block code of a k-digit factor covers: the
    largest b <= depth with k^b <= _BLOCK_ROWS (at least 1), and depth
    itself when k = 1."""
    if k == 1:
        return depth
    b = 1
    while b < depth and k ** (b + 1) <= _BLOCK_ROWS:
        b += 1
    return b


def _block_table(mat: np.ndarray, p: int, b: int) -> np.ndarray:
    """Row c holds sum_{j<b} p^-(j+1) mat[digit_j(c)], where digit_j(c)
    is the j-th base-k digit of c read most significant first; shape
    (k^b, n)."""
    import numpy as np

    table = np.zeros((1, mat.shape[1]))
    for j in range(1, b + 1):
        table = (table[:, None, :] + mat * (1 / p ** j)).reshape(-1, mat.shape[1])
    return table


class Draws:
    """The digit draws of `count` points of the depth-truncated series
    sum_{i<=depth} p^{-i} d_i with i.i.d. uniform digits, held as codes
    so that the points can be built a range of rows at a time.

    Each factor draws its digits as block codes: one integer per run of
    b = block_levels(k, depth) levels, for k digits, so k^b <= 4096.
    A code uniform on [0, k^b) is exactly b i.i.d. uniform digits, read
    most significant first, so every point is still uniform over the
    depth-d cylinders.  A table of at most 4096 rows per block length
    (_block_table) holds each code's partial sum, and a point is
    sum_i p^-(b i) table[code_i]: ceil(depth/b) draws per point and
    factor, not depth.  `terms` holds, per factor and run in the order
    they are drawn, (coordinate slice, block table, scale p^-(b i) or
    None for the first run, int64 codes); the codes are all the state,
    8 bytes per point and run.  All terms are nonnegative and each
    passes at most depth + 3 roundings, so each coordinate is within
    (depth + 4) 2^-53 (relative) of the exact truncated sum.

    The truncation error per point is at most sqrt(n) * max(D) * p^-depth
    / (p-1) in each factor.  PCG64 generator; identical seed, identical
    stream.  The draws are charged (draw_cells) before any is made.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, spec: Spec, depth: int, count: int, seed=0,
                 budget: EvalBudget | None = None):
        import numpy as np

        if depth < 1:
            raise ValueError("depth must be >= 1")
        if count < 1:
            raise ValueError("count must be >= 1")
        prod = as_product(spec)
        if not prod.is_enumerable():
            raise SymbolicBaseError("sampling requires enumerable factors")
        ensure_budget(budget).charge(draw_cells(prod, depth, count), "digit draws")
        rng = np.random.Generator(np.random.PCG64(seed))
        self.dim, self.terms = prod.total_dim, []
        for f, sl in zip(prod.factors, prod.factor_slices()):
            mat = f.digit_matrix().astype(np.float64)
            p, k = f.p_int(), mat.shape[0]
            b = block_levels(k, depth)
            tables = {}
            for start in range(0, depth, b):
                levels = min(b, depth - start)
                if levels not in tables:
                    tables[levels] = _block_table(mat, p, levels)
                code = rng.integers(0, k ** levels, size=count)
                self.terms.append((sl, tables[levels], 1 / p ** start if start else None, code))

    def points(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of the drawn points, shape (hi - lo, dim): each
        coordinate is the same adds, in the same order, whatever range
        it is built in.  A factor's first run is written, not added to
        0: the table rows are nonnegative, so 0 + row is row exactly."""
        import numpy as np

        pts = np.empty((hi - lo, self.dim), dtype=np.float64)
        for sl, table, scale, code in self.terms:
            block = np.take(table, code[lo:hi], axis=0)
            if scale is None:
                pts[:, sl] = block
            else:
                block *= scale
                pts[:, sl] += block
        return pts


def sample(
    spec: Spec,
    depth: int,
    count: int,
    seed: int = 0,
    budget: EvalBudget | None = None,
) -> np.ndarray:
    """Draw `count` points of the depth-truncated series sum_{i<=depth}
    p^{-i} d_i with i.i.d. uniform digits; returns (count, total_dim).
    The draws, their accuracy and their charge are those of Draws."""
    return Draws(spec, depth, count, seed, budget).points(0, count)


# ---------------------------------------------------------------- parsing


# one factor block; its body may hold one level of braces (a digit set)
_FACTOR_BLOCK = re.compile(r"\s*factor\s*\{((?:[^{}]|\{[^{}]*\})*)\}\s*", re.IGNORECASE)


def parse_spec(text: str) -> Spec:
    """Parse the factor config grammar.

    Each factor is written

        factor { base = <int>|<int>^<int>; digits = <set>; n = <int>; }

    where <set> is {d,d,...} (scalars, or (c,...,c) tuples for n >= 2),
    or an interval lo..hi whose endpoints may be powers.  n defaults
    to 1.  The blocks must make up the whole text, apart from
    whitespace.  A bare "base = ...; digits = ...;" body without the
    factor wrapper is accepted as a single factor.
    """
    if not text or not text.strip():
        raise ConfigError("empty measure config")
    bodies = _split_factor_bodies(text)
    factors = [_parse_factor_body(b) for b in bodies]
    if len(factors) == 1:
        return factors[0]
    return ProductMeasureSpec(factors)


def _split_factor_bodies(text: str) -> list[str]:
    """The bodies of the factor blocks that make up the whole text, or
    the text itself as one bare body."""
    bodies, pos = [], 0
    while m := _FACTOR_BLOCK.match(text, pos):
        bodies.append(m.group(1))
        pos = m.end()
    if not bodies:
        stripped = text.strip()
        if "{" in stripped.split("=", 1)[0]:
            raise ConfigError("expected 'factor { ... }' blocks")
        return [stripped]
    if pos < len(text):
        raise ConfigError(f"expected a 'factor {{ ... }}' block at {text[pos:pos + 40]!r}")
    return bodies


def _parse_factor_body(body: str) -> MissingDigitsSpec:
    entries: dict[str, str] = {}
    for part in re.split(r"[;\n]+", body):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"expected key = value, got {part!r}")
        key, val = part.split("=", 1)
        key = key.strip().lower()
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} in factor")
        entries[key] = val.strip()
    unknown = set(entries) - {"base", "digits", "n"}
    if unknown:
        raise ConfigError(f"unknown factor keys: {sorted(unknown)}")
    if "base" not in entries or "digits" not in entries:
        raise ConfigError("factor needs both base and digits")
    base = BasePower.parse(entries["base"])
    n = _parse_int(entries.get("n", "1"), "n")
    digits = _parse_digits(entries["digits"])
    return MissingDigitsSpec(base, digits, n)


def _parse_digits(text: str) -> DigitSet:
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ConfigError(f"unterminated digit set: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            raise ConfigError("digit set must be nonempty")
        if "(" in inner:
            tuples = re.findall(r"\(([^)]*)\)", inner)
            vecs = [tuple(_parse_int(c, "digit") for c in t.split(",")) for t in tuples]
            return ExplicitDigits(vecs)
        return ExplicitDigits(_parse_int(v, "digit") for v in inner.split(","))
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo = BasePower.parse(lo_text) if "^" in lo_text else _parse_plain_int(lo_text)
        hi = BasePower.parse(hi_text) if "^" in hi_text else _parse_plain_int(hi_text)
        return DigitInterval(lo, hi)
    raise ConfigError(f"cannot parse digit set: {text!r}")


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {text.strip()!r}") from exc


def _parse_plain_int(text: str) -> int:
    text = text.strip()
    if not re.fullmatch(r"\d+", text):
        raise ConfigError(f"expected a nonnegative integer, got {text!r}")
    return _parse_int(text, "digit bound")

