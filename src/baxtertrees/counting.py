"""Dimension formulas, classical sequences, and generating functions.

The graded dimension of each tree algebra is carried by a bivariate
table b(n, m).  Two of them have closed forms:

* fully forced:      b(n, m) = C(m) * binom(m+1, n-m)
* free-angle forced: b(n, m) = C(m) * binom(n+m, n-m)

and the other two arise from these by binomial transforms, one per
unbounded label variable.  The m = 0 row (corner trees) is handled by
convention: dimension 1 for every n when angles are free, and 1 only at
n = 1 when angles saturate.

`BiSeries` provides exact truncated bivariate power-series arithmetic
over the integers so every generating function is expanded by series
composition — the Catalan series is defined by its coefficients, never
by a square root.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Callable, Mapping, Sequence

from .errors import DomainError
from .trees import F2I, F22, FI2, Family

__all__ = [
    "sequence", "catalan", "motzkin", "schroder_large", "schroder_small",
    "dim_formula", "binomial_transform", "binomial_transform_table",
    "BiSeries", "MAX_ORDER", "series_coeffs", "monomial_series",
    "monomial_dims",
]

MAX_ORDER = 12


# ---------------------------------------------------------------------------
# Classical sequences (standard recurrences, cached)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """C(0), C(1), C(2), ... = 1, 1, 2, 5, 14, 42, ..."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return sum(catalan(k) * catalan(n - 1 - k) for k in range(n))


@lru_cache(maxsize=None)
def motzkin(n: int) -> int:
    """M(0), M(1), M(2), ... = 1, 1, 2, 4, 9, 21, 51, ..."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return motzkin(n - 1) + sum(motzkin(k) * motzkin(n - 2 - k) for k in range(n - 1))


@lru_cache(maxsize=None)
def schroder_large(n: int) -> int:
    """r(0), r(1), r(2), ... = 1, 2, 6, 22, 90, 394, 1806, ..."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return schroder_large(n - 1) + sum(
        schroder_large(k) * schroder_large(n - 1 - k) for k in range(n)
    )


def schroder_small(n: int) -> int:
    """s(0), s(1), s(2), ... = 1, 1, 3, 11, 45, 197, 903, ..."""
    if n <= 0:
        return 1 if n == 0 else 0
    return schroder_large(n) // 2


_SEQUENCES: Mapping[str, Callable[[int], int]] = {
    "catalan": catalan,
    "motzkin": motzkin,
    "schroder_large": schroder_large,
    "schroder_small": schroder_small,
}


def sequence(kind: str, n: int) -> int:
    """One value of a named classical sequence."""
    try:
        fn = _SEQUENCES[kind]
    except KeyError:
        raise DomainError(
            f"unknown sequence {kind!r}; choose from {sorted(_SEQUENCES)}"
        ) from None
    return fn(n)


# ---------------------------------------------------------------------------
# Dimension formulas
# ---------------------------------------------------------------------------

def _dim_forced(n: int, m: int) -> int:
    """Closed form for the fully forced family, m >= 1."""
    return catalan(m) * comb(m + 1, n - m) if 0 <= n - m <= m + 1 else 0


def _dim_free_angle(n: int, m: int) -> int:
    """Closed form for free angles with forced node labels, m >= 1."""
    return catalan(m) * comb(n + m, n - m) if n >= m else 0


def dim_formula(family: Family, n: int, m: int) -> int:
    """Dimension of the (n, m) homogeneous component of the tree algebra.

    Closed forms for the two forced-node-label families; binomial
    transforms (one per unbounded variable) for the other two.  The
    m = 0 corner-tree row follows the standing convention.
    """
    if n < 1 or m < 0:
        return 0
    if m == 0:
        if family.i == 2:
            return 1 if n == 1 else 0
        return 1
    if family is F22:
        return _dim_forced(n, m)
    if family is FI2:
        return _dim_free_angle(n, m)
    if family is F2I:
        return binomial_transform_table(_dim_forced, n, m, in_first=False)
    return binomial_transform_table(_dim_forced, n, m)


def binomial_transform(seq: Sequence[int]) -> tuple[int, ...]:
    """Transform of a sequence indexed from 1: the k-th output is
    sum_j binom(k-1, j-1) * seq[j] over j = 1..k."""
    vals = tuple(seq)
    return tuple(
        sum(comb(k - 1, j - 1) * vals[j - 1] for j in range(1, k + 1))
        for k in range(1, len(vals) + 1)
    )


def binomial_transform_table(
    table: Callable[[int, int], int], n: int, m: int,
    in_first: bool = True, in_second: bool = True,
) -> int:
    """Bivariate transform of a table indexed from (1, 1), applied in
    the chosen variables."""
    ks = range(1, n + 1) if in_first else (n,)
    ls = range(1, m + 1) if in_second else (m,)
    total = 0
    for k in ks:
        wk = comb(n - 1, k - 1) if in_first else 1
        for l in ls:
            wl = comb(m - 1, l - 1) if in_second else 1
            total += wk * wl * table(k, l)
    return total


# ---------------------------------------------------------------------------
# Exact truncated bivariate series
# ---------------------------------------------------------------------------

class BiSeries:
    """Bivariate power series over the integers, truncated to the box
    0 <= deg_x <= N, 0 <= deg_y <= M.  All arithmetic is exact modulo
    the truncation."""

    __slots__ = ("coeffs", "N", "M")

    def __init__(self, coeffs: Mapping[tuple[int, int], int], N: int, M: int):
        self.N = N
        self.M = M
        self.coeffs = {
            k: v for k, v in coeffs.items()
            if v and 0 <= k[0] <= N and 0 <= k[1] <= M
        }

    @classmethod
    def zero(cls, N: int, M: int) -> "BiSeries":
        return cls({}, N, M)

    @classmethod
    def const(cls, c: int, N: int, M: int) -> "BiSeries":
        return cls({(0, 0): c}, N, M)

    @classmethod
    def x(cls, N: int, M: int) -> "BiSeries":
        return cls({(1, 0): 1}, N, M)

    @classmethod
    def y(cls, N: int, M: int) -> "BiSeries":
        return cls({(0, 1): 1}, N, M)

    def coeff(self, n: int, m: int) -> int:
        return self.coeffs.get((n, m), 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "BiSeries") -> None:
        if (self.N, self.M) != (other.N, other.M):
            raise DomainError("truncation orders differ")

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BiSeries(out, self.N, self.M)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        return BiSeries({k: -v for k, v in self.coeffs.items()}, self.N, self.M)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        out: dict[tuple[int, int], int] = {}
        for (a, b), u in self.coeffs.items():
            for (c, d), v in other.coeffs.items():
                n, m = a + c, b + d
                if n <= self.N and m <= self.M:
                    key = (n, m)
                    out[key] = out.get(key, 0) + u * v
        return BiSeries(out, self.N, self.M)

    def scale(self, c: int) -> "BiSeries":
        return BiSeries({k: c * v for k, v in self.coeffs.items()}, self.N, self.M)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BiSeries)
            and (self.N, self.M, self.coeffs) == (other.N, other.M, other.coeffs)
        )

    def compose_series(self, univariate: Callable[[int], int]) -> "BiSeries":
        """Substitute this series (zero constant term required) into a
        univariate series given by its coefficient function."""
        if self.coeff(0, 0) != 0:
            raise DomainError("composition needs a zero constant term")
        out = BiSeries.const(univariate(0), self.N, self.M)
        power = BiSeries.const(1, self.N, self.M)
        for k in range(1, self.N + self.M + 1):
            power = power * self
            if power.is_zero:
                break
            c = univariate(k)
            if c:
                out = out + power.scale(c)
        return out

    def geometric(self) -> "BiSeries":
        """1 / (1 - self) for a series with zero constant term."""
        return self.compose_series(lambda k: 1)

    def substitute_x(self, arg: "BiSeries") -> "BiSeries":
        """Replace the first variable by `arg` (zero constant term)."""
        self._check(arg)
        if arg.coeff(0, 0) != 0:
            raise DomainError("substitution needs a zero constant term")
        powers = [BiSeries.const(1, self.N, self.M)]
        for _ in range(self.N):
            powers.append(powers[-1] * arg)
        out = BiSeries.zero(self.N, self.M)
        for (a, b), v in sorted(self.coeffs.items()):
            out = out + (powers[a] * BiSeries({(0, b): v}, self.N, self.M))
        return out

    def diagonal(self) -> tuple[int, ...]:
        """Sums over n + m = k for k up to min(N, M), where the box
        still contains the whole anti-diagonal."""
        top = min(self.N, self.M)
        return tuple(
            sum(self.coeff(n, k - n) for n in range(k + 1)) for k in range(top + 1)
        )


def _catalan_tail(k: int) -> int:
    """Coefficients of the Catalan series with no constant term:
    u + 2u^2 + 5u^3 + 14u^4 + ..."""
    return 0 if k == 0 else catalan(k)


def _require_orders(N: int, M: int) -> None:
    if N < 0 or M < 0 or N > MAX_ORDER or M > MAX_ORDER:
        raise DomainError(f"orders must lie in 0..{MAX_ORDER}")


@lru_cache(maxsize=None)
def series_coeffs(family: Family, N: int, M: int) -> BiSeries:
    """Generating function of the graded dimensions, including the
    m = 0 corner-tree row, truncated to the (N, M) box."""
    _require_orders(N, M)
    x = BiSeries.x(N, M)
    y = BiSeries.y(N, M)
    one = BiSeries.const(1, N, M)
    if family.i == 2:
        arg = x * y * (one + x)
        if family.j != 2:
            arg = arg * y.geometric()  # 1/(1-y)
        body = (one + x) * arg.compose_series(_catalan_tail)
        row0 = x  # only the one-node corner tree
    else:
        inv1mx = x.geometric()
        arg = x * y * inv1mx * inv1mx
        if family.j != 2:
            arg = arg * y.geometric()
        body = arg.compose_series(_catalan_tail) * inv1mx
        row0 = x * inv1mx  # one corner tree for every n >= 1
    return body + row0


def monomial_series(variant: str, N: int, M: int) -> BiSeries:
    """Generating function of the monomial-algebra dimensions.

    Free variant: (1 - x + xy) / ((1-x)^2 - x^2 y); idempotent variant:
    (1+x)(1+xy) / (1 - x^2 y).  Both include the empty word at (0, 0).
    """
    _require_orders(N, M)
    x = BiSeries.x(N, M)
    y = BiSeries.y(N, M)
    one = BiSeries.const(1, N, M)
    if variant in ("infinity", "inf"):
        numer = one - x + x * y
        # (1-x)^2 - x^2 y = 1 - (2x - x^2 + x^2 y)
        gap = x.scale(2) - x * x + x * x * y
        return numer * gap.geometric()
    if variant in ("two", "2"):
        numer = (one + x) * (one + x * y)
        return numer * (x * x * y).geometric()
    raise DomainError(f"unknown monomial variant {variant!r}")


def monomial_dims(variant: str, n: int, m: int) -> int:
    """Closed-form dimension of the (n, m) component of the monomial
    algebras (n = length, m = number of idempotent-letter blocks)."""
    if n < 0 or m < 0:
        return 0
    if variant in ("infinity", "inf"):
        return comb(n + 1, 2 * m)
    if variant in ("two", "2"):
        if (n, m) == (0, 0):
            return 1
        if n == 2 * m:
            return 2
        if abs(n - 2 * m) == 1:
            return 1
        return 0
    raise DomainError(f"unknown monomial variant {variant!r}")
