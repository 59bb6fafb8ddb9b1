"""Exact arithmetic in Z[l], the scalar ring of every algebra here.

``l`` is the formal weight of the Baxter operator.  All identities in
this package are verified symbolically in ``l``, which is strictly
stronger than checking them at sample integer weights; evaluating at a
concrete integer weight is an explicit operation (`LambdaPoly.eval_at`).

Coefficients are arbitrary-precision Python integers, so products never
overflow silently.  Values are immutable and safe to share.

Sums and products come from two tables, `_sum` and `_product`, keyed on
the operands' coefficient tuples.  The tree products meet few distinct
coefficients and combine them over and over, so nearly every operation
is a table hit, and it returns the one object already made for that
key: equal results are mostly one shared value, and comparing two
combinations mostly stops at the identity check.  The tables are
unbounded ``lru_cache`` functions, so ``cache_info()`` shows their size
and ``cache_clear()`` empties them.

A polynomial is stored densely, one coefficient per power of ``l`` up
to its degree, so the two ways input text names a power directly (a
weight monomial from `LambdaPoly.weight`, an ``l^K`` in `read_poly`)
stop at `MAX_DEGREE` with a `DomainError`, before anything is built.
The dense tuple is private to this module: the rest of the package
tests a coefficient through ``is_zero`` and ``is_one``, set once when
the value is made, so another representation would change only this
module.

This module owns the coefficient syntax: `read_poly` reads a polynomial
and `read_coefficient` a combination term's coefficient, each on the
caller's `Cursor`, and `parse_poly` reads a whole text.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .scan import Cursor, int_text

__all__ = ["LambdaPoly", "ZERO", "ONE", "LAMBDA", "parse_poly", "read_poly",
           "read_coefficient"]

# The highest power of l that input may name.  A dense polynomial of this
# degree holds ten million coefficients, about 80 MB of tuple.
MAX_DEGREE = 10_000_000


class LambdaPoly:
    """An integer polynomial in the weight symbol ``l``.

    ``coeffs[k]`` holds the coefficient of ``l^k``.  Trailing zeros are
    never stored, so two equal polynomials have identical tuples; the
    zero polynomial is the empty tuple.  Only this module reads the
    tuple; ``is_zero`` and ``is_one`` answer for it elsewhere.
    """

    __slots__ = ("coeffs", "is_zero", "is_one")

    def __init__(self, coeffs=()):
        cs = tuple(coeffs)
        top = len(cs)
        while top and cs[top - 1] == 0:
            top -= 1
        cs = cs[:top]  # the tuple itself when nothing is cut
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        self.coeffs = cs
        self.is_zero = not cs
        self.is_one = cs == (1,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "LambdaPoly":
        return cls((value,))

    @classmethod
    def weight(cls, power: int = 1, coeff: int = 1) -> "LambdaPoly":
        """coeff * l^power; a power above `MAX_DEGREE` is a domain error."""
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        _check_degree(power)
        return cls((0,) * power + (coeff,))

    @staticmethod
    def _coerce(value) -> "LambdaPoly":
        if isinstance(value, LambdaPoly):
            return value
        if isinstance(value, int):
            return LambdaPoly((value,))
        return NotImplemented

    # -- ring structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree in l; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self.coeffs, other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product(self.coeffs, other.coeffs)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def eval_at(self, value: int) -> int:
        """Evaluate at l = value by Horner's rule over the nonzero
        coefficients, with one power of ``value`` across each run of
        zeros, so a sparse high power costs one ``pow`` (exact)."""
        cs = self.coeffs
        acc, at = 0, len(cs)
        for k in range(len(cs) - 1, -1, -1):
            if cs[k]:
                acc = acc * value ** (at - k) + cs[k]
                at = k
        return acc * value ** at

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = int_text(abs(c))
            else:
                body = "l" if k == 1 else f"l^{k}"
                if abs(c) != 1:
                    body = f"{int_text(abs(c))}*{body}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LambdaPoly({self.coeffs!r})"

    @property
    def is_single_term(self) -> bool:
        """True when at most one coefficient is nonzero (display helper)."""
        return sum(1 for c in self.coeffs if c) <= 1

    @property
    def lead_coeff(self) -> int:
        """Coefficient of the highest power (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0


ZERO = LambdaPoly()
ONE = LambdaPoly((1,))
LAMBDA = LambdaPoly((0, 1))


def _check_degree(power: int) -> None:
    if power > MAX_DEGREE:
        raise DomainError(f"powers of l above l^{MAX_DEGREE} are not supported")


@lru_cache(maxsize=None)
def _sum(a: tuple, b: tuple) -> LambdaPoly:
    """The polynomial with coefficients ``a`` plus the one with ``b``."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return LambdaPoly(out)


@lru_cache(maxsize=None)
def _product(a: tuple, b: tuple) -> LambdaPoly:
    """The polynomial with coefficients ``a`` times the one with ``b``,
    by the schoolbook rule."""
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci:
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
    return LambdaPoly(out)


def parse_poly(text: str) -> LambdaPoly:
    """Parse a whole text as a polynomial (`read_poly`).  Round-trips
    everything `__str__` emits."""
    cur = Cursor(text)
    if not cur.ws():
        raise cur.error("empty polynomial", 0)
    poly = read_poly(cur)
    if cur.peek():
        raise cur.error("unexpected character in polynomial")
    return poly


def read_poly(cur: Cursor) -> LambdaPoly:
    """Read the polynomial grammar at the cursor, up to the first
    character after a term that is not a sign.

    poly := ['+'|'-'] term (('+'|'-') term)*
    term := int | int '*' 'l' ('^' nat)? | 'l' ('^' nat)?

    Whitespace is insignificant.  A power above `MAX_DEGREE` is a domain error.
    """
    coeffs: dict[int, int] = {}
    ch = cur.ws()
    while True:  # every term after the first starts with its sign
        sign = 1
        if ch in ("+", "-"):
            if ch == "-":
                sign = -1
            cur.pos += 1
            ch = cur.ws()
        # term: optional integer part, optional l-part
        mag = None
        if ch.isdecimal():
            mag = cur.nat()
            ch = cur.ws()
            if ch == "*":
                cur.pos += 1
                ch = cur.ws()
                if ch != "l":
                    raise cur.error("expected 'l' after '*'")
        if ch == "l":
            cur.pos += 1
            power = 1
            if cur.ws() == "^":
                cur.pos += 1
                cur.ws()
                power = cur.nat()
                _check_degree(power)
            if mag is None:
                mag = 1
        else:
            if mag is None:
                raise cur.error("expected a term")
            power = 0
        coeffs[power] = coeffs.get(power, 0) + sign * mag
        ch = cur.ws()
        if ch not in ("+", "-"):
            break
    dense = [0] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        dense[power] = c
    return LambdaPoly(dense)


def read_coefficient(cur: Cursor) -> LambdaPoly:
    """Read the coefficient of a combination's term and the ``*`` after
    it; where none is written, return ONE and leave the cursor in place.

    coefficient := '(' poly ')' | int | [int '*'] 'l' ['^' nat]

    A ``(`` opens a coefficient only when a polynomial can begin after
    it, so a planar tree may start a term.  A bare monomial has no
    whitespace around its ``^``, and its numbers are converted only once
    the ``*`` after it is seen: text that is no coefficient is left to
    the element's grammar, errors and all.
    """
    start = cur.pos
    ch = cur.peek()
    if ch == "(":
        cur.pos += 1
        ch = cur.ws()
        if ch.isdecimal() or ch in ("l", "+", "-"):
            coeff = read_poly(cur)
            if not cur.take(")"):
                raise cur.error("unexpected character in polynomial")
            if _times(cur):
                return coeff
    elif ch == "l" or ch.isdecimal():
        mag = cur.digits()
        if not mag or _times(cur):
            if mag and cur.peek() != "l":
                return LambdaPoly.const(cur.number(mag, start))
            cur.pos += 1  # the 'l'
            power = cur.digits() if cur.take("^") else "1"
            if not power:
                raise cur.error("expected exponent")
            power_at = cur.pos - len(power)
            if _times(cur):
                c = cur.number(mag, start) if mag else 1
                return LambdaPoly.weight(cur.number(power, power_at), c)
    cur.pos = start
    return ONE


def _times(cur: Cursor) -> bool:
    """Step over a ``*`` and the whitespace around it, if one comes next."""
    if cur.ws() != "*":
        return False
    cur.pos += 1
    cur.ws()
    return True
