"""The one text scanner behind the polynomial, tree, planar-tree, word
and linear-combination parsers.  Each grammar has a reader that takes a
`Cursor` and leaves it past what it read, so a linear combination is
read in one pass: its terms, coefficients and elements on one cursor.

A number is a run of decimal digits (``str.isdecimal``: ``²`` and other
digit-like symbols that ``int`` refuses are not digits), and a number
too long for ``int`` is a parse error.  Going the other way, `int_text`
writes a number, and one too long for ``str`` is a domain error.
"""

from __future__ import annotations

import sys
from typing import Callable

from .errors import DomainError, ParseError

__all__ = ["Cursor", "int_text"]


def int_text(n: int) -> str:
    """Decimal text of ``n``.  Past ``sys.get_int_max_str_digits()``
    digits ``str`` refuses, and so does this, with a `DomainError`."""
    try:
        return str(n)
    except ValueError:
        raise DomainError(
            f"a number of more than {sys.get_int_max_str_digits()} digits "
            "is too long to print") from None


class Cursor:
    """A read position ``pos`` in one input string ``text``."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def ws(self) -> str:
        """Skip whitespace; return the next character ('' at the end)."""
        s, j = self.text, self.pos
        while j < len(s) and s[j].isspace():
            j += 1
        self.pos = j
        return s[j:j + 1]

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def take(self, ch: str) -> bool:
        """Step over ``ch`` if it is the next character."""
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def span(self, keep: Callable[[str], bool]) -> str:
        """Step over the characters that ``keep`` accepts; return them."""
        s, j = self.text, self.pos
        k = j
        while k < len(s) and keep(s[k]):
            k += 1
        self.pos = k
        return s[j:k]

    def digits(self) -> str:
        """Step over a run of decimal digits and return it."""
        return self.span(str.isdecimal)

    def nat(self) -> int:
        start = self.pos
        run = self.digits()
        if not run:
            raise self.error("expected a number")
        return self.number(run, start)

    def number(self, run: str, start: int) -> int:
        """The digit run ``run``, read from ``start``, as an int."""
        try:
            return int(run)
        except ValueError:  # more digits than int() converts
            raise self.error("number too long", start) from None

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.text, self.pos if pos is None else pos)

    def finish(self, what: str) -> None:
        """Require that nothing but whitespace is left."""
        if self.ws():
            raise self.error(f"trailing input after {what}")
