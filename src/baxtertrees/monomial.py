"""Words in two letters and the projections from the tree algebras.

The free associative algebra on letters ``x0``, ``x1`` carries the
algebra endomorphism sending both letters to ``x1``; it is idempotent,
and the pair is the free object on one generator among algebras with an
idempotent morphism.  Imposing ``x0^2 = x0`` and ``x1^2 = x1`` yields
the quotient variant whose normal forms are the alternating words.
A `Word` is stored as its runs of equal letters, so an operation costs
the number of runs and no exponent is spelled out letter by letter.

``pi_map`` projects the forced-node-label tree algebras onto these word
algebras: the generator goes to ``x0``, the intrinsic operator to the
all-ones endomorphism, and the projection is a map of Rota-Baxter
algebras of weight -1.  Its value on a basis tree has the closed form

    root 0:        x1^d(t_1) x0^(a_1) x1^d(t_2) ... x0^(a_p-1) x1^d(t_p)
    positive root: x1^d(t)

where d is the angle degree of a subtree and the a_k are the root
angles.  The same value falls out of the universal-property recursion,
and both routes are implemented so tests can compare them.  Tree facts
come from `trees`: angle degrees from `bidegree`, which reads them from
the tree's cached sort key, and rule violations from `require_valid`.

Two basis trees are declared related when root labels agree and, for
root 0, the child count, the per-child angle degrees, and the angle
labels between children all agree (for a positive root, when the total
angle degrees agree).  This relation is exactly the kernel description
of the projection: ``tilde_equiv`` computes both characterizations and
insists they coincide.
"""

from __future__ import annotations

from itertools import product as _iter_product, repeat
from operator import itemgetter
from typing import Iterable, Union

from .baxter_core import LinComb
from .errors import DomainError, ParseError
from .scan import Cursor, int_text
from .trees import F22, FI2, Family, Node, Tree, bidegree, require_valid

__all__ = [
    "Word", "parse_word", "render_word", "word_variant",
    "concat_words", "beta_word", "word_bidegree", "normalize_word",
    "word_quotient", "enumerate_words",
    "pi_word", "pi_word_recursive", "pi_map", "tilde_equiv",
]

_VARIANTS = ("infinity", "two")


def word_variant(text: str) -> str:
    """Canonical variant name from user text."""
    t = text.strip().lower()
    if t in ("infinity", "inf", "oo"):
        return "infinity"
    if t in ("two", "2"):
        return "two"
    raise DomainError(f"unknown word variant {text!r}")


class Word:
    """A word in the letters x0, x1, tagged with its algebra variant.

    ``runs`` holds it as ``(letter, length)`` pairs, letter 0 or 1, equal
    neighbours merged, lengths at least 1: ``x1^K`` is one pair however
    large K is.  ``letters`` spells it out.  The empty word is the algebra
    unit; it appears only inside projection computations and is never a
    basis element of a combination.
    """

    __slots__ = ("runs", "variant", "_hash")

    def __init__(self, letters: Iterable[int], variant: str):
        letters = tuple(letters)
        if any(b not in (0, 1) for b in letters):
            raise DomainError("letters must be 0 (for x0) or 1 (for x1)")
        if variant not in _VARIANTS:
            raise DomainError(f"unknown word variant {variant!r}")
        self._fill(zip(letters, repeat(1)), variant)

    @classmethod
    def _of(cls, runs: Iterable[tuple[int, int]], variant: str) -> Word:
        """The word of runs that may repeat a letter or be empty; unchecked."""
        w = cls.__new__(cls)
        w._fill(runs, variant)
        return w

    def _fill(self, runs: Iterable[tuple[int, int]], variant: str) -> None:
        merged: list[tuple[int, int]] = []
        last = None
        for b, k in runs:
            if b == last:
                merged[-1] = (b, merged[-1][1] + k)
            elif k:
                merged.append((b, k))
                last = b
        self.runs = tuple(merged)
        self.variant = variant
        self._hash = hash((self.runs, variant))

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(b for b, k in self.runs for _ in range(k))

    @property
    def is_normal(self) -> bool:
        """Normal form: every run has length 1 (or the free variant)."""
        return self.variant == "infinity" or all(k == 1 for _, k in self.runs)

    def sort_key(self):
        # Highest degree first, as trees display; then as letter tuples
        # order.  Where two words of one length first part, the shorter
        # run goes on with the other letter: x0, which sorts first, after
        # x1s, and x1 after x0s.  So an x1 run keys by k, an x0 run by -k.
        n, m = word_bidegree(self)
        return (-n, -m, tuple([(b, k if b else -k) for b, k in self.runs]))

    def __eq__(self, other):
        return (isinstance(other, Word)
                and (self.runs, self.variant) == (other.runs, other.variant))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return render_word(self)

    def __repr__(self):
        return f"Word({render_word(self)!r}, {self.variant!r})"


def render_word(w: Word) -> str:
    """Run-length text like ``x1^2 x0^3``; the empty word prints as 1."""
    return " ".join(f"x{b}^{int_text(k)}" if k > 1 else f"x{b}"
                    for b, k in w.runs) or "1"


def _quoted(token: str) -> str:
    """``token`` quoted for an error message: its first 12 characters, as
    a `ParseError`'s position excerpt shows, and ``...`` if it is longer."""
    return repr(token[:12]) + ("..." if len(token) > 12 else "")


def parse_word(text: str, variant: str = "infinity") -> Word:
    """Parse ``x1^2 x0^3``-style text.  Variant-two words must already
    be in normal form (use the quotient map to collapse free words)."""
    variant = word_variant(variant)
    cur = Cursor(text)
    runs: list[tuple[int, int]] = []
    while cur.ws():
        start = cur.pos
        base = cur.span(lambda ch: not ch.isspace() and ch != "^")
        if base not in ("x0", "x1"):
            raise cur.error(f"unknown letter {_quoted(base)}", start)
        k = 1
        if cur.take("^"):
            at = cur.pos
            run = cur.digits()
            rest = cur.span(lambda ch: not ch.isspace())
            k = cur.number(run, at) if run and not rest else 0
            if k < 1:
                raise cur.error(f"bad exponent {_quoted(run + rest)}", start)
        runs.append((int(base[1]), k))
    if not runs:
        raise ParseError("empty word text", text, 0)
    w = Word._of(runs, variant)
    if not w.is_normal:
        raise ParseError("variant-two word is not in normal form "
                         "(adjacent equal letters)", text, 0)
    return w


# ---------------------------------------------------------------------------
# Algebra operations
# ---------------------------------------------------------------------------

def word_quotient(w: Word) -> Word:
    """The quotient map from the free variant onto the idempotent one."""
    return Word._of(((b, 1) for b, _ in w.runs), "two")


def normalize_word(w: Word) -> Word:
    """Collapse equal adjacent letters (the identity in the free
    variant, where no relation holds)."""
    return w if w.variant == "infinity" else word_quotient(w)


def concat_words(w: Word, v: Word) -> Word:
    """Product of the word algebra (normalized in the quotient)."""
    if w.variant != v.variant:
        raise DomainError("cannot concatenate words of different variants")
    return normalize_word(Word._of(w.runs + v.runs, w.variant))


def beta_word(w: Word) -> Word:
    """The idempotent morphism: every letter becomes x1."""
    return normalize_word(Word._of(((1, word_bidegree(w)[0]),), w.variant))


def word_bidegree(w: Word) -> tuple[int, int]:
    """(letter count, number of x1-blocks)."""
    return (sum(map(itemgetter(1), w.runs)), sum(map(itemgetter(0), w.runs)))


def enumerate_words(variant: str, n: int, m: int | None = None) -> tuple[Word, ...]:
    """All (nonempty normal-form) words of length n, optionally filtered
    to m x1-blocks, in canonical order."""
    variant = word_variant(variant)
    if n < 0:
        return ()
    if n == 0:
        words = [Word((), variant)]
    elif variant == "infinity":
        words = [Word(bits, variant) for bits in _iter_product((0, 1), repeat=n)]
    else:
        words = [
            Word(tuple((start + k) % 2 for k in range(n)), variant)
            for start in (0, 1)
        ]
    if m is not None:
        words = [w for w in words if word_bidegree(w)[1] == m]
    return tuple(sorted(words, key=Word.sort_key))


# ---------------------------------------------------------------------------
# Projections from the tree algebras
# ---------------------------------------------------------------------------

def _family_for(variant: str) -> Family:
    return FI2 if variant == "infinity" else F22


def pi_word(variant: str, t: Tree) -> Word:
    """Closed-form projection of one basis tree (empty for the unit)."""
    variant = word_variant(variant)
    if t.is_leaf:
        return Word((), variant)
    require_valid(_family_for(variant), t, "tree not valid for this variant")
    return _pi_formula(variant, t)


def _pi_formula(variant: str, t: Tree) -> Word:
    if t.label > 0:
        runs = [(1, bidegree(t)[0])]
    else:
        runs = [(1, bidegree(t.children[0])[0])]
        for angle, child in zip(t.angles, t.children[1:]):
            runs += ((0, angle), (1, bidegree(child)[0]))
    return normalize_word(Word._of(runs, variant))


def pi_word_recursive(variant: str, t: Tree) -> Word:
    """The same projection by the universal-property recursion: project
    the children, interleave x0 powers from the root angles, then apply
    the idempotent morphism once per unit of root label."""
    variant = word_variant(variant)
    if t.is_leaf:
        return Word((), variant)
    require_valid(_family_for(variant), t, "tree not valid for this variant")
    return _pi_recursive(variant, t)


def _pi_recursive(variant: str, t: Tree) -> Word:
    if t.is_leaf:
        return Word((), variant)
    acc = Word((), variant)
    x0 = Word((0,), variant)
    for k, child in enumerate(t.children):
        acc = concat_words(acc, _pi_recursive(variant, child))
        if k < len(t.angles):
            for _ in range(t.angles[k]):
                acc = concat_words(acc, x0)
    for _ in range(t.label):
        acc = beta_word(acc)
    return acc


def pi_map(variant: str, v: Union[Tree, LinComb]) -> LinComb:
    """Linear extension of the projection to combinations of basis
    trees.  The unit tree is rejected: its image is the empty word,
    which is not a basis element of the non-unital word algebra."""
    variant = word_variant(variant)
    if not isinstance(v, LinComb):
        v = LinComb(v)

    def word(t: Tree) -> Word:
        if t.is_leaf:
            raise DomainError("the unit tree has no word image "
                              "(non-unital algebras)")
        return pi_word(variant, t)

    return v.map(word)


# ---------------------------------------------------------------------------
# The kernel-describing relation
# ---------------------------------------------------------------------------

def _tilde_signature(t: Tree):
    if t.label > 0:
        return (t.label, bidegree(t)[0])
    return (0, tuple(bidegree(c)[0] for c in t.children), t.angles)


def tilde_equiv(t: Tree, s: Tree) -> bool:
    """Whether two basis trees have the same projection, decided by the
    structural conditions and confirmed against word equality."""
    for u in (t, s):
        require_valid(FI2, u, "tree not valid")  # rejects the bare leaf
    structural = _tilde_signature(t) == _tilde_signature(s)
    words = pi_word("infinity", t) == pi_word("infinity", s)
    # Certificate: the words are computed apart from the signature.
    if structural != words:
        raise DomainError(
            "internal error: structural relation and word equality disagree"
        )
    return structural
