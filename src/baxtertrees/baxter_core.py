"""The four algebras on decorated trees: products, operator, morphisms.

Each family carries three interlocking operations on the span of its
basis trees (coefficients are integer polynomials in the weight):

* ``graft`` / ``degraft`` — assemble a root-0 tree from an alternating
  sequence of subtrees and angle labels, and take it apart again;
* ``beta`` — the distinguished linear operator: it raises the root label
  (at flag j = 2 the raise folds into a weight power instead);
* ``circle`` — the associative multiplication, with the bare leaf as
  unit; it concatenates at the seam between the two trees, resolving the
  meeting pieces through ``star``;
* ``star`` — the derived double product
  ``u * v = beta(u) o v + u o beta(v) + weight * (u o v)``,
  which is exactly what makes ``beta`` satisfy
  ``beta(u) o beta(v) = beta(u * v)``.

The two recursions terminate together: each pass through the seam
strictly shrinks the total of node and angle degrees, because taking an
outermost piece either descends to a child or lowers a positive root
label, and the operator application that reenters ``circle`` undoes one
such lowering at most.

Also here: the quotient maps between families (erase angle labels,
collapse node labels into weight powers) and the factorization of a tree
into corner trees and root-raised pieces.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .errors import DomainError
from .scalars import LAMBDA, ONE, ZERO, LambdaPoly, parse_poly
from .scan import Cursor
from .trees import (
    LEAF, Family, Node, Tree,
    bidegree, parse_tree, render_tree, with_root_label,
)

__all__ = [
    "LinComb", "parse_lincomb", "tree_lincomb_parser",
    "generator", "corner_tree",
    "graft", "degraft", "beta", "beta_lc", "lower_root", "raise_root",
    "addmul", "bilinear",
    "circle", "star", "circle_lc", "star_lc", "circle_power",
    "morphism", "morphism_lc", "decompose", "recompose",
]


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

class LinComb:
    """A finite formal sum of basis elements with `LambdaPoly` coefficients.

    Generic over the basis: elements need ``__hash__``, ``__eq__``,
    ``sort_key()`` and ``__str__``.  Zero-coefficient terms are dropped
    on construction, so two combinations are equal iff their term dicts
    are.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict = {}
        if isinstance(terms, Mapping):
            pairs = terms.items()
        elif hasattr(terms, "sort_key"):
            pairs = [(terms, ONE)]
        else:
            pairs = terms
        for elem, raw in pairs:
            addmul(data, LinComb.of(elem, raw).terms, ONE)
        self.terms = data

    @classmethod
    def of(cls, elem, coeff=ONE) -> "LinComb":
        """The single term ``coeff * elem``."""
        c = LambdaPoly._coerce(coeff)
        if c is NotImplemented:
            raise TypeError(f"coefficient {coeff!r} is not a weight polynomial")
        return _wrap({} if c.is_zero else {elem: c})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Terms in canonical (basis sort key) order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def support(self):
        return sorted(self.terms.keys(), key=lambda e: e.sort_key())

    def coeff(self, elem) -> LambdaPoly:
        return self.terms.get(elem, ZERO)

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        out = dict(self.terms)
        addmul(out, other.terms, ONE)
        return _wrap(out)

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _wrap({e: -c for e, c in self.terms.items()})

    def scale(self, coeff) -> "LinComb":
        coeff = LambdaPoly._coerce(coeff)
        if coeff is NotImplemented:
            raise TypeError("scale expects a weight polynomial or int")
        if coeff.is_zero:
            return LinComb()
        return _wrap({e: c * coeff for e, c in self.terms.items()})

    def __mul__(self, coeff):
        return self.scale(coeff)

    __rmul__ = __mul__

    def apply(self, f: Callable) -> "LinComb":
        """Linear extension of a basis map ``f: elem -> LinComb``."""
        out: dict = {}
        for elem, coeff in self.terms.items():
            addmul(out, f(elem).terms, coeff)
        return _wrap(out)

    def map(self, f: Callable) -> "LinComb":
        """Linear extension of a basis map ``f: elem -> elem``: each
        coefficient moves to the image of its element, and images that
        collide add, dropping a sum that is zero."""
        out: dict = {}
        for elem, coeff in self.terms.items():
            img = f(elem)
            old = out.get(img)
            if old is None:
                out[img] = coeff
            else:
                coeff = old + coeff
                if coeff.is_zero:
                    del out[img]
                else:
                    out[img] = coeff
        return _wrap(out)

    def map_coeffs(self, f: Callable[[LambdaPoly], LambdaPoly]) -> "LinComb":
        return LinComb([(e, f(c)) for e, c in self.terms.items()])

    def eval_weight(self, value: int) -> "LinComb":
        """Specialize the weight to an integer."""
        return LinComb([(e, c.eval_at(value)) for e, c in self.terms.items()])

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts: list[str] = []
        for elem, coeff in self.items():
            sign = "-" if coeff.lead_coeff < 0 else "+"
            body = term_text(elem, -coeff if sign == "-" else coeff)
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"<LinComb {self}>"


def term_text(elem, coeff: LambdaPoly) -> str:
    """One term as written in a combination: a unit coefficient is left
    out, a single-term one joins with ``*`` and a longer or negative one
    is parenthesised."""
    if coeff == ONE:
        return str(elem)
    if coeff.is_single_term and coeff.lead_coeff > 0:
        return f"{coeff}*{elem}"
    return f"({coeff})*{elem}"


def _wrap(terms: dict) -> LinComb:
    """A combination owning ``terms``, which must hold no zero coefficient."""
    out = LinComb.__new__(LinComb)
    out.terms = terms
    return out


def addmul(acc: dict, terms: Mapping, coeff: LambdaPoly) -> None:
    """Add ``coeff * terms`` into the coefficient dict ``acc`` in place.

    Sums, products and linear extensions merge terms here; only
    `LinComb.map` merges its own, the colliding images of a basis map.
    A zero result is dropped, whether it cancels against ``acc`` or is
    zero from the start.  ``terms`` is only read, since it may be a
    memoized result shared with other callers.
    """
    unit = coeff.coeffs == (1,)
    for elem, c in terms.items():
        if not unit:  # a product with one would only copy
            c = coeff if c.coeffs == (1,) else c * coeff
        old = acc.get(elem)
        if old is not None:
            c = old + c
        if c.is_zero:
            acc.pop(elem, None)
        else:
            acc[elem] = c


def bilinear(op: Callable, u: LinComb, v: LinComb) -> LinComb:
    """The bilinear extension of a basis product ``op(x, y) -> LinComb``."""
    out: dict = {}
    for x, cx in u.terms.items():
        unit = cx.coeffs == (1,)
        for y, cy in v.terms.items():
            addmul(out, op(x, y).terms, cy if unit else cx * cy)
    return _wrap(out)


def parse_lincomb(text: str, parse_elem: Callable[[str], object]) -> LinComb:
    """Parse ``term (('+'|'-') term)*`` where each term is an optional
    coefficient (integer, weight monomial, or parenthesized weight
    polynomial) times a basis element in the syntax of ``parse_elem``.

    ``0`` parses to the zero combination.  Element text is recognized by
    delimiter scanning, so element grammars may themselves use digits and
    parentheses (tree root labels vs. coefficients are disambiguated by
    the ``*`` that must follow a coefficient).
    """
    s = text.strip()
    if s == "0":
        return LinComb()
    cur = Cursor(s)
    if not s:
        raise cur.error("empty linear combination")
    terms: list[tuple[object, LambdaPoly]] = []
    while cur.pos < len(s):  # every term after the first starts with its sign
        sign = -1 if cur.peek() == "-" else 1
        if cur.take("+") or cur.take("-"):
            if not cur.ws():
                raise cur.error("dangling sign")
        coeff = _read_coeff(cur)
        # the element runs to the next '+' or '-' outside parentheses
        start, cur.pos = cur.pos, cur.group_end("+-")
        elem_text = s[start:cur.pos].strip()
        if not elem_text:
            raise cur.error("expected a basis element")
        terms.append((parse_elem(elem_text), coeff * sign))
    return LinComb(terms)


def _read_coeff(cur: Cursor) -> LambdaPoly:
    """Read a coefficient and the ``*`` after it, or return ONE and leave
    the cursor where it was.  A coefficient is a parenthesized polynomial,
    an integer, or ``[int *] l[^nat]`` with no whitespace around ``^``."""
    s = cur.text
    start = cur.pos
    ch = cur.peek()
    if ch == "(":
        end = cur.pos = cur.group_end()
        poly = s[start + 1:end - 1]
    elif ch == "l" or ch.isdecimal():
        if ch != "l":
            cur.digits()
            end = cur.pos
            if cur.ws() != "*":
                cur.pos = start
                return ONE
            cur.pos += 1
            if cur.ws() != "l":
                return parse_poly(s[start:end])
        cur.pos += 1  # the 'l'
        if cur.take("^") and not cur.digits():
            raise cur.error("expected exponent")
        poly = s[start:cur.pos]
    else:
        return ONE
    if cur.ws() != "*":
        cur.pos = start
        return ONE
    cur.pos += 1
    cur.ws()
    return parse_poly(poly)


def tree_lincomb_parser(text: str) -> LinComb:
    return parse_lincomb(text, parse_tree)


# ---------------------------------------------------------------------------
# Basic trees
# ---------------------------------------------------------------------------

def corner_tree(label: int, angle: int) -> Node:
    """The two-leaf tree with the given root label and angle."""
    return Node(label, (LEAF, LEAF), (angle,))


def generator(family: Family) -> Node:
    """The algebra generator: root 0, two leaves, angle 1."""
    return corner_tree(0, 1)


# ---------------------------------------------------------------------------
# Grafting and degrafting
# ---------------------------------------------------------------------------

def _merge_angle(family: Family, a: int, b: int) -> int:
    return 1 if family.i == 2 else a + b


def graft(family: Family, subtrees: Sequence[Tree], angles: Sequence[int]) -> Tree:
    """Assemble subtrees under a fresh root-0 node and normalize.

    Normalization removes each interior leaf, adding its two flanking
    angle labels (label addition saturates at 1 when the angle flag is
    2).  A single subtree grafts to itself.
    """
    subtrees = list(subtrees)
    angles = list(angles)
    if len(angles) != len(subtrees) - 1:
        raise DomainError(
            f"graft needs one angle between consecutive subtrees: "
            f"{len(subtrees)} subtrees, {len(angles)} angles"
        )
    for sub in subtrees:
        if not sub.is_leaf and sub.label == 0:
            raise DomainError("graft subtrees must be leaves or have positive root label")
    if len(subtrees) == 1:
        return subtrees[0]
    k = 1
    while k < len(subtrees) - 1:
        if subtrees[k].is_leaf:
            merged = _merge_angle(family, angles[k - 1], angles[k])
            subtrees.pop(k)
            angles[k - 1:k + 1] = [merged]
            k = max(k - 1, 1)
        else:
            k += 1
    if len(subtrees) == 1:
        return subtrees[0]
    return Node(0, subtrees, angles)


def degraft(t: Tree) -> tuple[tuple[Tree, ...], tuple[int, ...]]:
    """Take a tree apart at the root.

    A root-0 tree splits into its children and angle labels; a leaf or a
    positive-root tree is its own single piece.
    """
    if t.is_leaf or t.label > 0:
        return ((t,), ())
    return (t.children, t.angles)


# ---------------------------------------------------------------------------
# The operator and root-label moves
# ---------------------------------------------------------------------------

def raise_root(t: Tree) -> Tree:
    """Root label + 1 (leaf fixed)."""
    if t.is_leaf:
        return t
    return with_root_label(t, t.label + 1)


def lower_root(t: Tree) -> Tree:
    """Root label - 1 (leaf fixed); rejects a root already at 0."""
    if t.is_leaf:
        return t
    if t.label == 0:
        raise DomainError("cannot lower a root label that is already 0")
    return with_root_label(t, t.label - 1)


def beta(family: Family, t: Tree) -> LinComb:
    """The distinguished operator on one basis tree.

    With free node labels it raises the root label.  With flag j = 2 the
    root is sent to label 1 and each unit of the old label becomes a
    factor of minus the weight, which is what makes the operator square
    to minus the weight times itself.
    """
    if t.is_leaf:
        return LinComb.of(t)
    if family.j != 2:
        return LinComb.of(raise_root(t))
    coeff = (-LAMBDA) ** t.label
    return LinComb.of(with_root_label(t, 1), coeff)


def beta_lc(family: Family, u: LinComb) -> LinComb:
    return u.apply(lambda t: beta(family, t))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def circle(family: Family, t: Tree, s: Tree) -> LinComb:
    """The multiplication, on a pair of basis trees (or leaves).

    Both factors split into outermost pieces; the last piece of the left
    factor and the first piece of the right factor have their root labels
    lowered, meet through `star`, and the operator is applied to the
    result, which is grafted back between the remaining pieces.
    """
    t_pieces, t_angles = degraft(t)
    s_pieces, s_angles = degraft(s)
    left = lower_root(t_pieces[-1])
    right = lower_root(s_pieces[0])
    middle = beta_lc(family, star(family, left, right))
    prefix = t_pieces[:-1]
    suffix = s_pieces[1:]
    angles = t_angles + s_angles
    return middle.map(lambda mid: graft(family, prefix + (mid,) + suffix, angles))


@lru_cache(maxsize=None)
def star(family: Family, u: Tree, v: Tree) -> LinComb:
    """The double product on basis trees; the leaf is its unit."""
    if u.is_leaf:
        return LinComb.of(v)
    if v.is_leaf:
        return LinComb.of(u)
    out: dict = {}
    for x, c in beta(family, u).terms.items():
        addmul(out, circle(family, x, v).terms, c)
    for y, c in beta(family, v).terms.items():
        addmul(out, circle(family, u, y).terms, c)
    addmul(out, circle(family, u, v).terms, LAMBDA)
    return _wrap(out)


def circle_lc(family: Family, u: LinComb, v: LinComb) -> LinComb:
    return bilinear(lambda x, y: circle(family, x, y), u, v)


def star_lc(family: Family, u: LinComb, v: LinComb) -> LinComb:
    return bilinear(lambda x, y: star(family, x, y), u, v)


def circle_power(family: Family, t: Tree, k: int) -> LinComb:
    if k < 1:
        raise DomainError("power must be at least 1")
    out = LinComb.of(t)
    for _ in range(k - 1):
        out = circle_lc(family, out, LinComb.of(t))
    return out


# ---------------------------------------------------------------------------
# Quotient maps between families
# ---------------------------------------------------------------------------

def _erase_angles(t: Tree) -> Tree:
    if t.is_leaf:
        return t
    return Node(
        t.label,
        tuple(_erase_angles(c) for c in t.children),
        (1,) * len(t.angles),
    )


def _collapse_labels(t: Tree) -> tuple[Tree, int]:
    """Send every positive node label to 1; return the new tree and the
    total label excess (the weight-power exponent)."""
    excess = t.label - 1 if t.label > 0 else 0
    children = []
    for c in t.children:
        if c.is_leaf:
            children.append(c)
        else:
            c2, e = _collapse_labels(c)
            children.append(c2)
            excess += e
    label = min(t.label, 1)
    return Node(label, tuple(children), t.angles), excess


def morphism(source: Family, target: Family, t: Tree) -> LinComb:
    """The quotient map between families, on one basis tree.

    Defined when the target flags are at or below the source flags
    (2 below infinity).  Dropping the angle flag erases angle labels to
    1; dropping the node flag sends positive labels to 1 and converts
    each unit of removed label into a factor of minus the weight.
    """
    if not (target.i <= source.i and target.j <= source.j):
        raise DomainError(
            f"no quotient map from family ({source.text}) to ({target.text})"
        )
    if t.is_leaf:
        return LinComb.of(t)
    coeff = ONE
    if target.i == 2 and source.i != 2:
        t = _erase_angles(t)
    if target.j == 2 and source.j != 2:
        t, excess = _collapse_labels(t)
        coeff = (-LAMBDA) ** excess
    return LinComb.of(t, coeff)


def morphism_lc(source: Family, target: Family, u: LinComb) -> LinComb:
    return u.apply(lambda t: morphism(source, target, t))


# ---------------------------------------------------------------------------
# Canonical factorization
# ---------------------------------------------------------------------------

def decompose(t: Tree) -> tuple[int, tuple[Tree, ...], tuple[int, ...]]:
    """Factor a basis tree: root power, seam pieces, corner angles.

    ``t`` equals the root power iterate of the operator applied to the
    alternating product (under the multiplication) of the seam pieces
    and corner trees with the returned angles.
    """
    if t.is_leaf:
        raise DomainError("the bare leaf has no factorization")
    power = t.label
    base = with_root_label(t, 0)
    return power, base.children, base.angles


def recompose(family: Family, power: int, pieces: Sequence[Tree],
              angles: Sequence[int]) -> LinComb:
    """Multiply the factorization back together.

    Each angle label is realized as that many multiplications of the
    generator with itself (a single generator when angle labels are
    forced to 1); leaf pieces at the two ends are omitted, and the whole
    alternating product is pushed back up with ``power`` applications of
    the operator.
    """
    if len(angles) != len(pieces) - 1:
        raise DomainError("need one angle between consecutive pieces")
    gen = generator(family)
    factors: list[LinComb] = []
    for k, piece in enumerate(pieces):
        if k > 0:
            factors.append(circle_power(family, gen, angles[k - 1]))
        if not piece.is_leaf:
            factors.append(LinComb.of(piece))
    out = factors[0]
    for f in factors[1:]:
        out = circle_lc(family, out, f)
    for _ in range(power):
        out = beta_lc(family, out)
    return out
