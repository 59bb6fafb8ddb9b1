"""The four algebras on decorated trees: products, operator, morphisms.

Each family carries three interlocking operations on the span of its
basis trees (coefficients are integer polynomials in the weight):

* ``graft`` / ``degraft`` — assemble a root-0 tree from an alternating
  sequence of subtrees and angle labels, and take it apart again;
* ``beta`` — the distinguished linear operator: it raises the root label
  (at flag j = 2 the raise folds into a weight power instead), so it
  sends each basis tree to one tree times a coefficient;
* ``circle`` — the associative multiplication, with the bare leaf as
  unit; it concatenates at the seam between the two trees, resolving the
  meeting pieces through ``star``;
* ``star`` — the derived double product
  ``u * v = beta(u) o v + u o beta(v) + weight * (u o v)``,
  which is exactly what makes ``beta`` satisfy
  ``beta(u) o beta(v) = beta(u * v)``.

Inside ``circle`` and ``star`` the operator is applied term by term, as
one tree and one coefficient (``_beta_term``); no intermediate
combination is built.  ``star`` merges its three products through
``addmul``, and ``circle`` stores each term, since no two collide.
Each call of either runs with Python's cyclic collector paused
(`_collector_paused`), its memo lookup included: the memo tables hold
no reference cycles, so a collector pass would only walk them.

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

import gc
from functools import lru_cache, wraps
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError
from .scalars import LAMBDA, ONE, ZERO, LambdaPoly, read_coefficient
from .scan import Cursor
from .trees import (
    LEAF, Family, Node, Tree,
    bidegree, intern_node, raised, read_tree, render_tree, with_root_label,
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
        if isinstance(terms, Mapping):
            pairs = terms.items()
        elif hasattr(terms, "sort_key"):
            pairs = [(terms, ONE)]
        else:
            pairs = terms
        self.terms = {}
        addmul(self.terms, ((e, _coefficient(c)) for e, c in pairs), ONE)

    @classmethod
    def of(cls, elem, coeff=ONE) -> "LinComb":
        """The single term ``coeff * elem``."""
        c = _coefficient(coeff)
        return _wrap({} if c.is_zero else {elem: c})

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
        addmul(out, other.terms.items(), ONE)
        return _wrap(out)

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _wrap({e: -c for e, c in self.terms.items()})

    def scale(self, coeff) -> "LinComb":
        coeff = _coefficient(coeff)
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
            addmul(out, f(elem).terms.items(), coeff)
        return _wrap(out)

    def map(self, f: Callable) -> "LinComb":
        """Linear extension of a basis map ``f: elem -> elem``: each
        coefficient moves to the image of its element, and images that
        collide add, dropping a sum that is zero."""
        out: dict = {}
        addmul(out, ((f(e), c) for e, c in self.terms.items()), ONE)
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


def _coefficient(raw) -> LambdaPoly:
    """``raw`` as a weight polynomial; the one coercion of a given
    coefficient, shared by `LinComb`, `LinComb.of` and `LinComb.scale`."""
    c = LambdaPoly._coerce(raw)
    if c is NotImplemented:
        raise TypeError(f"coefficient {raw!r} is not a weight polynomial")
    return c


def _wrap(terms: dict) -> LinComb:
    """A combination owning ``terms``, which must hold no zero coefficient."""
    out = LinComb.__new__(LinComb)
    out.terms = terms
    return out


def addmul(acc: dict, terms: Iterable, coeff: LambdaPoly) -> None:
    """Add ``coeff`` times the ``(element, coefficient)`` pairs of
    ``terms`` into the coefficient dict ``acc`` in place.

    Construction, sums, products, basis maps and linear extensions all
    merge terms here.  The one other place is the planar seam of
    `dendriform._seam`, which grafts each term of a memoized star
    product back into its tree and merges it in the same pass.  The desk
    seven-axiom sweep merges about half a million grafted trees that
    way, and handing them here as a list of pairs per seam made the
    verify-desk workload's slowest check about a fifth slower; a
    placement callback would make this kernel branch on its caller.
    A zero result is dropped, whether it cancels against ``acc`` or is
    zero from the start.  Coefficients are integer polynomials, so a product
    of two nonzero ones is nonzero: zeros are looked for only on a merge
    and in a term that is new to ``acc``, which is zero only when its
    coefficient or ``coeff`` is.  ``terms`` is only read, since it may
    view a memoized result shared with other callers.
    """
    unit = coeff.coeffs == (1,)
    for elem, c in terms:
        if not unit:  # a product with one would only copy
            c = coeff if c.coeffs == (1,) else c * coeff
        old = acc.get(elem)
        if old is not None:
            c = old + c
            if not c.coeffs:
                del acc[elem]
                continue
        elif not c.coeffs:
            continue
        acc[elem] = c


def bilinear(op: Callable, u, v) -> LinComb:
    """The bilinear extension of a basis product ``op(x, y)``, which
    returns the ``(element, coefficient)`` pairs of its product, for
    every product of decorated-tree combinations (`dendriform.dend_op`
    writes the same loop out, with the merge of `_seam`).  Each factor
    is a `LinComb` or a bare basis element, which is its one term with
    coefficient one."""
    out: dict = {}
    u_terms = u.terms.items() if isinstance(u, LinComb) else ((u, ONE),)
    v_terms = v.terms.items() if isinstance(v, LinComb) else ((v, ONE),)
    for x, cx in u_terms:
        unit = cx.coeffs == (1,)
        for y, cy in v_terms:
            addmul(out, op(x, y), cy if unit else cx * cy)
    return _wrap(out)


def parse_lincomb(text: str, read_elem: Callable[[Cursor], object]) -> LinComb:
    """Read a combination ``term (('+'|'-') term)*`` left to right on one
    cursor.  A term is an optional sign, a coefficient
    (`scalars.read_coefficient`) and a basis element, which ``read_elem``
    (`trees.read_tree`, `trees.read_planar`) reads in place, deciding
    where it ends.  ``0`` is the zero combination.  A parse error reports
    its offset in the whole stripped text.
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
        if (cur.take("+") or cur.take("-")) and not cur.ws():
            raise cur.error("dangling sign")
        coeff = read_coefficient(cur)
        if cur.ws() in ("", "+", "-"):
            raise cur.error("expected a basis element")
        terms.append((read_elem(cur), coeff if sign > 0 else -coeff))
        if cur.ws() not in ("", "+", "-"):
            raise cur.error("trailing input after tree")
    return LinComb(terms)


def tree_lincomb_parser(text: str) -> LinComb:
    return parse_lincomb(text, read_tree)


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
    _check_pieces(subtrees)
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
    return Node(0, subtrees, angles)


def _check_pieces(pieces: Sequence[Tree]) -> None:
    for sub in pieces:
        if not sub.is_leaf and sub.label == 0:
            raise DomainError("graft subtrees must be leaves or have positive root label")


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
    return raised(t)


def lower_root(t: Tree) -> Tree:
    """Root label - 1 (leaf fixed); rejects a root already at 0."""
    if t.is_leaf:
        return t
    if t.label == 0:
        raise DomainError("cannot lower a root label that is already 0")
    return with_root_label(t, t.label - 1)


def _minus_weight_power(power: int) -> LambdaPoly:
    """``(-l)^power``, built as the one monomial it is."""
    return LambdaPoly.weight(power, -1 if power & 1 else 1)


def _beta_term(family: Family, t: Tree) -> tuple[Tree, LambdaPoly]:
    """The operator on one basis tree, as its image tree and coefficient."""
    if t.is_leaf:
        return t, ONE
    if family.j != 2 or t.label == 0:
        return raised(t), ONE
    return with_root_label(t, 1), _minus_weight_power(t.label)


def beta(family: Family, t: Tree) -> LinComb:
    """The distinguished operator on one basis tree.

    With free node labels it raises the root label.  With flag j = 2 the
    root is sent to label 1 and each unit of the old label becomes a
    factor of minus the weight, which is what makes the operator square
    to minus the weight times itself.
    """
    return LinComb.of(*_beta_term(family, t))


def beta_lc(family: Family, u: LinComb | Tree) -> LinComb:
    """The operator, extended linearly; ``u`` may be a combination or a
    bare basis tree."""
    out: dict = {}
    terms = u.terms.items() if isinstance(u, LinComb) else ((u, ONE),)
    for t, c in terms:
        x, k = _beta_term(family, t)
        addmul(out, ((x, c),), k)
    return _wrap(out)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def _collector_paused(f: Callable) -> Callable:
    """``f``, a function of three positional arguments, run with the
    cyclic garbage collector paused, then put back as it was, also when
    ``f`` raises; a call made while it is already paused adds nothing.

    The library builds no reference cycles (its trees and memo tables
    are freed by reference counting), so a collector pass would only walk
    the memo tables and find nothing.  The pause sits above the
    ``lru_cache`` of `circle` and `star`, so the memo lookup runs inside
    it: the lookup builds the call's argument tuple and, on a miss, keeps
    it as the key.  Under the memo, the pause left that allocation
    outside, where it could start a collector pass over everything the
    paused calls had allocated.  A memo hit pays for the pause, and the
    wrapper stands in for the memo table by passing on its
    ``cache_info`` and ``cache_clear``.  The arguments are named rather
    than packed, so that the call into ``f`` builds no tuple and runs
    inline: it is on the path of every product."""
    @wraps(f)
    def paused(a, b, c):
        if not gc.isenabled():
            return f(a, b, c)
        gc.disable()
        try:
            return f(a, b, c)
        finally:
            gc.enable()
    for name in ("cache_info", "cache_clear"):
        if hasattr(f, name):
            setattr(paused, name, getattr(f, name))
    return paused


@_collector_paused
@lru_cache(maxsize=None)
def circle(family: Family, t: Tree, s: Tree) -> LinComb:
    """The multiplication, on a pair of basis trees (or leaves).

    Both factors split into outermost pieces; the last piece of the left
    factor and the first piece of the right factor have their root labels
    lowered and meet through `star`.  The operator is applied to each
    term of that double product in turn, and the image is grafted back
    between the remaining pieces.

    The seam invariant: the remaining pieces come from `degraft` of basis
    trees, so only the outermost of them may be leaves, and an image of
    the operator that is not the leaf has a positive root.  The one
    interior leaf that can arise is therefore the image itself, when the
    two meeting pieces are both leaves; only then does `graft` have
    angles to merge.  Every other image is placed under a root-0 node
    directly, after `graft`'s check of the other pieces, made once.

    No two terms of the double product land on the same tree, so each
    term is stored, not merged.  The operator is injective on them: at
    flag j = 2 both meeting pieces are lowered to root label 0, which
    every term of their double product keeps (or is the leaf), so each
    image has root label 1 and coefficient one.  Placing distinct images
    between the same pieces gives distinct trees.
    """
    t_pieces, t_angles = degraft(t)
    s_pieces, s_angles = degraft(s)
    left = lower_root(t_pieces[-1])
    right = lower_root(s_pieces[0])
    middle = star(family, left, right).terms
    prefix = t_pieces[:-1]
    suffix = s_pieces[1:]
    angles = t_angles + s_angles
    others = prefix + suffix
    if middle and others:
        _check_pieces(others)
    out: dict = {}
    for x, c in middle.items():
        mid, k = _beta_term(family, x)
        if mid.is_leaf:
            mid = graft(family, prefix + (mid,) + suffix, angles)
        elif others:
            mid = intern_node(0, prefix + (mid,) + suffix, angles)
        out[mid] = c if k is ONE else c * k
    return _wrap(out)


@_collector_paused
@lru_cache(maxsize=None)
def star(family: Family, u: Tree, v: Tree) -> LinComb:
    """The double product on basis trees; the leaf is its unit.

    The operator is applied to each factor as one tree and one
    coefficient, and the three products are merged into one result.
    """
    if u.is_leaf:
        return LinComb.of(v)
    if v.is_leaf:
        return LinComb.of(u)
    out: dict = {}
    x, c = _beta_term(family, u)
    addmul(out, circle(family, x, v).terms.items(), c)
    y, c = _beta_term(family, v)
    addmul(out, circle(family, u, y).terms.items(), c)
    addmul(out, circle(family, u, v).terms.items(), LAMBDA)
    return _wrap(out)


def circle_lc(family: Family, u: LinComb | Tree, v: LinComb | Tree) -> LinComb:
    """The multiplication, extended bilinearly; either factor may be a
    combination or a bare basis tree."""
    return bilinear(lambda x, y: circle(family, x, y).terms.items(), u, v)


def star_lc(family: Family, u: LinComb | Tree, v: LinComb | Tree) -> LinComb:
    """The double product, extended bilinearly; either factor may be a
    combination or a bare basis tree."""
    return bilinear(lambda x, y: star(family, x, y).terms.items(), u, v)


def circle_power(family: Family, t: Tree, k: int) -> LinComb:
    if k < 1:
        raise DomainError("power must be at least 1")
    out = LinComb.of(t)
    for _ in range(k - 1):
        out = circle_lc(family, out, t)
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
    if not target <= source:
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
        coeff = _minus_weight_power(excess)
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
