"""Splittings of the associative product on planar and binary trees.

A weight-λ dendriform trialgebra carries three operations <, >, and a
middle product, whose sum * = < + > + λ(middle) is associative; seven
axioms tie them together.  The free one on a single generator lives on
rooted planar trees (interior leaves allowed), with the operations
defined by grafting recursions: x < y puts x * y into x's last-child
slot, x > y puts it into y's first-child slot, and the middle product
fuses x's last child with y's first.  The star recursion bottoms out at
the bare leaf, which acts as its unit.  Grafting here performs no leaf
merging — a deliberately separate code path from the decorated-tree
graft.

The three recursions differ only in which children meet and which
stay, so one seam helper (`_seam`) computes all three: it reads the
meeting factors' star product from the memoized `_star` once, grafts
each of its trees back between the kept children through
`intern_planar`, and merges the result into a coefficient dict in the
same pass, with no list of terms or combination built in between.
`_star` fills its memo value with its left, right and dot seams, whose
supports are disjoint.  `dend_op` is the bilinear extension written out:
for each pair of terms it hands the grafting operations to `_seam` and
merges star's memoized terms through `addmul`, with a bare tree on
either side taken as one term.

Dropping the middle product at weight 0 gives a dendriform dialgebra;
its free object lives on binary trees.  It is implemented as its own
variant, with agreement against the weight-0 trialgebra as a tested
compatibility rather than an implementation detail.

Every Rota-Baxter algebra splits its product the same way
(`rb_dendriform`): x > y = β(x)y, x < y = xβ(y), middle = the product
itself.  The free trialgebra embeds into the free-angle forced-label
tree algebra by reading angle labels out of interior-leaf runs and
dropping the root label to 0; the free dialgebra embeds into the fully
forced algebra by relabeling.  Both embeddings are injective and
operation-preserving, and both are exercised exhaustively in tests.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Union

from .baxter_core import (
    LinComb, _wrap, addmul, beta_lc, circle_lc, star_lc,
)
from .errors import DomainError
from .paths import _restore
from .scalars import LAMBDA, ONE, LambdaPoly
from .trees import Family, PTree, PlanarTree, Tree, intern_planar, is_binary

__all__ = [
    "dend_op", "rb_dendriform",
    "embed_trialgebra", "embed_dialgebra",
    "dt_dim",
]

_VARIANTS = ("trialgebra", "dialgebra")
_OPS = ("left", "right", "dot", "star")


def _as_comb(v: Union[PlanarTree, LinComb]) -> LinComb:
    return v if isinstance(v, LinComb) else _wrap({v: ONE})


def _check_basis(variant: str, v: Union[PlanarTree, LinComb],
                 allow_leaf: bool) -> None:
    """Reject a bad bare element, or the first bad element of a
    combination in display order; only a combination that has one is
    sorted."""
    if variant == "trialgebra" and type(v) is PTree:  # no tuple, no map
        return
    elems = v.terms if isinstance(v, LinComb) else (v,)
    if variant == "trialgebra" and all(map(PTree.__instancecheck__, elems)):
        return
    bad = [e for e in elems if _basis_error(variant, e, allow_leaf)]
    if bad:
        first = min(bad, key=lambda e: e.sort_key())
        raise DomainError(_basis_error(variant, first, allow_leaf))


def _basis_error(variant: str, elem, allow_leaf: bool) -> str:
    if elem.is_leaf:
        return "" if allow_leaf else "the bare leaf is only a unit for star"
    if not isinstance(elem, PTree):
        return "expected a planar tree basis element"
    if variant == "dialgebra" and not is_binary(elem):
        return "dialgebra basis elements must be binary trees"
    return ""


@lru_cache(maxsize=None)
def _star(variant: str, x: PlanarTree, y: PlanarTree) -> LinComb:
    """The star product of two planar trees (or leaves).

    Its left, right and dot seams go into one dict through `_seam`,
    left, then right, then dot with its weight factor; no term merges
    there, since their supports are pairwise disjoint and no seam
    repeats a tree.  The root of a left term has as many children as x,
    that of a right term as many as y, and that of a dot term one fewer
    than both together; a left and a right term with the same count
    still differ in their last child: a left term's has at least as many
    leaves as y, a right term's is the last child of y.
    """
    if x.is_leaf:
        return LinComb.of(y)
    if y.is_leaf:
        return LinComb.of(x)
    out: dict = {}
    _seam(out, variant, "left", x, y, ONE)
    _seam(out, variant, "right", x, y, ONE)
    if variant == "trialgebra":
        _seam(out, variant, "dot", x, y, LAMBDA)
    return _wrap(out)


def _seam(acc: dict, variant: str, op: str, x: PlanarTree, y: PlanarTree,
          coeff: LambdaPoly) -> None:
    """Add ``coeff`` times ``x op y`` into the coefficient dict ``acc``,
    for one of the grafting operations left, right and dot.

    Left splits x at its last child, right splits y at its first child,
    dot splits both; the split-off children (or the whole unsplit
    factor) meet through the memoized `_star`, read once, and each tree
    of that product is grafted back between the children the split kept,
    interned and merged into ``acc`` in the same pass.  The merge is
    that of `addmul`, written out so that no list of pairs is built per
    call (`addmul` says why): a zero sum is dropped, and a product with
    one is not taken.  ``coeff`` is never zero and the grafting is
    injective, so only a merge with a term already in ``acc`` can give a
    zero.
    """
    if op == "right":
        a, head = x, ()
    else:
        a, head = x.children[-1], x.children[:-1]
    if op == "left":
        b, tail = y, ()
    else:
        b, tail = y.children[0], y.children[1:]
    unit = coeff.coeffs == (1,)
    for t, c in _star(variant, a, b).terms.items():
        t = intern_planar(head + (t,) + tail)
        if not unit:  # a product with one would only copy
            c = coeff if c.coeffs == (1,) else c * coeff
        old = acc.get(t)
        if old is None:
            acc[t] = c
        elif (c := old + c).coeffs:
            acc[t] = c
        else:
            del acc[t]


def dend_op(
    variant: str,
    op: str,
    x: Union[PlanarTree, LinComb],
    y: Union[PlanarTree, LinComb],
) -> LinComb:
    """One dendriform operation, bilinearly extended.

    ``variant`` is ``trialgebra`` (weight symbolic) or ``dialgebra``
    (binary trees, no middle product).  ``op`` is ``left`` (<),
    ``right`` (>), ``dot`` (middle), or ``star`` (their associative
    sum); only ``star`` admits the bare leaf, as its unit.  Each of
    ``x`` and ``y`` is a combination or a bare tree, which is taken as
    its one term with coefficient one.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown dendriform variant {variant!r}")
    if op not in _OPS:
        raise DomainError(f"unknown dendriform operation {op!r}")
    if variant == "dialgebra" and op == "dot":
        raise DomainError("the dialgebra has no middle product")
    _check_basis(variant, x, allow_leaf=op == "star")
    _check_basis(variant, y, allow_leaf=op == "star")
    out: dict = {}
    x_terms = x.terms.items() if isinstance(x, LinComb) else ((x, ONE),)
    y_terms = y.terms.items() if isinstance(y, LinComb) else ((y, ONE),)
    for a, ca in x_terms:
        unit = ca.coeffs == (1,)
        for b, cb in y_terms:
            c = cb if unit else ca * cb
            if op == "star":
                addmul(out, _star(variant, a, b).terms.items(), c)
            else:
                _seam(out, variant, op, a, b, c)
    return _wrap(out)


# ---------------------------------------------------------------------------
# The splitting carried by every Rota-Baxter algebra
# ---------------------------------------------------------------------------

def rb_dendriform(
    family: Family,
    op: str,
    a: Union[Tree, LinComb],
    b: Union[Tree, LinComb],
) -> LinComb:
    """The dendriform operations induced on a tree algebra by its
    operator: right is β(a)b, left is aβ(b), dot is the product, star
    their weighted sum (which equals the associative star product)."""
    if op not in _OPS:
        raise DomainError(f"unknown dendriform operation {op!r}")
    for v in (a, b):
        if any(e.is_leaf for e in (v.terms if isinstance(v, LinComb) else (v,))):
            raise DomainError("the unit tree is not in the non-unital algebra")
    if op == "left":
        return circle_lc(family, a, beta_lc(family, b))
    if op == "right":
        return circle_lc(family, beta_lc(family, a), b)
    if op == "dot":
        return circle_lc(family, a, b)
    return star_lc(family, a, b)


# ---------------------------------------------------------------------------
# Embeddings into the tree algebras
# ---------------------------------------------------------------------------

def _embed_tree(pt: PlanarTree) -> Tree:
    if pt.is_leaf:
        raise DomainError("the bare leaf has no decorated image")
    if not isinstance(pt, PTree):
        raise DomainError("expected a planar tree basis element")
    return _restore(pt, 0)


def _embed_binary_tree(pt: PlanarTree) -> Tree:
    # _embed_tree rejects the leaf and any tree that is not planar
    if isinstance(pt, PTree) and not is_binary(pt):
        raise DomainError("dialgebra elements must be binary trees")
    return _embed_tree(pt)


def embed_trialgebra(x: Union[PlanarTree, LinComb]) -> LinComb:
    """Send a planar tree to its root-0 decorated counterpart: collapse
    interior-leaf runs into angle labels, then drop the root label."""
    return _as_comb(x).map(_embed_tree)


def embed_dialgebra(x: Union[PlanarTree, LinComb]) -> LinComb:
    """Send a binary tree to itself with root label 0, every other
    internal label 1, and all angle labels 1."""
    return _as_comb(x).map(_embed_binary_tree)


def dt_dim(n: int, m: int) -> int:
    """Number of planar rooted trees with n+1 leaves and m internal
    nodes (faces of the associahedron)."""
    if n < 1 or m < 1 or m > n:
        return 0
    count, rest = divmod(comb(n + m, m) * comb(n - 1, m - 1), n + 1)
    # Certificate: a remainder would mean the closed form is wrong.
    if rest:
        raise ArithmeticError(f"planar tree count for ({n}, {m}) is not an integer")
    return count
