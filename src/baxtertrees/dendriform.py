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
stay, so one seam helper (`_seam`) computes all three: it returns the
terms of one pair's product as a list of ``(tree, coefficient)``
pairs, with no combination built in between (the seam is injective),
grafts each tree of the meeting factors' star product back through
`intern_planar`, and hands star to the memoized `_star`.  `_star`
stores its three seams side by side, since their supports are
disjoint, and `dend_op` is the bilinear extension (`bilinear`) of
`_seam` for every operation, with a bare tree on either side taken as
one term.

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

from functools import lru_cache, partial
from math import comb
from typing import Iterable, Union

from .baxter_core import (
    LinComb, _wrap, beta_lc, bilinear, circle_lc, star_lc,
)
from .errors import DomainError
from .paths import _restore
from .scalars import LAMBDA, ONE
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

    Its left, right and dot seams are stored, not merged: their supports
    are pairwise disjoint, and no seam repeats a tree.  The root of a
    left term has as many children as x, that of a right term as many as
    y, and that of a dot term one fewer than both together; a left and a
    right term with the same count still differ in their last child: a
    left term's has at least as many leaves as y, a right term's is the
    last child of y.  Each dot coefficient takes its weight factor here.
    """
    if x.is_leaf:
        return LinComb.of(y)
    if y.is_leaf:
        return LinComb.of(x)
    out = dict(_seam(variant, "left", x, y))
    out.update(_seam(variant, "right", x, y))
    if variant == "trialgebra":
        for t, c in _seam(variant, "dot", x, y):
            out[t] = c * LAMBDA
    return _wrap(out)


def _seam(variant: str, op: str, x: PlanarTree, y: PlanarTree) -> Iterable:
    """The terms of ``x op y`` as ``(tree, coefficient)`` pairs, for any
    of the four operations.

    Star is the memoized `_star`.  Left splits x at its last child,
    right splits y at its first child, dot splits both; the split-off
    children (or the whole unsplit factor) meet through `_star`, and each
    tree of that product is grafted back between the children the split
    kept.  The seam is injective, so no two of its terms collide.
    """
    if op == "star":
        return _star(variant, x, y).terms.items()
    if op == "right":
        a, head = x, ()
    else:
        a, head = x.children[-1], x.children[:-1]
    if op == "left":
        b, tail = y, ()
    else:
        b, tail = y.children[0], y.children[1:]
    middle = _star(variant, a, b).terms
    return [(intern_planar(head + (t,) + tail), c) for t, c in middle.items()]


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
    return bilinear(partial(_seam, variant, op), x, y)


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
    if rest:
        raise ArithmeticError(f"planar tree count for ({n}, {m}) is not an integer")
    return count
