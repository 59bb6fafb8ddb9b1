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
    LinComb, addmul, beta_lc, bilinear, circle_lc, lower_root, star_lc,
)
from .errors import DomainError
from .paths import restore_angles
from .scalars import LAMBDA
from .trees import Family, PTree, PlanarTree, Tree, is_binary

__all__ = [
    "dend_op", "rb_dendriform",
    "embed_trialgebra", "embed_dialgebra",
    "dt_dim",
]

_VARIANTS = ("trialgebra", "dialgebra")
_OPS = ("left", "right", "dot", "star")


def _as_comb(v: Union[PlanarTree, LinComb]) -> LinComb:
    return v if isinstance(v, LinComb) else LinComb.of(v)


def _check_basis(variant: str, v: LinComb, allow_leaf: bool) -> None:
    """Reject the first bad element in display order; only a combination
    that has one is sorted."""
    bad = [e for e in v.terms if _basis_error(variant, e, allow_leaf)]
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
    if x.is_leaf:
        return LinComb.of(y)
    if y.is_leaf:
        return LinComb.of(x)
    out = _left(variant, x, y) + _right(variant, x, y)
    if variant == "trialgebra":
        addmul(out.terms, _dot(variant, x, y).terms, LAMBDA)
    return out


def _left(variant: str, x: PTree, y: PTree) -> LinComb:
    return _seam(_star(variant, x.children[-1], y), x.children[:-1], ())


def _right(variant: str, x: PTree, y: PTree) -> LinComb:
    return _seam(_star(variant, x, y.children[0]), (), y.children[1:])


def _dot(variant: str, x: PTree, y: PTree) -> LinComb:
    return _seam(_star(variant, x.children[-1], y.children[0]),
                 x.children[:-1], y.children[1:])


def _seam(middle: LinComb, head: tuple, tail: tuple) -> LinComb:
    """Each tree of ``middle`` grafted between the children ``head`` and ``tail``."""
    return middle.map(lambda t: PTree(head + (t,) + tail))


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
    sum); only ``star`` admits the bare leaf, as its unit.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown dendriform variant {variant!r}")
    if op not in _OPS:
        raise DomainError(f"unknown dendriform operation {op!r}")
    if variant == "dialgebra" and op == "dot":
        raise DomainError("the dialgebra has no middle product")
    xc, yc = _as_comb(x), _as_comb(y)
    _check_basis(variant, xc, allow_leaf=op == "star")
    _check_basis(variant, yc, allow_leaf=op == "star")
    fn = {"left": _left, "right": _right, "dot": _dot, "star": _star}[op]
    return bilinear(lambda a, b: fn(variant, a, b), xc, yc)


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
    ac, bc = _as_comb(a), _as_comb(b)
    for v in (ac, bc):
        if any(e.is_leaf for e in v.support()):
            raise DomainError("the unit tree is not in the non-unital algebra")
    if op == "left":
        return circle_lc(family, ac, beta_lc(family, bc))
    if op == "right":
        return circle_lc(family, beta_lc(family, ac), bc)
    if op == "dot":
        return circle_lc(family, ac, bc)
    return star_lc(family, ac, bc)


# ---------------------------------------------------------------------------
# Embeddings into the tree algebras
# ---------------------------------------------------------------------------

def _embed_tree(pt: PlanarTree) -> Tree:
    if pt.is_leaf:
        raise DomainError("the bare leaf has no decorated image")
    return lower_root(restore_angles(pt))


def _embed_binary_tree(pt: PlanarTree) -> Tree:
    if not is_binary(pt):  # true of the leaf, which _embed_tree rejects
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
