"""Decorated planar rooted trees: the basis data model.

A decorated tree is either the leaf ``.`` or an internal node carrying a
natural-number label, an ordered sequence of at least two children, and a
positive-integer label in each angle between consecutive children.  The
admissible trees obey three structural rules:

* every internal node has at least two children;
* among the children of any internal node, only the leftmost and the
  rightmost may be leaves;
* only the root may carry label 0.

Four families are distinguished by a pair of flags (the pair (i, j) with
entries in {2, inf}): ``i = 2`` forces every angle label to 1 (idempotent
generator), ``j = 2`` forces the root label into {0, 1} and every other
internal label to 1 (quasi-idempotent operator).  With both at infinity
all labels are free.

The bidegree of a tree is (angle degree, node degree) = (sum of angle
labels, sum of internal-node labels).

This module also houses the unlabeled planar rooted trees (every internal
node has at least two children, interior leaves allowed) used by the
dendriform structures and the planar API of the path bijections, and the
binary trees among them, built by their own two-child grammar.

It is the one module that answers questions about a tree's shape.  Each
tree caches its degrees at the head of its sort key (`tree_sort_key`
serves both kinds), so `bidegree` and `is_binary` read them without a
walk, and `require_valid` is the one place a rule violation becomes a
`DomainError`.  A decorated tree also keeps its image with the root
label one higher (`raised`), and each family is one object
(`FAMILIES`), so memo tables key on both by identity.
"""

from __future__ import annotations

import gc
import sys
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .errors import DomainError, ParseError
from .scan import Cursor, int_text

__all__ = [
    "Leaf", "LEAF", "Node", "Tree", "intern_node", "raised",
    "Family", "FAMILIES", "F22", "F2I", "FI2", "FII",
    "parse_family", "bidegree", "validate", "is_valid", "require_valid",
    "parse_tree", "read_tree", "render_tree", "tree_sort_key",
    "enumerate_trees", "enumerate_zero_root", "enumerate_positive_root",
    "count_trees",
    "PTree", "PlanarTree", "intern_planar", "parse_planar", "read_planar",
    "render_planar",
    "planar_trees", "binary_trees", "is_binary",
]

INF = float("inf")


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------
#
# Both tree kinds are hash-consed: building a tree whose parts match a
# tree in its table returns that tree, so equal trees are one object and
# compare and hash by identity.  Each intern table maps a tree's parts to
# the tree itself and caches no results.  Code that already holds a
# tree's parts as tuples builds it through `intern_node` or
# `intern_planar`, skipping the class call and its conversion to tuples.
#
# A table holds its trees, so a tree nothing else holds stays in its
# table until a sweep (`_sweep`) drops it.  A sweep runs when a table
# grows past its limit, and after every full collection, so
# `gc.collect()` frees every tree that nothing holds.  Each sweep sets
# the limit to twice the table's size, and at least `_SWEEP_FLOOR`, so
# memory stays bounded while the collector is paused and sweeping costs
# amortized constant time per new tree.  A sweep drops only trees nothing
# else holds, so a tree that survives is never rebuilt as a second
# object.  The tables are not safe to use from several threads.
#
# A tree may hold one derived tree: a decorated tree its root-raised
# image (`raised`, in ``_raised``), a planar tree its decorated image
# (``_image``).  Each such reference points from a tree to one that
# never points back (a raised image has a higher root label; a decorated
# tree holds no planar tree), so no reference cycle forms, and the
# derived tree goes with its base unless something else holds it.

# The smallest limit, and the limit a sweep sets as a multiple of the
# size it leaves.  Lowering the floor cut the peak memory of the desk
# `verify` run down to 1 << 14, and little more below it, while the
# total time spent sweeping stayed level.  On that run a growth factor
# of 1.5 saved 0.4 MB for 50 % more time sweeping, and one of 4 cost
# 3.5 MB for a third less; the product sweeps read the same under all
# three.
_SWEEP_FLOOR = 1 << 14
_SWEEP_GROWTH = 2

# A tree's reference count during a sweep when only its table holds it:
# the table's reference, the sweep's name for the tree and the one
# `sys.getrefcount` takes for its argument.
_ONLY_THE_TABLE = 3


class _Table(dict):
    """An intern table: a tree's parts -> the tree.  ``limit`` is the
    size past which the next new tree starts a sweep."""

    __slots__ = ("limit",)

    def __init__(self):
        super().__init__()
        self.limit = _SWEEP_FLOOR


# Decorated trees: (label, children, angles) -> the tree.
_DECORATED = _Table()
# Planar trees: children tuple -> the tree.
_PLANAR = _Table()


def _sweep(table: _Table) -> None:
    """Drop every tree that only ``table`` holds, in one pass, and set
    the table's next limit.

    The pass takes the trees newest first, each leaving the snapshot as
    it is taken: a tree's children are older than the tree, so dropping
    a tree frees its children before the pass reaches them.  A raised
    image can be newer than its base, so dropping a decorated tree
    follows its ``_raised`` chain at once.  A collection that starts
    during a sweep sweeps again, but drops nothing the snapshot holds.

    The count is read again once the key is built, which allocates and
    so may run a finalizer: only C-level steps then lie between the
    reading and the deletion."""
    snapshot = list(table.values())
    while snapshot:
        t = snapshot.pop()
        while sys.getrefcount(t) == _ONLY_THE_TABLE:
            key = t._parts()
            if sys.getrefcount(t) != _ONLY_THE_TABLE:
                break
            del table[key]
            # The key holds the tree's children: they go with the tree.
            del key
            t = getattr(t, "_raised", None)
    table.limit = max(_SWEEP_FLOOR, _SWEEP_GROWTH * len(table))


def _sweep_after_full_collection(phase: str, info: dict) -> None:
    # Planar trees first: each holds its decorated image.
    if phase == "stop" and info["generation"] == 2:
        _sweep(_PLANAR)
        _sweep(_DECORATED)


gc.callbacks.append(_sweep_after_full_collection)


def _intern(cls, table: _Table, key: tuple):
    """A new ``cls`` entered in ``table`` under ``key``: the one place a
    tree is made, reached by a constructor whose lookup found no tree.
    ``cls._fill`` checks the key and sets the new tree's fields; a key it
    rejects enters nothing.  A table grown past its limit is swept."""
    t = object.__new__(cls)
    t._fill(key)
    table[key] = t
    if len(table) > table.limit:
        _sweep(table)
    return t


# ---------------------------------------------------------------------------
# Tree values
# ---------------------------------------------------------------------------

class Leaf:
    """The single-node tree, written ``.``.

    Only one instance exists (`LEAF`).  It is the adjoined unit of the
    augmented basis, not an algebra basis element by itself.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    is_leaf = True

    def sort_key(self):
        # Degree-zero sentinel; any internal node's key starts with its
        # negated total degree, so nodes order before leaves.
        return (2,)

    def __str__(self):
        return "."

    def __repr__(self):
        return "LEAF"


LEAF = Leaf()


class Node:
    """An internal node: label, children, and angle labels.

    ``angles[k]`` decorates the angle between ``children[k]`` and
    ``children[k+1]``, so ``len(angles) == len(children) - 1``.  Instances
    are immutable and hash-consed (see `_intern`), so equal trees are one
    object and key memo tables and linear combinations by identity.
    """

    __slots__ = ("label", "children", "angles", "_key", "_raised")

    is_leaf = False

    def __new__(cls, label: int, children: Sequence["Tree"], angles: Sequence[int]):
        return intern_node(label, tuple(children), tuple(angles))

    def _fill(self, key: tuple) -> None:
        label, children, angles = key
        if len(children) < 2:
            raise DomainError(f"a node needs at least 2 children, got {len(children)}")
        if len(angles) != len(children) - 1:
            raise DomainError(
                f"angle count {len(angles)} does not match child count {len(children)}"
            )
        self.label = label
        self.children = children
        self.angles = angles
        self._key = None
        self._raised = None

    def _parts(self) -> tuple:
        """The key `_fill` was given: the node's entry in its table."""
        return (self.label, self.children, self.angles)

    def sort_key(self):
        """Canonical total-order key, arranged so sorted terms display
        highest total degree first: negated total and node degrees, then
        label, child count, and the interleaved (child key, angle)
        sequence, lexicographically."""
        if self._key is None:
            # A child node's key starts with its own negated degrees, so
            # the bidegree sums come from the children's cached keys.
            m = self.label
            total = m + sum(self.angles)
            parts = [0, 0, self.label, len(self.children)]
            for k, child in enumerate(self.children):
                key = child.sort_key()
                if not child.is_leaf:
                    total -= key[0]
                    m -= key[1]
                parts.append(key)
                if k < len(self.angles):
                    parts.append(self.angles[k])
            parts[0], parts[1] = -total, -m
            self._key = tuple(parts)
        return self._key

    def __str__(self):
        return render_tree(self)

    def __repr__(self):
        return f"Node({render_tree(self)!r})"


Tree = Union[Leaf, Node]


def intern_node(label: int, children: tuple, angles: tuple) -> Node:
    """The node with these parts, given as tuples: the one in the table
    if there is one, else a new one.  Every decorated tree is built here;
    `Node` converts its arguments to tuples and calls it."""
    key = (label, children, angles)
    t = _DECORATED.get(key)
    if t is not None:
        return t
    return _intern(Node, _DECORATED, key)


def with_root_label(t: Node, label: int) -> Node:
    """The same tree with its root label replaced."""
    if t.label == label:
        return t
    return intern_node(label, t.children, t.angles)


def raised(t: Node) -> Node:
    """The same tree with its root label one higher, built once and then
    kept in ``t._raised``: the image stays in its table at least as long
    as ``t`` does, and a sweep drops it with ``t`` unless something else
    holds it."""
    r = t._raised
    if r is None:
        r = t._raised = intern_node(t.label + 1, t.children, t.angles)
    return r


def tree_sort_key(t: "Tree | PlanarTree"):
    return t.sort_key()


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

class Family:
    """The pair of structure flags (i, j), each 2 or infinity.

    ``i`` governs the angle labels (2 means all angle labels are 1);
    ``j`` governs the node labels (2 means root in {0, 1}, every other
    internal label 1).  Families are runtime values because the quotient
    morphisms convert between them.

    Each pair is one object (`FAMILIES`): ``Family(i, j)``, copying and
    unpickling all return it, so families compare and hash by identity.
    """

    __slots__ = ("i", "j")

    def __new__(cls, i, j):
        if i not in (2, INF) or j not in (2, INF):
            raise DomainError(f"family entries must be 2 or inf, got ({i}, {j})")
        return _FAMILY_OF[i, j]

    def __reduce__(self):
        return Family, (self.i, self.j)

    @property
    def text(self) -> str:
        a = "2" if self.i == 2 else "inf"
        b = "2" if self.j == 2 else "inf"
        return f"{a},{b}"

    def __repr__(self):
        return f"Family({self.text})"

    def __le__(self, other):
        """Coordinatewise order with 2 < inf (quotient direction)."""
        return self.i <= other.i and self.j <= other.j


def parse_family(text: str) -> Family:
    parts = text.replace(" ", "").split(",")
    if len(parts) != 2:
        raise ParseError(f"family must look like '2,2' or 'inf,2', got {text!r}")
    vals = []
    for p in parts:
        if p == "2":
            vals.append(2)
        elif p in ("inf", "oo", "infinity"):
            vals.append(INF)
        else:
            raise ParseError(f"family entry must be 2 or inf, got {p!r}")
    return Family(*vals)


def _family(i, j) -> Family:
    f = object.__new__(Family)
    f.i, f.j = i, j
    return f


FAMILIES = F22, F2I, FI2, FII = (
    _family(2, 2), _family(2, INF), _family(INF, 2), _family(INF, INF))
_FAMILY_OF = {(f.i, f.j): f for f in FAMILIES}


# ---------------------------------------------------------------------------
# Bidegree and validation
# ---------------------------------------------------------------------------

def bidegree(t: Tree) -> tuple[int, int]:
    """(angle degree, node degree): sums of angle and node labels, read
    from the negated total and node degrees that lead the sort key."""
    if t.is_leaf:
        return (0, 0)
    total, m = t.sort_key()[:2]
    return (m - total, -m)


def validate(family: Family, t: Tree, _root: bool = True) -> list[str]:
    """All rule violations of ``t`` in ``family`` (empty list = valid).

    The bare leaf is reported as a violation: it belongs only to the
    augmented basis, never to the algebra basis itself.
    """
    problems: list[str] = []
    if t.is_leaf:
        if _root:
            problems.append("leaf: the bare leaf is not an algebra basis element")
        return problems
    # No rule-1 check: `Node._fill` refuses a node with fewer than two children.
    for k, child in enumerate(t.children):
        if child.is_leaf and 0 < k < len(t.children) - 1:
            problems.append(f"R2: interior child {k} is a leaf")
    if _root:
        if t.label < 0:
            problems.append(f"label-range: root label {t.label} is negative")
        if family.j == 2 and t.label not in (0, 1):
            problems.append(f"label-range: root label {t.label} not in {{0, 1}}")
    else:
        if t.label < 1:
            problems.append(f"R3: non-root internal node labeled {t.label}")
        elif family.j == 2 and t.label != 1:
            problems.append(f"label-range: non-root label {t.label} must be 1")
    for a in t.angles:
        if a < 1:
            problems.append(f"label-range: angle label {a} is not positive")
        elif family.i == 2 and a != 1:
            problems.append(f"label-range: angle label {a} must be 1")
    for child in t.children:
        problems.extend(validate(family, child, _root=False))
    return problems


def is_valid(family: Family, t: Tree) -> bool:
    return not validate(family, t)


def require_valid(family: Family, t: Tree, what: str | None = None) -> Tree:
    """``t`` if it is valid in ``family``; otherwise a `DomainError` that
    names ``what`` (by default the tree itself), then every problem."""
    problems = validate(family, t)
    if problems:
        raise DomainError(f"{t if what is None else what}: " + "; ".join(problems))
    return t


# ---------------------------------------------------------------------------
# Parsing / rendering
# ---------------------------------------------------------------------------

def render_tree(t: Tree) -> str:
    """Canonical text: ``.`` or ``label(child angle child ... child)``."""
    if t.is_leaf:
        return "."
    inner = [render_tree(t.children[0])]
    for angle, child in zip(t.angles, t.children[1:]):
        inner.append(int_text(angle))
        inner.append(render_tree(child))
    return f"{int_text(t.label)}({' '.join(inner)})"


def parse_tree(text: str) -> Tree:
    """Parse the tree grammar ``tree := '.' | nat '(' tree (posint tree)+ ')'``."""
    cur = Cursor(text)
    t = read_tree(cur)
    cur.finish("tree")
    return t


def read_tree(cur: Cursor) -> Tree:
    """Read one tree at the cursor and leave the cursor just past it."""
    ch = cur.ws()
    if ch == ".":
        cur.pos += 1
        return LEAF
    if not ch:
        raise cur.error("unexpected end of input")
    if not ch.isdecimal():
        raise cur.error("expected '.' or a node label")
    label = cur.nat()
    if cur.ws() != "(":
        raise cur.error("expected '(' after node label")
    cur.pos += 1
    children = [read_tree(cur)]
    angles = []
    while True:
        ch = cur.ws()
        if ch == ")":
            cur.pos += 1
            break
        if not ch:
            raise cur.error("unterminated node (missing ')')")
        angles.append(cur.nat())
        children.append(read_tree(cur))
    if len(children) < 2:
        raise cur.error("a node needs at least two children", cur.pos - 1)
    return Node(label, children, angles)


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------
#
# The decorated grammar, part by part and by bidegree, each part built
# from at most two others:
#
#   root-0 tree    = a pair whose tail is nonempty
#   pair           = a child, then a tail
#   tail           = the empty tail at (0, 0), or an angle, then a pair
#   child          = the leaf at (0, 0), a positive-root tree elsewhere
#   positive-root  = a root label b over a root-0 tree of (n, m - b)
#
# and the leaf only starts a tree or ends a tail.  `_splits`,
# `_angle_choices` and `_root_labels` are the rules for how each part
# may begin; they are the only code that ranges over child bidegrees,
# angles and root labels.  The listing (`enumerate_zero_root`, `_pairs`,
# `_tails`, `_children`) and the counting (`_count_pairs`,
# `_count_tails`, `_count_children`) both read them, the one building
# trees where the other multiplies counts.  With two parts to a split, a
# pair of bidegree (n, m) has O(n m) splits.

def _angle_choices(family: Family, n: int) -> range:
    """The angle labels that fit in angle degree n."""
    return range(1, (min(n, 1) if family.i == 2 else n) + 1)


def _root_labels(family: Family, m: int) -> range:
    """The root labels of a positive-root tree of node degree m."""
    return range(1, (min(m, 1) if family.j == 2 else m) + 1)


def _splits(n: int, m: int, first: bool) -> list:
    """How a pair of bidegree (n, m) may split into its child and its
    tail, as tuples (child n, child m, tail n, tail m); ``first`` when
    the child is a tree's first, whose tail is then nonempty.  A nonempty
    tail has positive angle degree, and a positive-root child two
    positive degrees.  The leaf child, at (0, 0), only starts a tree or
    ends a tail."""
    out = [(0, 0, n, m)] if (n >= 1 if first else n == m == 0) else []
    out += [(cn, cm, n - cn, m - cm)
            for cn in range(1, n + 1) for cm in range(1, m + 1)
            if cn < n or cm == m and not first]
    return out


def _pairs(family: Family, n: int, m: int, first: bool) -> list:
    """The pairs of bidegree (n, m), as (children, angles) tuples."""
    return [((c,) + children, angles)
            for cn, cm, rn, rm in _splits(n, m, first)
            for c in _children(family, cn, cm)
            for children, angles in _tails(family, rn, rm)]


@lru_cache(maxsize=None)
def _tails(family: Family, n: int, m: int) -> tuple:
    """The tails of bidegree (n, m), as (children, angles) tuples."""
    if n == m == 0:
        return (((), ()),)
    return tuple((children, (a,) + angles)
                 for a in _angle_choices(family, n)
                 for children, angles in _pairs(family, n - a, m, False))


@lru_cache(maxsize=None)
def enumerate_zero_root(family: Family, n: int, m: int) -> tuple:
    """All root-label-0 trees of bidegree (n, m), sorted: the child count
    comes next in the key, and the grammar does not list by it."""
    out = [intern_node(0, children, angles)
           for children, angles in _pairs(family, n, m, True)]
    out.sort(key=tree_sort_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _children(family: Family, n: int, m: int) -> tuple:
    """The children of bidegree (n, m), canonically ordered: the leaf at
    (0, 0), the positive-root trees elsewhere.  The root label comes next
    in their key, so label b ascending over the sorted root-0 trees of
    (n, m - b) is key order."""
    if n == m == 0:
        return (LEAF,)
    return tuple(with_root_label(t, b) for b in _root_labels(family, m)
                 for t in enumerate_zero_root(family, n, m - b))


def enumerate_positive_root(family: Family, n: int, m: int) -> tuple:
    """All positive-root trees of bidegree (n, m), canonically ordered."""
    return () if n == m == 0 else _children(family, n, m)


def enumerate_trees(family: Family, n: int, m: int) -> tuple:
    """The full basis component of bidegree (n, m), canonically ordered:
    the root-0 trees, then the positive-root ones, since after the shared
    degrees the sort key compares root labels."""
    return enumerate_zero_root(family, n, m) + enumerate_positive_root(family, n, m)


@lru_cache(maxsize=None)
def _count_pairs(family: Family, n: int, m: int, first: bool) -> int:
    return sum(_count_children(family, cn, cm) * _count_tails(family, rn, rm)
               for cn, cm, rn, rm in _splits(n, m, first))


@lru_cache(maxsize=None)
def _count_tails(family: Family, n: int, m: int) -> int:
    if n == m == 0:
        return 1
    return sum(_count_pairs(family, n - a, m, False)
               for a in _angle_choices(family, n))


@lru_cache(maxsize=None)
def _count_children(family: Family, n: int, m: int) -> int:
    if n == m == 0:
        return 1
    return sum(_count_pairs(family, n, m - b, True)
               for b in _root_labels(family, m))


def count_trees(family: Family, n: int, m: int) -> int:
    """|basis component of bidegree (n, m)|: the listing's grammar read
    as counts, materializing nothing.  Used for large marginals."""
    if n == m == 0:
        return 0  # the bare leaf is no basis tree
    return _count_pairs(family, n, m, True) + _count_children(family, n, m)


# ---------------------------------------------------------------------------
# Unlabeled planar rooted trees
# ---------------------------------------------------------------------------

class PTree:
    """An unlabeled planar rooted tree node (>= 2 children, any of which
    may be leaves).  The leaf is the shared `LEAF` singleton.  Planar
    trees are hash-consed like decorated ones (see `_intern`).

    ``_image`` holds the tree's decorated image with root label 1 once
    `paths.restore_angles` has built it, so the image stays in its table
    at least as long as the planar tree does, and a sweep drops it with
    the planar tree unless something else holds it.
    """

    __slots__ = ("children", "_key", "_image")

    is_leaf = False

    def __new__(cls, children: Sequence["PlanarTree"]):
        return intern_planar(tuple(children))

    def _fill(self, children: tuple) -> None:
        if len(children) < 2:
            raise DomainError(
                f"a planar node needs at least 2 children, got {len(children)}")
        self.children = children
        self._key = None
        self._image = None

    def _parts(self) -> tuple:
        """The key `_fill` was given: the tree's entry in its table."""
        return self.children

    def sort_key(self):
        if self._key is None:
            # Negated (leaves - 1 + nodes) and nodes, summed from the
            # children's cached keys: a leaf child adds one leaf, a node
            # child its own leaves + nodes, which is 1 - key[0].
            total, nodes = len(self.children), 1
            parts = [0, 0, len(self.children)]
            for child in self.children:
                key = child.sort_key()
                if not child.is_leaf:
                    total -= key[0]
                    nodes -= key[1]
                parts.append(key)
            parts[0], parts[1] = -total, -nodes
            self._key = tuple(parts)
        return self._key

    def __str__(self):
        return render_planar(self)

    def __repr__(self):
        return f"PTree({render_planar(self)!r})"


PlanarTree = Union[Leaf, PTree]


def intern_planar(children: tuple) -> PTree:
    """The planar tree with these children, given as a tuple: the one in
    the table if there is one, else a new one.  Every planar tree is built
    here; `PTree` converts its argument to a tuple and calls it."""
    t = _PLANAR.get(children)
    if t is not None:
        return t
    return _intern(PTree, _PLANAR, children)


def render_planar(t: PlanarTree) -> str:
    """Compact form: ``.`` for a leaf, ``(c1 c2 ...)`` for a node."""
    if t.is_leaf:
        return "."
    return "(" + " ".join(render_planar(c) for c in t.children) + ")"


def parse_planar(text: str) -> PlanarTree:
    cur = Cursor(text)
    t = read_planar(cur)
    cur.finish("tree")
    return t


def read_planar(cur: Cursor) -> PlanarTree:
    """Read one planar tree, ``'.' | '(' tree tree+ ')'``, at the cursor
    and leave the cursor just past it."""
    ch = cur.ws()
    if ch == ".":
        cur.pos += 1
        return LEAF
    if not ch:
        raise cur.error("unexpected end of input")
    if ch != "(":
        raise cur.error("expected '.' or '('")
    cur.pos += 1
    children = []
    while True:
        ch = cur.ws()
        if ch == ")":
            cur.pos += 1
            break
        if not ch:
            raise cur.error("unterminated planar node")
        children.append(read_planar(cur))
    if len(children) < 2:
        raise cur.error("a planar node needs at least two children", cur.pos - 1)
    return PTree(children)


@lru_cache(maxsize=None)
def _planar_forests(leaves: int, nodes: int) -> tuple:
    """Ordered forests of planar trees with the given totals: a tree
    followed by a forest, the empty forest being the one at (0, 0)."""
    if leaves == nodes == 0:
        return ((),)
    return tuple((t,) + rest
                 for ln in range(1, leaves + 1) for nn in range(nodes + 1)
                 for t in _planar_by_size(ln, nn)
                 for rest in _planar_forests(leaves - ln, nodes - nn))


@lru_cache(maxsize=None)
def _planar_by_size(leaves: int, nodes: int) -> tuple:
    """Planar trees with the given leaf and internal-node counts: the
    leaf, or a node over a first tree and a nonempty forest, sorted, as
    the child count comes next in the key and the grammar does not fix it."""
    if leaves == 1 and nodes == 0:
        return (LEAF,)
    out = [intern_planar((t,) + rest)
           for ln in range(1, leaves) for nn in range(nodes)
           for t in _planar_by_size(ln, nn)
           for rest in _planar_forests(leaves - ln, nodes - 1 - nn)]
    out.sort(key=tree_sort_key)
    return tuple(out)


def planar_trees(n: int, m: int) -> tuple:
    """Planar rooted trees with n + 1 leaves and m internal nodes."""
    return _planar_by_size(n + 1, m)


@lru_cache(maxsize=None)
def binary_trees(n: int) -> tuple:
    """Planar binary trees with n internal nodes (n + 1 leaves), by their
    grammar: a leaf, or a node over a left tree of k nodes and a right
    tree of n - 1 - k.  Taking k from n - 1 down to 0 gives the order of
    `planar_trees(n, n)`, since a smaller left subtree has a larger sort
    key and the leaf the largest."""
    if n == 0:
        return (LEAF,)
    return tuple(PTree((left, right))
                 for k in range(n - 1, -1, -1)
                 for left in binary_trees(k)
                 for right in binary_trees(n - 1 - k))


def is_binary(t: PlanarTree) -> bool:
    """Whether every node has two children, read from the sort key: every
    node has at least two children, so a planar tree is binary exactly
    when it has one leaf more than it has nodes."""
    if t.is_leaf:
        return True
    total, nodes = t.sort_key()[:2]  # negated (leaves - 1 + nodes), nodes
    return total == 2 * nodes
