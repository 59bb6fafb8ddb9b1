"""The free dendriform products, checked against the Tamari order.

A reference that shares no code with `dendriform._star` or `_seam`: the
trees are tuples built here (``None`` is the leaf, a node the tuple of
its children), and so is the Tamari order, the closure of the right
rotation ``((A, B), C) -> (A, (B, C))`` at any node of a binary tree.
With ``x/y`` grafting x onto the leftmost leaf of y and ``x\\y`` grafting
y onto the rightmost leaf of x:

* the dialgebra's ``x * y = x < y + x > y`` is the sum of the binary
  trees u with ``x/y <= u <= x\\y``, each with coefficient one (Loday and
  Ronco, "Hopf algebra of the planar binary trees", Adv. Math. 139,
  1998);
* the trialgebra's ``x * y`` is the sum of the planar trees u whose
  leftmost binary refinement ``lo(u)`` (each node's children bracketed
  from the left) lies between ``lo(x/y)`` and ``lo(x\\y)`` and whose
  rightmost one ``hi(u)`` lies between ``hi(x/y)`` and ``hi(x\\y)``, each
  with coefficient ``l^(nodes(x) + nodes(y) - nodes(u))``.  This is the
  order on the faces of the associahedra of Loday and Ronco,
  "Trialgebras and families of polytopes", Contemp. Math. 346, 2004.

The library meets the reference only where its trees are built from the
tuples and read back.
"""

from functools import lru_cache
from math import factorial

from baxtertrees.baxter_core import LinComb
from baxtertrees.dendriform import dend_op, embed_trialgebra, rb_dendriform
from baxtertrees.scalars import LAMBDA
from baxtertrees.trees import FI2, LEAF, PTree

MAX_NODES = 7  # internal nodes of the two binary factors together
MAX_DEGREE = 5  # leaves minus one, of the two planar factors together


@lru_cache(maxsize=None)
def binary(n):
    """The tuple binary trees with n internal nodes."""
    if n == 0:
        return (None,)
    return tuple((left, right) for k in range(n)
                 for left in binary(k) for right in binary(n - 1 - k))


def rotate_right(t):
    """((A, B), C) -> (A, (B, C)) at the root, or None."""
    ab, c = t
    return None if ab is None else (ab[0], (ab[1], c))


def rotate_left(t):
    """(A, (B, C)) -> ((A, B), C) at the root, or None."""
    a, bc = t
    return None if bc is None else ((a, bc[0]), bc[1])


def rotations(t, turn):
    """The trees one ``turn`` away from t, at any node."""
    if t is None:
        return
    turned = turn(t)
    if turned is not None:
        yield turned
    left, right = t
    for s in rotations(left, turn):
        yield (s, right)
    for s in rotations(right, turn):
        yield (left, s)


def closure(t, turn):
    """t and every tree reached from it by repeated ``turn``s."""
    seen, todo = {t}, [t]
    while todo:
        for s in rotations(todo.pop(), turn):
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def over(x, y):
    """x/y: x grafted onto the leftmost leaf of y."""
    return x if y is None else (over(x, y[0]), y[1])


def under(x, y):
    """x\\y: y grafted onto the rightmost leaf of x."""
    return y if x is None else (x[0], under(x[1], y))


def interval(low, high):
    return closure(low, rotate_right) & closure(high, rotate_left)


@lru_cache(maxsize=None)
def plane(n):
    """The tuple planar trees with n + 1 leaves."""
    if n == 0:
        return (None,)
    return tuple((first,) + rest for k in range(1, n + 1)
                 for first in plane(k - 1) for rest in forests(n + 1 - k))


def forests(leaves):
    """The tuples of one or more tuple planar trees with ``leaves`` leaves
    in all: one tree, or the children of a node, which has two or more."""
    trees = plane(leaves - 1)
    return [(t,) for t in trees] + [t for t in trees if t is not None]


def lowest(u):
    """The leftmost binary refinement of a planar tree."""
    if u is None:
        return None
    out = lowest(u[0])
    for child in u[1:]:
        out = (out, lowest(child))
    return out


def highest(u):
    """The rightmost binary refinement of a planar tree."""
    if u is None:
        return None
    out = highest(u[-1])
    for child in reversed(u[:-1]):
        out = (highest(child), out)
    return out


def nodes(u):
    return 0 if u is None else 1 + sum(map(nodes, u))


def planar_over(x, y):
    """x/y: x grafted onto the leftmost leaf of y."""
    return x if y is None else (planar_over(x, y[0]),) + y[1:]


def planar_under(x, y):
    """x\\y: y grafted onto the rightmost leaf of x."""
    return y if x is None else x[:-1] + (planar_under(x[-1], y),)


def interval_sum(x, y):
    """The reference trialgebra star product: planar tree -> power of l."""
    low, high = planar_over(x, y), planar_under(x, y)
    los = interval(lowest(low), lowest(high))
    his = interval(highest(low), highest(high))
    return {u: nodes(x) + nodes(y) - nodes(u)
            for u in plane(degree(x) + degree(y))
            if lowest(u) in los and highest(u) in his}


def degree(u):
    """Leaves minus one."""
    return 0 if u is None else sum(map(degree, u)) + len(u) - 1


def planar(t):
    return LEAF if t is None else PTree(tuple(map(planar, t)))


def shape(pt):
    return None if pt.is_leaf else tuple(shape(c) for c in pt.children)


def test_the_reference_order_has_the_tamari_interval_counts():
    # 2 (4n + 1)! / ((n + 1)! (3n + 2)!) intervals in the n-th Tamari
    # lattice (Chapoton, 2006): 1, 1, 3, 13, 68, 399.
    for n in range(6):
        count = sum(len(closure(t, rotate_right)) for t in binary(n))
        assert count == 2 * factorial(4 * n + 1) // (
            factorial(n + 1) * factorial(3 * n + 2))


def test_dialgebra_star_is_the_sum_over_a_tamari_interval():
    for total in range(MAX_NODES + 1):
        for nx in range(total + 1):
            for x in binary(nx):
                for y in binary(total - nx):
                    got = dend_op("dialgebra", "star", planar(x), planar(y))
                    want = interval(over(x, y), under(x, y))
                    assert {shape(u): c for u, c in got.items()} == \
                        dict.fromkeys(want, 1), (x, y)


def planar_pairs():
    for total in range(MAX_DEGREE + 1):
        for nx in range(total + 1):
            for x in plane(nx):
                for y in plane(total - nx):
                    yield x, y


def test_the_reference_planar_trees_are_counted_by_the_small_schroeder_numbers():
    assert [len(plane(n)) for n in range(7)] == [1, 1, 3, 11, 45, 197, 903]


def test_the_refinements_tell_planar_trees_apart():
    for n in range(6):
        assert len({(lowest(u), highest(u)) for u in plane(n)}) == len(plane(n))


def test_trialgebra_star_is_the_sum_over_a_pair_of_tamari_intervals():
    count = 0
    for x, y in planar_pairs():
        got = dend_op("trialgebra", "star", planar(x), planar(y))
        want = {u: LAMBDA ** k for u, k in interval_sum(x, y).items()}
        assert {shape(u): c for u, c in got.items()} == want, (x, y)
        count += 1
    assert count == 709


def test_the_planar_embedding_sends_the_interval_sum_to_the_star_product():
    # The same reference checks `circle` and `beta` in the free-angle
    # forced-label algebra, through the embedding and its splitting.
    for x, y in planar_pairs():
        if x is None or y is None:
            continue  # the leaf has no decorated image
        want = LinComb({planar(u): LAMBDA ** k for u, k in interval_sum(x, y).items()})
        assert rb_dendriform(FI2, "star", embed_trialgebra(planar(x)),
                             embed_trialgebra(planar(y))) == embed_trialgebra(want), (x, y)
