"""The free dendriform dialgebra's product, checked against the Tamari order.

A reference that shares no code with `dendriform._star` or `_seam`: the
binary trees are tuples built here (``None`` is the leaf, ``(l, r)`` a
node), and so is the Tamari order, the closure of the right rotation
``((A, B), C) -> (A, (B, C))`` at any node.  With ``x/y`` grafting x
onto the leftmost leaf of y and ``x\\y`` grafting y onto the rightmost
leaf of x, the product ``x * y = x < y + x > y`` is the sum of the binary
trees u with ``x/y <= u <= x\\y``, each with coefficient one (Loday and
Ronco, "Hopf algebra of the planar binary trees", Adv. Math. 139, 1998).
The library meets the reference only where its trees are built from the
tuples and read back.
"""

from functools import lru_cache
from math import factorial

from baxtertrees.dendriform import dend_op
from baxtertrees.trees import LEAF, PTree

MAX_NODES = 7  # internal nodes of the two factors together


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


def planar(t):
    return LEAF if t is None else PTree((planar(t[0]), planar(t[1])))


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
