"""The multiplication against the mixable-shuffle closed form.

`circle` and `star` recurse into each other one unit of root label at a
time.  Here the product of two meeting pieces ``P^a x`` and ``P^c y``
(``x``, ``y`` root-0 trees) is unfolded in one step instead: the
Rota-Baxter identity

    P^a x . P^c y = P(P^a x . P^(c-1) y + P^(a-1) x . P^c y
                      + l P^(a-1) x . P^(c-1) y)

walks down the lattice from ``(a, c)`` with steps ``(-1, 0)``,
``(0, -1)`` and ``(-1, -1)``, and each walk stops where it first reaches
an axis, at ``(i, 0)``, ``(0, j)`` or ``(0, 0)``.  A walk with ``s``
steps, ``d`` of them diagonal, contributes ``l^d P^s(P^i x . P^j y)``,
and the walks between two interior points number a trinomial.  Only the
endpoint products recurse, and they recurse into children.  This is the
mixable-shuffle product of Guo-Keigher, "Baxter algebras and shuffle
products" (2000).

The reference calls neither `circle` nor `star`; it shares `degraft`,
`graft`, `_beta_term` and `addmul` with them.
"""

import itertools
from math import factorial

from baxtertrees.baxter_core import _beta_term, addmul, circle, degraft, graft
from baxtertrees.scalars import LAMBDA, ONE
from baxtertrees.trees import FAMILIES, enumerate_trees, with_root_label


def lattice_walks(a, c):
    """Each class of walks down from ``(a, c)``, both positive, as
    ``(i, j, steps, diagonals, count)``: the endpoint on an axis, the
    walk's length and diagonal steps, and how many walks share them.

    A walk's last step leaves an interior point ``(p, q)``; the walks
    from ``(a, c)`` to it with ``d`` diagonal steps number
    ``(L + D + d)! / (L! D! d!)``."""
    for p in range(1, a + 1):
        for q in range(1, c + 1):
            for dp, dq in ((1, 0), (0, 1), (1, 1)):
                i, j = p - dp, q - dq
                if i and j:
                    continue
                for d in range(min(a - p, c - q) + 1):
                    left, down = a - p - d, c - q - d
                    count = factorial(left + down + d) // (
                        factorial(left) * factorial(down) * factorial(d))
                    yield i, j, left + down + d + 1, d + dp * dq, count


def reference_meet(family, p, q, memo):
    """The product of two pieces (leaves or positive-root trees) as a
    coefficient dict of pieces."""
    if p.is_leaf:
        return {q: ONE}
    if q.is_leaf:
        return {p: ONE}
    x, y = with_root_label(p, 0), with_root_label(q, 0)
    out = {}
    for i, j, steps, diagonals, count in lattice_walks(p.label, q.label):
        end = reference_circle(family, with_root_label(x, i),
                               with_root_label(y, j), memo)
        for tree, coeff in end.items():
            coeff = coeff * count * LAMBDA ** diagonals
            for _ in range(steps):
                tree, k = _beta_term(family, tree)
                coeff = coeff * k
            addmul(out, [(tree, coeff)], ONE)
    return out


def reference_circle(family, t, s, memo):
    """The product of two basis trees as a coefficient dict: the meeting
    pieces multiply, and each piece of their product is grafted back
    between the pieces that stay."""
    key = (family, t, s)
    if key not in memo:
        t_pieces, t_angles = degraft(t)
        s_pieces, s_angles = degraft(s)
        out = {}
        meet = reference_meet(family, t_pieces[-1], s_pieces[0], memo)
        for piece, coeff in meet.items():
            tree = graft(family, t_pieces[:-1] + (piece,) + s_pieces[1:],
                         t_angles + s_angles)
            addmul(out, [(tree, coeff)], ONE)
        memo[key] = out
    return memo[key]


def trees_up_to(family, total):
    return [x for n in range(1, total + 1) for m in range(total + 1 - n)
            for x in enumerate_trees(family, n, m)]


def test_lattice_walks_count_every_walk():
    # Every walk is counted once: stepping the walks out one by one
    # gives the same classes with the same counts.
    def walks(a, c, steps, diagonals):
        if not a or not c:
            yield a, c, steps, diagonals
            return
        for da, dc in ((1, 0), (0, 1), (1, 1)):
            yield from walks(a - da, c - dc, steps + 1, diagonals + da * dc)

    for a, c in itertools.product(range(1, 6), repeat=2):
        stepped = {}
        for walk in walks(a, c, 0, 0):
            stepped[walk] = stepped.get(walk, 0) + 1
        closed = {}
        for i, j, steps, diagonals, count in lattice_walks(a, c):
            closed[i, j, steps, diagonals] = closed.get((i, j, steps, diagonals), 0) + count
        assert closed == stepped, (a, c)


def test_circle_matches_the_mixable_shuffle_reference():
    pairs = 0
    for family in FAMILIES:
        memo = {}
        pool = trees_up_to(family, 5)
        for a, b in itertools.product(pool, repeat=2):
            assert circle(family, a, b).terms == reference_circle(family, a, b, memo), \
                (family, str(a), str(b))
            pairs += 1
    assert pairs == 5299
