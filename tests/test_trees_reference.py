"""The tree grammars against reference copies of earlier code.

The decorated enumerator once spelled its grammar out twice, with one
loop nest for listing and a counting twin for counting, and listed
planar trees through forests of a fixed number of trees.  Those copies
are kept here: the library's listings must match them in order, and its
counts must match the twin's.
"""

from functools import lru_cache

from baxtertrees.trees import (
    FAMILIES, LEAF, Node, PTree, count_trees, enumerate_positive_root,
    enumerate_trees, enumerate_zero_root, planar_trees, tree_sort_key,
    with_root_label,
)


def _angle_choices(family, budget):
    if family.i == 2:
        return range(1, 2) if budget >= 1 else range(0)
    return range(1, budget + 1)


# -- the listing --------------------------------------------------------------

@lru_cache(maxsize=None)
def _tails(family, n, m):
    out = []
    for a in _angle_choices(family, n):
        if m == 0 and n == a:
            out.append(((LEAF,), (a,)))
        for t in _positive(family, n - a, m):
            out.append(((t,), (a,)))
        for cn in range(1, n - a):
            for cm in range(0, m + 1):
                children = _positive(family, cn, cm)
                if not children:
                    continue
                for rest_children, rest_angles in _tails(family, n - a - cn, m - cm):
                    for c in children:
                        out.append(((c,) + rest_children, (a,) + rest_angles))
    return tuple(out)


@lru_cache(maxsize=None)
def _zero(family, n, m):
    if n < 1 or m < 0:
        return ()
    out = []
    for children, angles in _tails(family, n, m):
        out.append(Node(0, (LEAF,) + children, angles))
    for cn in range(1, n):
        for cm in range(0, m + 1):
            firsts = _positive(family, cn, cm)
            if not firsts:
                continue
            for rest_children, rest_angles in _tails(family, n - cn, m - cm):
                for c in firsts:
                    out.append(Node(0, (c,) + rest_children, rest_angles))
    out.sort(key=tree_sort_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _positive(family, n, m):
    if n < 1 or m < 1:
        return ()
    labels = (1,) if family.j == 2 else range(1, m + 1)
    out = []
    for b in labels:
        for t in _zero(family, n, m - b):
            out.append(with_root_label(t, b))
    out.sort(key=tree_sort_key)
    return tuple(out)


# -- the counting twin --------------------------------------------------------

@lru_cache(maxsize=None)
def _count_tails(family, n, m):
    total = 0
    for a in _angle_choices(family, n):
        if m == 0 and n == a:
            total += 1
        total += _count_positive(family, n - a, m)
        for cn in range(1, n - a):
            for cm in range(0, m + 1):
                c = _count_positive(family, cn, cm)
                if c:
                    total += c * _count_tails(family, n - a - cn, m - cm)
    return total


@lru_cache(maxsize=None)
def _count_zero(family, n, m):
    if n < 1 or m < 0:
        return 0
    total = _count_tails(family, n, m)
    for cn in range(1, n):
        for cm in range(0, m + 1):
            c = _count_positive(family, cn, cm)
            if c:
                total += c * _count_tails(family, n - cn, m - cm)
    return total


@lru_cache(maxsize=None)
def _count_positive(family, n, m):
    if n < 1 or m < 1:
        return 0
    if family.j == 2:
        return _count_zero(family, n, m - 1)
    return sum(_count_zero(family, n, m - b) for b in range(1, m + 1))


# -- planar trees through forests of exactly k trees --------------------------

@lru_cache(maxsize=None)
def _planar_forests(leaves, nodes, k):
    if k == 0:
        return ((),) if leaves == 0 and nodes == 0 else ()
    out = []
    for ln in range(1, leaves + 1):
        for nn in range(0, nodes + 1):
            for t in _planar_by_size(ln, nn):
                for rest in _planar_forests(leaves - ln, nodes - nn, k - 1):
                    out.append((t,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _planar_by_size(leaves, nodes):
    if leaves == 1 and nodes == 0:
        return (LEAF,)
    if nodes < 1 or leaves < 2:
        return ()
    out = []
    for k in range(2, leaves + 1):
        for forest in _planar_forests(leaves, nodes - 1, k):
            out.append(PTree(forest))
    out.sort(key=tree_sort_key)
    return tuple(out)


def _clear():
    for f in (_tails, _zero, _positive, _count_tails, _count_zero,
              _count_positive, _planar_forests, _planar_by_size):
        f.cache_clear()


# -- the comparisons ----------------------------------------------------------

def test_listings_match_the_reference_in_order():
    try:
        for family in FAMILIES:
            for n in range(7):
                for m in range(7):
                    assert enumerate_zero_root(family, n, m) == _zero(family, n, m), \
                        (family, n, m)
                    assert enumerate_positive_root(family, n, m) == \
                        _positive(family, n, m), (family, n, m)
                    # The library lists the two parts one after the other,
                    # unsorted: the order must still be the key's.
                    assert enumerate_trees(family, n, m) == tuple(sorted(
                        _zero(family, n, m) + _positive(family, n, m),
                        key=tree_sort_key)), (family, n, m)
    finally:
        _clear()


def test_counts_match_the_counting_twin():
    try:
        for family in FAMILIES:
            for n in range(1, 15):
                for m in range(15):
                    assert count_trees(family, n, m) == \
                        _count_zero(family, n, m) + _count_positive(family, n, m), \
                        (family, n, m)
    finally:
        _clear()


def test_edge_bidegrees_match_the_reference():
    # Zero, negative and leaf-only bidegrees, where the grammar's base
    # cases stand.
    try:
        for family in FAMILIES:
            for n in range(-2, 3):
                for m in range(-2, 3):
                    assert enumerate_zero_root(family, n, m) == _zero(family, n, m)
                    assert enumerate_positive_root(family, n, m) == \
                        _positive(family, n, m)
                    expected = _count_zero(family, n, m) + _count_positive(family, n, m)
                    assert count_trees(family, n, m) == expected, (family, n, m)
    finally:
        _clear()


def test_planar_trees_match_the_fixed_size_forests_in_order():
    try:
        for leaves in range(1, 9):
            for nodes in range(leaves + 1):
                assert planar_trees(leaves - 1, nodes) == \
                    _planar_by_size(leaves, nodes), (leaves, nodes)
    finally:
        _clear()
