"""Split products on planar trees and the embeddings into tree algebras."""

import itertools
import random

from baxtertrees.baxter_core import LinComb, lower_root
from baxtertrees.counting import catalan, dim_formula
from baxtertrees.dendriform import (
    _seam,
    _star,
    dend_op,
    dt_dim,
    embed_dialgebra,
    embed_trialgebra,
    rb_dendriform,
)
from baxtertrees.errors import DomainError
from baxtertrees.paths import restore_angles
from baxtertrees.scalars import LAMBDA, ONE, LambdaPoly
from baxtertrees.trees import (
    Family,
    INF,
    LEAF,
    Node,
    PTree,
    binary_trees,
    enumerate_trees,
    parse_planar,
    parse_tree,
    planar_trees,
)

import pytest

FI2 = Family(INF, 2)
F22 = Family(2, 2)

p = parse_planar
t = parse_tree


def planar_pool(max_leaves):
    out = []
    for n in range(1, max_leaves):
        for m in range(1, n + 1):
            out.extend(planar_trees(n, m))
    return out


# -- free operations --------------------------------------------------------

def test_worked_operations():
    a = p("((. .) .)")
    b = p("(. .)")
    assert dend_op("trialgebra", "left", a, b) == LinComb(p("((. .) (. .))"))
    assert dend_op("trialgebra", "right", a, b) == LinComb(p("(((. .) .) .)"))
    assert dend_op("trialgebra", "dot", a, b) == LinComb(p("((. .) . .)"))


def test_star_sums_the_parts_with_weight():
    a, b = p("(. .)"), p("(. . .)")
    parts = (
        dend_op("trialgebra", "left", a, b)
        + dend_op("trialgebra", "right", a, b)
        + dend_op("trialgebra", "dot", a, b).scale(LAMBDA)
    )
    assert dend_op("trialgebra", "star", a, b) == parts


def test_leaf_is_only_a_star_unit():
    a = p("(. .)")
    assert dend_op("trialgebra", "star", LEAF, a) == LinComb(a)
    with pytest.raises(DomainError):
        dend_op("trialgebra", "left", LEAF, a)


def test_dialgebra_has_no_middle():
    a = p("(. .)")
    with pytest.raises(DomainError):
        dend_op("dialgebra", "dot", a, a)
    with pytest.raises(DomainError):
        dend_op("dialgebra", "left", p("(. . .)"), a)


def test_bad_basis_element_reported_first_in_display_order():
    # The leaf comes first in the combination but last in display order.
    mixed = LinComb.of(LEAF) + LinComb.of(p("(. . .)"))
    b = p("(. .)")
    with pytest.raises(DomainError, match="^dialgebra basis elements must be binary trees$"):
        dend_op("dialgebra", "left", mixed, b)
    with pytest.raises(DomainError, match="^dialgebra basis elements must be binary trees$"):
        dend_op("dialgebra", "star", b, mixed)
    with pytest.raises(DomainError, match="^the bare leaf is only a unit for star$"):
        dend_op("trialgebra", "right", b, mixed)


def test_decorated_tree_is_not_a_planar_basis_element():
    a, d = p("(. .)"), t("1(. 1 .)")
    mixed = LinComb.of(p("((. .) .)")) + LinComb.of(d) + LinComb.of(a)
    for variant in ("trialgebra", "dialgebra"):
        for op in ("left", "star"):
            for x, y in ((d, a), (a, d), (mixed, a), (a, mixed)):
                with pytest.raises(DomainError,
                                   match="^expected a planar tree basis element$"):
                    dend_op(variant, op, x, y)


def bad_argument_pairs():
    """Pairs of dend_op arguments with one bad element or more, by
    variant and operation; the first argument is checked first."""
    a, d, wide = p("(. .)"), t("1(. 1 .)"), p("(. . .)")
    for variant in ("trialgebra", "dialgebra"):
        yield variant, "left", LEAF, a
        yield variant, "right", a, LEAF
        yield variant, "left", d, LEAF
        yield variant, "star", LEAF, d
    yield "dialgebra", "left", wide, LEAF
    yield "dialgebra", "star", a, wide
    yield "dialgebra", "right", LEAF, wide
    yield "dialgebra", "star", d, wide


def error_text(f, *args):
    with pytest.raises(DomainError) as info:
        f(*args)
    return str(info.value)


def expected_error(variant, op, e):
    """The error dend_op reports for the element e, or None."""
    if e.is_leaf:
        return None if op == "star" else "the bare leaf is only a unit for star"
    if not isinstance(e, PTree):
        return "expected a planar tree basis element"
    if variant == "dialgebra" and len(e.children) != 2:
        return "dialgebra basis elements must be binary trees"
    return None


def test_bare_trees_act_as_one_term_combinations():
    for variant, pool, ops in variant_cases():
        pool = pool[:12] + [LEAF]
        for op in ops:
            for x, y in itertools.product(pool, repeat=2):
                if op != "star" and (x.is_leaf or y.is_leaf):
                    continue
                wrapped = dend_op(variant, op, LinComb.of(x), LinComb.of(y))
                assert dend_op(variant, op, x, y) == wrapped
                assert dend_op(variant, op, LinComb.of(x), y) == wrapped
                assert dend_op(variant, op, x, LinComb.of(y)) == wrapped


def test_bad_bare_trees_give_the_errors_of_their_one_term_combinations():
    for variant, op, x, y in bad_argument_pairs():
        texts = {error_text(dend_op, variant, op, u, v)
                 for u in (x, LinComb.of(x)) for v in (y, LinComb.of(y))}
        expected = expected_error(variant, op, x) or expected_error(variant, op, y)
        assert texts == {expected}, (variant, op, x, y)


# -- the stored seams of star ------------------------------------------------

class StoreLog(dict):
    """A coefficient dict that logs every tree stored into it or removed
    from it, so a tree that a seam meets twice is logged twice."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, tree, c):
        self.log.append(tree)
        super().__setitem__(tree, c)

    def __delitem__(self, tree):
        self.log.append(tree)
        super().__delitem__(tree)


def test_star_seams_are_disjoint_and_repeat_no_tree():
    # _star puts its left, right and dot seams into one dict, and no term
    # merges there only because no tree occurs twice among them.
    cases = (("trialgebra", planar_pool(5), ("left", "right", "dot")),
             ("dialgebra", [bt for n in range(1, 6) for bt in binary_trees(n)],
              ("left", "right")))
    for variant, pool, ops in cases:
        assert len(pool) == {"trialgebra": 60, "dialgebra": 64}[variant]
        for x, y in itertools.product(pool, repeat=2):
            seams = [StoreLog() for _ in ops]
            for seam, op in zip(seams, ops):
                _seam(seam, variant, op, x, y, ONE)
            trees = [tree for seam in seams for tree in seam.log]
            assert len(set(trees)) == len(trees), (variant, str(x), str(y))
            merged = LinComb(seams[0].items()) + LinComb(seams[1].items())
            if variant == "trialgebra":
                merged = merged + LinComb(seams[2].items()).scale(LAMBDA)
            assert _star(variant, x, y) == merged


# -- the operations against the recursion written out -----------------------

def reference_star(variant, x, y):
    if x.is_leaf:
        return LinComb.of(y)
    if y.is_leaf:
        return LinComb.of(x)
    out = reference_left(variant, x, y) + reference_right(variant, x, y)
    if variant == "trialgebra":
        out = out + reference_dot(variant, x, y).scale(LAMBDA)
    return out


def reference_seam(middle, head, tail):
    return middle.map(lambda tree: PTree(head + (tree,) + tail))


def reference_left(variant, x, y):
    return reference_seam(reference_star(variant, x.children[-1], y),
                          x.children[:-1], ())


def reference_right(variant, x, y):
    return reference_seam(reference_star(variant, x, y.children[0]),
                          (), y.children[1:])


def reference_dot(variant, x, y):
    return reference_seam(reference_star(variant, x.children[-1], y.children[0]),
                          x.children[:-1], y.children[1:])


REFERENCE = {"left": reference_left, "right": reference_right,
             "dot": reference_dot, "star": reference_star}


def reference_op(variant, op, u, v):
    """The bilinear extension as a plain sum of scaled basis products."""
    out = LinComb()
    for x, cx in u.terms.items():
        for y, cy in v.terms.items():
            out = out + REFERENCE[op](variant, x, y).scale(cx * cy)
    return out


def variant_cases():
    """Each variant with its trees of at most four (planar) or five
    (binary) leaves and its operations."""
    yield "trialgebra", planar_pool(4), ("left", "right", "dot", "star")
    yield ("dialgebra", [bt for n in range(1, 5) for bt in binary_trees(n)],
           ("left", "right", "star"))


def test_operations_match_the_reference_recursion():
    for variant, pool, ops in variant_cases():
        for x, y in itertools.product(pool, repeat=2):
            u, v = LinComb.of(x), LinComb.of(y)
            for op in ops:
                assert dend_op(variant, op, x, y) == reference_op(variant, op, u, v), \
                    (variant, op, str(x), str(y))


def cancelling_combs(variant, op, pool):
    """Combinations ``u``, ``v`` and a tree ``e`` that occurs in two
    basis products of their terms and cancels in the sum."""
    found = {}
    for x, y in itertools.product(pool, repeat=2):
        for e, c in REFERENCE[op](variant, x, y).terms.items():
            found.setdefault(e, []).append((x, y, c))
    for e, hits in found.items():
        for (x1, y1, c1), (x2, y2, c2) in itertools.combinations(hits, 2):
            if x1 == x2:
                continue
            u = LinComb([(x1, c2), (x2, -c1)])
            v = LinComb([(y1, ONE), (y2, ONE)])
            if e not in reference_op(variant, op, u, v).terms:
                return u, v, e
    raise AssertionError(f"no two {op} products cancel")


def test_operations_on_combinations_match_the_reference_sum():
    rng = random.Random(20101)
    values = [ONE, -ONE, LAMBDA, -LAMBDA, LambdaPoly((2, -1))]
    for variant, pool, ops in variant_cases():
        for op in ops:
            for _ in range(20):
                u = LinComb([(rng.choice(pool), rng.choice(values)) for _ in range(3)])
                v = LinComb([(rng.choice(pool), rng.choice(values)) for _ in range(3)])
                assert dend_op(variant, op, u, v) == reference_op(variant, op, u, v), \
                    (variant, op, str(u), str(v))
            u, v, e = cancelling_combs(variant, op, pool)
            got = dend_op(variant, op, u, v)
            assert e not in got.terms
            assert got == reference_op(variant, op, u, v), (variant, op, str(u), str(v))


def test_trialgebra_axioms_small():
    pool = planar_pool(4)  # up to 3 leaves
    lt = lambda x, y: dend_op("trialgebra", "left", x, y)
    rt = lambda x, y: dend_op("trialgebra", "right", x, y)
    dt = lambda x, y: dend_op("trialgebra", "dot", x, y)
    st = lambda x, y: dend_op("trialgebra", "star", x, y)
    for a, b, c in itertools.product(pool, repeat=3):
        assert lt(lt(a, b), c) == lt(a, st(b, c))
        assert lt(rt(a, b), c) == rt(a, lt(b, c))
        assert rt(st(a, b), c) == rt(a, rt(b, c))
        assert lt(dt(a, b), c) == dt(a, lt(b, c))
        assert dt(lt(a, b), c) == dt(a, rt(b, c))
        assert dt(rt(a, b), c) == rt(a, dt(b, c))
        assert dt(dt(a, b), c) == dt(a, dt(b, c))


def test_star_is_associative():
    pool = planar_pool(4)
    for a, b, c in itertools.product(pool, repeat=3):
        lhs = dend_op("trialgebra", "star", dend_op("trialgebra", "star", a, b), c)
        rhs = dend_op("trialgebra", "star", a, dend_op("trialgebra", "star", b, c))
        assert lhs == rhs


def test_dialgebra_axioms_small():
    pool = [u for u in binary_trees(1) + binary_trees(2)]
    lt = lambda x, y: dend_op("dialgebra", "left", x, y)
    rt = lambda x, y: dend_op("dialgebra", "right", x, y)
    for a, b, c in itertools.product(pool, repeat=3):
        assert lt(lt(a, b), c) == lt(a, lt(b, c)) + lt(a, rt(b, c))
        assert rt(a, rt(b, c)) == rt(rt(a, b), c) + rt(lt(a, b), c)
        assert lt(rt(a, b), c) == rt(a, lt(b, c))


# -- operator-induced operations -------------------------------------------

def test_rb_split_reconstitutes_star_product():
    pool = [tree for n in (1, 2) for m in (1, 2) for tree in enumerate_trees(FI2, n, m)]
    for a, b in itertools.product(pool, repeat=2):
        total = (
            rb_dendriform(FI2, "left", a, b)
            + rb_dendriform(FI2, "right", a, b)
            + rb_dendriform(FI2, "dot", a, b).scale(LAMBDA)
        )
        assert total == rb_dendriform(FI2, "star", a, b)


def test_rb_operations_satisfy_trialgebra_axioms():
    pool = [tree for tree in enumerate_trees(F22, 1, 1) + enumerate_trees(F22, 2, 1)]
    lt = lambda x, y: rb_dendriform(F22, "left", x, y)
    rt = lambda x, y: rb_dendriform(F22, "right", x, y)
    dt_ = lambda x, y: rb_dendriform(F22, "dot", x, y)
    st_ = lambda x, y: rb_dendriform(F22, "star", x, y)
    for a, b, c in itertools.product(pool, repeat=3):
        assert lt(lt(a, b), c) == lt(a, st_(b, c))
        assert rt(a, rt(b, c)) == rt(st_(a, b), c)
        assert dt_(dt_(a, b), c) == dt_(a, dt_(b, c))


def test_rb_rejects_unit_tree():
    with pytest.raises(DomainError):
        rb_dendriform(FI2, "left", LEAF, t("1(. 1 .)"))


def test_rb_bare_trees_act_as_one_term_combinations():
    for family in (F22, FI2):
        pool = [tree for n in (1, 2) for m in (1, 2)
                for tree in enumerate_trees(family, n, m)]
        for op in ("left", "right", "dot", "star"):
            for x, y in itertools.product(pool, repeat=2):
                wrapped = rb_dendriform(family, op, LinComb.of(x), LinComb.of(y))
                assert rb_dendriform(family, op, x, y) == wrapped
                assert rb_dendriform(family, op, LinComb.of(x), y) == wrapped
                assert rb_dendriform(family, op, x, LinComb.of(y)) == wrapped
    a = t("1(. 1 .)")
    for x, y in ((LEAF, a), (a, LEAF), (LEAF, LEAF)):
        texts = {error_text(rb_dendriform, FI2, "left", u, v)
                 for u in (x, LinComb.of(x)) for v in (y, LinComb.of(y))}
        assert texts == {"the unit tree is not in the non-unital algebra"}


# -- embeddings -------------------------------------------------------------

def test_embedding_known_images():
    assert embed_trialgebra(p("(. . .)")) == LinComb(t("0(. 2 .)"))
    assert embed_trialgebra(p("((. .) .)")) == LinComb(t("0(1(. 1 .) 1 .)"))
    assert embed_dialgebra(p("((. .) .)")) == LinComb(t("0(1(. 1 .) 1 .)"))


def test_trialgebra_embedding_is_injective_morphism():
    pool = planar_pool(5)
    images = {str(embed_trialgebra(u)) for u in pool}
    assert len(images) == len(pool)
    for a, b in itertools.product(planar_pool(4), repeat=2):
        for op in ("left", "right", "dot"):
            lhs = embed_trialgebra(dend_op("trialgebra", op, a, b))
            rhs = rb_dendriform(FI2, op, embed_trialgebra(a), embed_trialgebra(b))
            assert lhs == rhs


def test_dialgebra_embedding_is_injective_morphism_at_weight_zero():
    pool = [u for k in (1, 2, 3) for u in binary_trees(k)]
    images = {str(embed_dialgebra(u)) for u in pool}
    assert len(images) == len(pool)
    small = [u for k in (1, 2) for u in binary_trees(k)]
    for a, b in itertools.product(small, repeat=2):
        for op in ("left", "right"):
            lhs = embed_dialgebra(dend_op("dialgebra", op, a, b))
            rhs = rb_dendriform(F22, op, embed_dialgebra(a), embed_dialgebra(b))
            assert lhs == rhs.eval_weight(0)


def reference_restore(pt):
    """Angle labels read off index lists of the children that stay."""
    kids = pt.children
    last = len(kids) - 1
    real = [0] + [k for k in range(1, last) if not kids[k].is_leaf] + [last]
    children = [LEAF if kids[k].is_leaf else reference_restore(kids[k]) for k in real]
    angles = [b - a for a, b in zip(real, real[1:])]
    return Node(1, children, angles)


def test_restore_and_embedding_match_the_index_list_reference():
    pool = planar_pool(6)
    assert len(pool) == 1 + 3 + 11 + 45 + 197
    for pt in pool:
        want = reference_restore(pt)
        assert restore_angles(pt) == want, str(pt)
        assert embed_trialgebra(pt) == LinComb(lower_root(want)), str(pt)


def test_embedding_rejects_bad_input():
    with pytest.raises(DomainError):
        embed_trialgebra(LEAF)
    with pytest.raises(DomainError):
        embed_dialgebra(p("(. . .)"))


@pytest.mark.parametrize("embed", [embed_trialgebra, embed_dialgebra])
def test_embeddings_reject_a_decorated_tree(embed):
    for text in ("1(. 1 .)", "0(. 1 .)"):
        decorated = parse_tree(text)
        for x in (decorated, LinComb(decorated), LinComb(p("(. .)")) + LinComb(decorated)):
            with pytest.raises(DomainError, match="^expected a planar tree basis element$"):
                embed(x)
    with pytest.raises(DomainError, match="^the bare leaf has no decorated image$"):
        embed(LEAF)


# -- dimensions -------------------------------------------------------------

def test_dt_dim_counts_planar_trees():
    for n in range(1, 7):
        for m in range(1, n + 1):
            assert dt_dim(n, m) == len(planar_trees(n, m))


def test_free_tree_dimension_is_a_planar_pair_sum():
    # Each bigraded component of the free-angle tree algebra splits as
    # planar counts with m and with m + 1 internal nodes.
    for n in range(1, 7):
        for m in range(n + 1):
            assert dim_formula(FI2, n, m) == dt_dim(n, m) + dt_dim(n, m + 1)


def test_binary_trees_realize_catalan_bound():
    for n in range(1, 8):
        assert len(binary_trees(n)) == catalan(n)
        assert catalan(n) <= n * catalan(n - 1)
