"""Linear combinations, the distinguished operator, products, morphisms."""

import gc
import itertools
import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from baxtertrees import baxter_core, dendriform, trees
from baxtertrees.baxter_core import (
    LinComb,
    addmul,
    beta,
    beta_lc,
    circle,
    circle_lc,
    circle_power,
    decompose,
    degraft,
    generator,
    graft,
    lower_root,
    morphism,
    morphism_lc,
    parse_lincomb,
    raise_root,
    recompose,
    star,
    star_lc,
    tree_lincomb_parser,
)
from baxtertrees.errors import DomainError, ParseError
from baxtertrees.scalars import LAMBDA, ONE, ZERO, LambdaPoly
from baxtertrees.trees import (
    FAMILIES,
    LEAF,
    Family,
    INF,
    Node,
    bidegree,
    enumerate_trees,
    is_binary,
    is_valid,
    parse_tree,
    planar_trees,
    read_tree,
    with_root_label,
)

import pytest

F22 = Family(2, 2)
F2I = Family(2, INF)
FI2 = Family(INF, 2)
FII = Family(INF, INF)

t = parse_tree


def small_trees(family, top):
    out = []
    for n in range(1, top + 1):
        for m in range(top + 1):
            out.extend(enumerate_trees(family, n, m))
    return out


small_combs = st.builds(
    lambda coeffs: LinComb(dict(zip(small_trees(FI2, 2), map(LambdaPoly.const, coeffs)))),
    st.lists(st.integers(-4, 4), min_size=9, max_size=9),
)


# -- linear combinations ----------------------------------------------------

def test_lincomb_zero_terms_drop():
    a = LinComb.of(t("1(. 1 .)"), 2) + LinComb.of(t("1(. 1 .)"), -2)
    assert a == LinComb()
    assert not a.terms


def test_lincomb_display_order():
    a = LinComb.of(t("1(. 1 .)")) + LinComb.of(t("1(. 1 1(. 1 .))"), LAMBDA)
    assert str(a) == "l*1(. 1 1(. 1 .)) + 1(. 1 .)"
    assert str(LinComb()) == "0"


def test_lincomb_built_from_a_mapping_an_element_or_pairs():
    a, b = t("1(. 1 .)"), t("1(. 2 .)")
    two_l = LambdaPoly((0, 2))
    assert LinComb({a: 3, b: two_l}).terms == {a: LambdaPoly.const(3), b: two_l}
    assert LinComb(a).terms == {a: ONE}
    assert LinComb([(a, 3), (b, two_l)]) == LinComb({a: 3, b: two_l})
    assert LinComb(iter([(b, LAMBDA)])).terms == {b: LAMBDA}
    assert LinComb().terms == {}


def test_lincomb_construction_drops_zeros_and_merges_repeats():
    a, b = t("1(. 1 .)"), t("1(. 2 .)")
    assert LinComb({a: 0, b: ZERO}).terms == {}
    assert LinComb([(a, 0), (b, 1)]).terms == {b: ONE}
    assert LinComb([(a, 2), (b, LAMBDA), (a, LAMBDA)]).terms == {
        a: LambdaPoly((2, 1)), b: LAMBDA}
    assert LinComb([(a, LAMBDA), (a, -LAMBDA)]).terms == {}
    assert LinComb([(a, 1), (a, -1), (a, 0), (a, 5)]).terms == {a: LambdaPoly.const(5)}


def test_lincomb_rejects_a_coefficient_that_is_no_polynomial():
    a = t("1(. 1 .)")
    message = "coefficient 1.5 is not a weight polynomial"
    with pytest.raises(TypeError) as info:
        LinComb([(a, 1.5)])
    assert str(info.value) == message
    with pytest.raises(TypeError) as info:
        LinComb({a: 1.5})
    assert str(info.value) == message
    with pytest.raises(TypeError) as info:
        LinComb.of(a, 1.5)
    assert str(info.value) == message
    with pytest.raises(TypeError) as info:
        LinComb.of(a).scale(1.5)
    assert str(info.value) == message
    with pytest.raises(TypeError) as info:
        LinComb.of(a) * 1.5
    assert str(info.value) == message
    with pytest.raises(TypeError) as info:
        LinComb.of(a, "l")
    assert str(info.value) == "coefficient 'l' is not a weight polynomial"


def test_parse_lincomb_round_trip():
    text = "2*1(. 2 .) - l*1(. 1 .) + (l^2 + 1)*0(. 1 .)"
    a = parse_lincomb(text, read_tree)
    assert tree_lincomb_parser(str(a)) == a
    with pytest.raises(ParseError):
        parse_lincomb("1(. 1 .) +", read_tree)


@given(small_combs, small_combs)
def test_lincomb_addition_commutes(a, b):
    assert a + b == b + a


@given(small_combs)
def test_eval_weight_kills_lambda(a):
    b = a.scale(LAMBDA).eval_weight(3)
    c = a.eval_weight(3).scale(3)
    assert b == c


# -- graft / degraft --------------------------------------------------------

def test_graft_degraft_round_trip():
    for family in FAMILIES:
        for tree in small_trees(family, 3):
            pieces, angles = degraft(tree)
            assert graft(family, pieces, angles) == tree


def test_degraft_splits_only_root_zero():
    pieces, angles = degraft(t("0(. 2 1(. 1 .) 3 .)"))
    assert pieces == (LEAF, t("1(. 1 .)"), LEAF)
    assert angles == (2, 3)
    # A positive root is a single block.
    assert degraft(t("1(. 2 .)")) == ((t("1(. 2 .)"),), ())


def test_graft_merges_interior_leaves():
    got = graft(FII, (t("1(. 1 .)"), LEAF, t("1(. 1 .)")), (2, 3))
    assert got == t("0(1(. 1 .) 5 1(. 1 .))")
    got = graft(F22, (t("1(. 1 .)"), LEAF, t("1(. 1 .)")), (1, 1))
    assert got == t("0(1(. 1 .) 1 1(. 1 .))")


def test_root_label_shift():
    x = t("1(. 1 .)")
    assert raise_root(x) == t("2(. 1 .)")
    assert lower_root(raise_root(x)) == x
    with pytest.raises(DomainError):
        lower_root(t("0(. 1 .)"))


# -- operator ---------------------------------------------------------------

def test_operator_raises_free_labels():
    assert beta(FII, t("1(. 1 .)")) == LinComb.of(t("2(. 1 .)"))
    assert beta(FII, t("0(. 2 .)")) == LinComb.of(t("1(. 2 .)"))


def test_operator_quasi_idempotent_when_labels_forced():
    x = t("1(. 1 .)")
    bx = beta(FI2, x)
    assert bx == LinComb.of(x, -LAMBDA)
    assert beta_lc(FI2, bx) == bx.scale(-LAMBDA)


def test_operator_law_examples():
    # b(a) * b(b) = b(b(a) . b + a . b(b) + l a . b) in every family.
    for family in FAMILIES:
        for a, b in itertools.product(small_trees(family, 2), repeat=2):
            lhs = circle_lc(family, beta(family, a), beta(family, b))
            rhs = beta_lc(family, star(family, a, b))
            assert lhs == rhs, (family, a, b)


def test_generator_idempotent_only_with_forced_angles():
    g = generator(F22)
    assert circle(F22, g, g) == LinComb.of(g)
    assert circle_power(F22, g, 5) == LinComb.of(g)
    h = generator(FII)
    assert circle(FII, h, h) == LinComb.of(t("0(. 2 .)"))


def test_product_grading():
    # Node degree plus l-degree of the coefficient is additive under the
    # multiplication and one higher under the double product; the angle
    # degree is additive whenever angle labels are free.
    for family in FAMILIES:
        for a, b in itertools.product(small_trees(family, 2), repeat=2):
            na, ma = bidegree(a)
            nb, mb = bidegree(b)
            for tree, coeff in circle(family, a, b).terms.items():
                n, m = bidegree(tree)
                assert m + coeff.degree == ma + mb
                if family.i != 2:
                    assert n == na + nb
            for tree, coeff in star(family, a, b).terms.items():
                n, m = bidegree(tree)
                assert m + coeff.degree == ma + mb + 1
                if family.i != 2:
                    assert n == na + nb


def test_star_unit_is_leaf():
    x = t("1(. 2 .)")
    assert star(FI2, LEAF, x) == LinComb.of(x)
    assert star(FI2, x, LEAF) == LinComb.of(x)


def test_worked_product():
    got = circle(FI2, t("1(. 2 .)"), t("1(. 3 .)"))
    assert str(got) == "1(1(. 2 .) 3 .) + 1(. 2 1(. 3 .)) + l*1(. 5 .)"


def test_products_stay_in_basis():
    for family in FAMILIES:
        for a, b in itertools.product(small_trees(family, 2), repeat=2):
            for tree in circle(family, a, b).support():
                assert is_valid(family, tree)
            for tree in star(family, a, b).support():
                assert is_valid(family, tree)


@settings(max_examples=25)
@given(small_combs, small_combs, small_combs)
def test_product_is_bilinear(a, b, c):
    lhs = circle_lc(FI2, a + b, c)
    assert lhs == circle_lc(FI2, a, c) + circle_lc(FI2, b, c)
    rhs = circle_lc(FI2, c, a + b)
    assert rhs == circle_lc(FI2, c, a) + circle_lc(FI2, c, b)


# -- morphisms --------------------------------------------------------------

def test_morphism_needs_quotient_direction():
    with pytest.raises(DomainError):
        morphism(F22, FII, t("1(. 1 .)"))


def test_morphism_worked_example():
    src = t("0(. 4 1(. 2 .) 1 1(. 5 .))")
    got = morphism(FII, F22, src)
    assert got == LinComb.of(t("0(. 1 1(. 1 .) 1 1(. 1 .))"))


def test_morphism_collapses_node_labels_to_weights():
    got = morphism(FII, F2I, t("1(. 3 .)"))
    assert got == LinComb.of(t("1(. 1 .)"))
    got = morphism(FII, FI2, t("2(. 1 .)"))
    assert got == LinComb.of(t("1(. 1 .)"), -LAMBDA)


def test_every_projection_fixes_the_unit_tree():
    for src, dst in ((FII, F2I), (FII, FI2), (FII, F22), (F2I, F22), (FI2, F22)):
        assert morphism(src, dst, LEAF) == LinComb.of(LEAF)


def test_weight_powers_match_repeated_multiplication():
    # (-l)^k is built as one monomial; it must equal the power.
    base = t("0(. 1 .)")
    for family in (F22, FI2):
        for k in range(7):
            tree, coeff = baxter_core._beta_term(family, with_root_label(base, k))
            assert tree is with_root_label(base, 1)
            assert coeff == (-LAMBDA) ** k, (family, k)
    for label in (40, 41):
        got = morphism(FII, FI2, with_root_label(base, label))
        assert got == LinComb.of(with_root_label(base, 1), (-LAMBDA) ** (label - 1))


def test_morphism_respects_operator_and_product():
    for a in small_trees(FII, 2):
        assert morphism_lc(FII, F22, beta(FII, a)) == beta_lc(F22, morphism(FII, F22, a))
    for a, b in itertools.product(small_trees(FII, 2), repeat=2):
        lhs = morphism_lc(FII, F22, circle(FII, a, b))
        rhs = circle_lc(F22, morphism(FII, F22, a), morphism(FII, F22, b))
        assert lhs == rhs


def test_morphism_diamond_commutes():
    for a in small_trees(FII, 2):
        via_i = morphism_lc(F2I, F22, morphism(FII, F2I, a))
        via_j = morphism_lc(FI2, F22, morphism(FII, FI2, a))
        assert via_i == via_j


# -- decomposition ----------------------------------------------------------

def test_decompose_recompose_identity():
    for family in FAMILIES:
        for tree in small_trees(family, 3):
            power, pieces, angles = decompose(tree)
            assert recompose(family, power, pieces, angles) == LinComb.of(tree)


def test_decompose_reads_off_the_root():
    power, pieces, angles = decompose(t("2(1(. 1 .) 3 .)"))
    assert power == 2
    assert pieces == (t("1(. 1 .)"), LEAF)
    assert angles == (3,)
    with pytest.raises(DomainError):
        decompose(LEAF)


# -- the accumulation kernel ------------------------------------------------

def reference_bilinear(op, u, v):
    """The bilinear extension as a plain sum of scaled products."""
    out = LinComb()
    for x, cx in u.terms.items():
        for y, cy in v.terms.items():
            out = out + op(x, y).scale(cx * cy)
    return out


def small_planar(top):
    return [pt for n in range(1, top + 1) for m in range(1, n + 1)
            for pt in planar_trees(n, m)]


def kernel_cases():
    """Basis products with a pool of basis elements to combine."""
    for family in FAMILIES:
        pool = small_trees(family, 2)
        yield (lambda x, y, f=family: circle(f, x, y),
               lambda u, v, f=family: circle_lc(f, u, v), pool)
        yield (lambda x, y, f=family: star(f, x, y),
               lambda u, v, f=family: star_lc(f, u, v), pool)
    planar = small_planar(3)
    for variant, pool, ops in (
            ("trialgebra", planar, ("left", "right", "dot", "star")),
            ("dialgebra", [pt for pt in planar if is_binary(pt)], ("left", "right", "star"))):
        for op in ops:
            def fn(a, b, v=variant, o=op):
                return dendriform.dend_op(v, o, a, b)
            yield fn, fn, pool


def random_comb(rng, pool):
    """A few terms with coefficients from a small set, plus one tree
    given as ``c`` and ``-c``, which must cancel."""
    values = [ONE, -ONE, LAMBDA, -LAMBDA, LambdaPoly((2, -1))]
    pairs = [(rng.choice(pool), rng.choice(values)) for _ in range(rng.randint(1, 4))]
    gone, c = rng.choice(pool), rng.choice(values)
    return LinComb(pairs + [(gone, c), (gone, -c)])


def cancelling_combs(op, pool):
    """Combinations ``u``, ``v`` and a tree ``e`` that occurs in two of
    the basis products of their terms and cancels in the sum."""
    pairs = itertools.product(pool, repeat=2)
    for (x1, y1), (x2, y2) in itertools.permutations(pairs, 2):
        if x1 == x2:
            continue
        p1, p2 = op(x1, y1), op(x2, y2)
        for e in p1.terms.keys() & p2.terms.keys():
            u = LinComb([(x1, p2.coeff(e)), (x2, -p1.coeff(e))])
            v = LinComb([(y1, ONE), (y2, ONE)])
            if e not in reference_bilinear(op, u, v).terms:
                return u, v, e
    raise AssertionError("no two products cancel")


def test_addmul_drops_zeros_on_collision_and_when_fresh():
    a, b = t("1(. 1 .)"), t("1(. 2 .)")
    acc = {a: LambdaPoly.const(2)}
    terms = {a: ONE}
    addmul(acc, terms.items(), LambdaPoly.const(-2))
    assert acc == {}
    assert terms == {a: ONE}
    addmul(acc, [(b, ZERO)], ONE)
    addmul(acc, [(b, ZERO)], LAMBDA)
    addmul(acc, [(b, ONE)], ZERO)
    assert acc == {}
    acc = {a: LAMBDA}
    addmul(acc, [(a, ONE), (b, LAMBDA)], ZERO)
    assert acc == {a: LAMBDA}


def test_bilinear_products_match_the_reference_sum():
    rng = random.Random(20051)
    for op, op_lc, pool in kernel_cases():
        for _ in range(12):
            u, v = random_comb(rng, pool), random_comb(rng, pool)
            assert op_lc(u, v) == reference_bilinear(op, u, v)
        u, v, e = cancelling_combs(op, pool)
        got = op_lc(u, v)
        assert e not in got.terms
        assert got == reference_bilinear(op, u, v)


def test_products_take_a_bare_tree_on_either_side():
    for family in FAMILIES:
        pool = small_trees(family, 2)
        for op_lc in (circle_lc, star_lc):
            for x, y in itertools.product(pool, repeat=2):
                wrapped = op_lc(family, LinComb.of(x), LinComb.of(y))
                assert op_lc(family, x, y) == wrapped
                assert op_lc(family, LinComb.of(x), y) == wrapped
                assert op_lc(family, x, LinComb.of(y)) == wrapped
    g = generator(FAMILIES[0])
    assert circle_power(FAMILIES[0], g, 3) == circle_lc(
        FAMILIES[0], circle(FAMILIES[0], g, g), g)


def test_memoized_results_are_never_mutated():
    # lru_cache hands one result object to every caller, so the kernel
    # may read a memoized combination but never write into it.
    pool = small_trees(FI2, 2)
    planar = small_planar(3)
    g = generator(FI2)
    memos = [(circle, FI2, a, b) for a in pool for b in pool]
    memos += [(star, FI2, a, b) for a in pool for b in pool]
    memos += [(dendriform._star, "trialgebra", x, y) for x in planar for y in planar]
    results = [fn(*args) for fn, *args in memos]
    snapshots = [dict(r.terms) for r in results]
    trees = [r for (fn, *_), r in zip(memos, results) if fn is not dendriform._star]
    for r, s in zip(trees[::7], trees[1::7]):
        circle_lc(FI2, r, s)
        star_lc(FI2, r, s)
        r.apply(lambda e: circle(FI2, e, g))
    for r in trees:
        r.map(raise_root)
        r.map(lambda e: g)
    planars = results[len(trees):]
    for r, s in zip(planars[::5], planars[1::5]):
        dendriform.dend_op("trialgebra", "star", r, s)
        r.apply(lambda e: dendriform._star("trialgebra", e, e))
    for r in planars:
        r.map(lambda e: e)
        r.map(lambda e: planar[0])
    for r, s in zip(results, results[1:]):
        r + s
    for (fn, *args), r, before in zip(memos, results, snapshots):
        assert fn(*args) is r
        assert r.terms == before


# -- the basis-map kernel ---------------------------------------------------

def test_map_matches_apply_of_one_term_images():
    rng = random.Random(20061)
    pool = small_trees(FI2, 2)
    planar = small_planar(3)
    cases = [
        (pool, raise_root),
        (pool, lambda e: with_root_label(e, 0)),  # merges root labels
        (pool, lambda e: pool[len(str(e)) % 3]),  # merges almost everything
        (planar, lambda e: e.children[0]),
    ]
    for elems, f in cases:
        for _ in range(20):
            u = random_comb(rng, elems)
            assert u.map(f) == u.apply(lambda e: LinComb.of(f(e)))


def test_map_adds_colliding_images_and_drops_a_zero_sum():
    a, b, c, d = t("1(. 1 .)"), t("2(. 1 .)"), t("1(. 2 .)"), t("3(. 1 .)")
    merge = {a: c, b: c, c: a, d: c}.__getitem__
    v = LinComb([(a, LAMBDA), (b, -LAMBDA), (c, ONE)])
    assert v.map(merge).terms == {a: ONE}
    w = LinComb([(a, ONE), (b, -ONE), (d, LAMBDA)])  # cancels, then returns
    assert w.map(merge).terms == {c: LAMBDA}
    assert LinComb([(a, LAMBDA), (b, ONE)]).map(merge).terms == {c: LAMBDA + ONE}
    assert LinComb([(a, ONE), (b, -ONE)]).map(merge).is_zero
    assert LinComb().map(merge).is_zero


# -- the operator inside the products ---------------------------------------

def trees_up_to(family, total):
    """The basis trees with node degree plus angle degree at most ``total``."""
    return [x for n in range(1, total + 1) for m in range(total + 1 - n)
            for x in enumerate_trees(family, n, m)]


def reference_beta(family, x):
    """The operator as a one-term combination, written out anew."""
    if x.is_leaf:
        return LinComb.of(x)
    if family.j == 2:
        return LinComb.of(with_root_label(x, 1), (-LAMBDA) ** x.label)
    return LinComb.of(with_root_label(x, x.label + 1))


def reference_circle(family, a, b):
    """The multiplication as a composition of whole combinations: the
    operator applied to the double product of the meeting pieces, then
    every term grafted back between the remaining pieces."""
    a_pieces, a_angles = degraft(a)
    b_pieces, b_angles = degraft(b)
    meet = star(family, lower_root(a_pieces[-1]), lower_root(b_pieces[0]))
    middle = meet.apply(lambda x: reference_beta(family, x))
    prefix, suffix = a_pieces[:-1], b_pieces[1:]
    return middle.map(
        lambda mid: graft(family, prefix + (mid,) + suffix, a_angles + b_angles))


def test_beta_matches_the_reference_operator():
    for family in FAMILIES:
        pool = [LEAF] + trees_up_to(family, 5)
        for x in pool + [raise_root(x) for x in pool]:
            assert beta(family, x) == reference_beta(family, x), (family, x)
            assert beta_lc(family, x) == reference_beta(family, x), (family, x)
        u = LinComb([(x, LambdaPoly((k % 3 - 1, 1))) for k, x in enumerate(pool)])
        assert beta_lc(family, u) == u.apply(lambda x: reference_beta(family, x))


def test_beta_returns_the_image_it_keeps():
    for family in FAMILIES:
        for x in trees_up_to(family, 4):
            image = beta(family, x).support()[0]
            assert beta(family, x).support()[0] is image
            if family.j != 2 or x.label == 0:
                assert x._raised is image is raise_root(x)


def test_a_kept_image_dies_with_its_base():
    # The kept image points from a tree to its raised copy and never
    # back, so the sweep after one collection drops both.
    base = Node(7, (LEAF, Node(9, (LEAF, LEAF), (13,))), (11,))  # held by no memo
    image = beta(FII, base).support()[0]
    assert image is base._raised and image.label == 8
    key = (image.label, image.children, image.angles)
    del base, image
    gc.collect()
    assert key not in trees._DECORATED
    assert (7,) + key[1:] not in trees._DECORATED


def test_the_quasi_idempotent_operator_on_each_root_label():
    for family in (F22, FI2):
        for k in range(4):
            x = with_root_label(t("0(. 1 .)"), k)
            [(image, coeff)] = beta(family, x).terms.items()
            assert image is with_root_label(x, 1)
            assert coeff == (ONE if k == 0 else (-LAMBDA) ** k)


def test_circle_matches_the_composition_of_operator_and_graft():
    leaf_middles = 0
    for family in FAMILIES:
        pool = [LEAF] + trees_up_to(family, 5)
        for a, b in itertools.product(pool, repeat=2):
            assert circle(family, a, b) == reference_circle(family, a, b), (family, a, b)
            leaf_middles += degraft(a)[0][-1].is_leaf and degraft(b)[0][0].is_leaf
    assert leaf_middles > 100  # generator o generator among them


def test_circle_has_one_term_per_term_of_the_meeting_star():
    # circle stores each term without merging: no two terms of the
    # meeting pieces' double product land on the same tree.
    for family in FAMILIES:
        pool = [LEAF] + trees_up_to(family, 5)
        for a, b in itertools.product(pool, repeat=2):
            meet = star(family, lower_root(degraft(a)[0][-1]),
                        lower_root(degraft(b)[0][0]))
            assert len(circle(family, a, b).terms) == len(meet.terms), (family, a, b)


def test_star_matches_the_double_product_of_the_operator():
    for family in FAMILIES:
        pool = trees_up_to(family, 5)
        for a, b in itertools.product(pool, repeat=2):
            u, v = LinComb.of(a), LinComb.of(b)
            want = (circle_lc(family, beta(family, a), v)
                    + circle_lc(family, u, beta(family, b))
                    + circle(family, a, b).scale(LAMBDA))
            assert star(family, a, b) == want, (family, a, b)


def root_zero_piece_cases():
    zero = Node(0, (LEAF, LEAF), (1,))  # root 0 where only leaves or positive roots belong
    x = t("1(. 1 .)")
    return [
        (Node(0, (zero, LEAF), (1,)), generator(FII)),  # the meeting pieces are leaves
        (Node(0, (zero, x), (2,)), x),                   # the raised middle is a node
        (x, Node(0, (x, zero), (1,))),                   # the piece follows the seam
    ]


def test_products_reject_a_root_zero_piece_with_grafts_message():
    message = "graft subtrees must be leaves or have positive root label"
    for family in (FII, FI2):
        for a, b in root_zero_piece_cases():
            with pytest.raises(DomainError, match=message):
                circle(family, a, b)
            with pytest.raises(DomainError, match=message):
                circle_lc(family, LinComb.of(a), LinComb.of(b))


# -- the paused collector ---------------------------------------------------

@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector switched on or off for the test, then put back."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def cold_products():
    """Empty `circle` and `star` memo tables, emptied again afterwards."""
    circle.cache_clear()
    star.cache_clear()
    yield
    circle.cache_clear()
    star.cache_clear()


@pytest.mark.parametrize("product", [circle, star], ids=["circle", "star"])
def test_products_put_the_collector_back(collector, cold_products, product):
    x = t("0(1(. 1 .) 2 .)")
    product(FII, x, x)
    assert gc.isenabled() is collector
    for a, b in root_zero_piece_cases():
        with pytest.raises(DomainError):
            product(FII, a, b)
        assert gc.isenabled() is collector


@pytest.mark.parametrize("product, probed", [(circle, "degraft"), (star, "_beta_term")],
                         ids=["circle", "star"])
def test_a_product_miss_runs_with_the_collector_paused(monkeypatch, collector,
                                                       cold_products, product, probed):
    # The probe is a helper the product calls from its own body.
    seen = []
    inner = getattr(baxter_core, probed)

    def probe(*args):
        seen.append(gc.isenabled())
        return inner(*args)

    monkeypatch.setattr(baxter_core, probed, probe)
    x = t("0(1(. 1 .) 2 .)")
    product(FII, x, x)
    assert seen and not any(seen)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("product", [circle, star], ids=["circle", "star"])
def test_a_hit_enters_the_pause_but_not_the_body(cold_products, product):
    # The pause sits above the memo: every call enters it, and only a miss
    # goes on into the product's body.
    paused = product.__code__
    body = product.__wrapped__.__wrapped__.__code__

    def entered():
        codes = set()
        sys.setprofile(lambda frame, event, arg:
                       event == "call" and codes.add(frame.f_code))
        try:
            product(FII, x, x)
        finally:
            sys.setprofile(None)
        return codes & {paused, body}

    x = t("0(1(. 1 .) 2 .)")
    assert entered() == {paused, body}
    assert entered() == {paused}


def sweep(product, pairs):
    for family, a, b in pairs:
        product(family, a, b)


@pytest.mark.parametrize("product", [circle, star], ids=["circle", "star"])
def test_a_cold_sweep_starts_no_collector_pass(cold_products, product):
    # Everything a product call allocates, the memo's key tuple included,
    # is allocated inside the pause, so even at the lowest threshold the
    # collector meets no allocation outside it to start a pass on.
    pairs = [(family, a, b) for family in FAMILIES
             for pool in [trees_up_to(family, 3)] for a in pool for b in pool]
    # A first sweep specializes the loop: until then, unpacking each pair
    # allocates an iterator outside the pause.
    sweep(product, pairs)
    circle.cache_clear()
    star.cache_clear()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    # The iterator is made before the collection: other gc callbacks may
    # allocate after it, and an iterator made then would start a pass.
    todo = iter(pairs)
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(1)
    gc.collect()
    gc.callbacks.append(count)
    try:
        sweep(product, todo)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
        (gc.enable if enabled else gc.disable)()
    assert product.cache_info().currsize >= len(pairs)
    assert starts == []


def test_direct_products_leave_no_cyclic_garbage(cold_products):
    # The census behind pausing the collector in circle and star: with it
    # off, cold sweeps of both products build no reference cycles, and
    # neither does emptying their memo tables.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for family in FAMILIES:
            pool = [tree for n in range(1, 5) for m in range(5 - n)
                    for tree in enumerate_trees(family, n, m)]
            for a, b in itertools.product(pool, repeat=2):
                circle(family, a, b)
                star(family, a, b)
        assert circle.cache_info().currsize and star.cache_info().currsize
        assert gc.collect() == 0
        circle.cache_clear()
        star.cache_clear()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
