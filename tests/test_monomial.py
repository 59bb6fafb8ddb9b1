"""Two-letter word algebras and the projections from the tree algebras."""

import itertools
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from baxtertrees.baxter_core import LinComb, beta, circle
from baxtertrees.counting import monomial_dims
from baxtertrees.errors import DomainError, ParseError
from baxtertrees.monomial import (
    Word,
    beta_word,
    concat_words,
    enumerate_words,
    normalize_word,
    parse_word,
    pi_map,
    pi_word,
    pi_word_recursive,
    render_word,
    tilde_equiv,
    word_bidegree,
    word_quotient,
    word_variant,
)
from baxtertrees.scalars import LAMBDA, LambdaPoly
from baxtertrees.trees import Family, INF, enumerate_trees, parse_tree

import pytest

FI2 = Family(INF, 2)
F22 = Family(2, 2)

t = parse_tree

free_words = st.lists(st.integers(0, 1), min_size=1, max_size=7).map(
    lambda bits: Word(bits, "infinity")
)


def trees_upto(family, top):
    out = []
    for n in range(1, top + 1):
        for m in range(top + 1):
            out.extend(enumerate_trees(family, n, m))
    return out


def trees_of_total_degree_upto(family, top):
    return [tree for n in range(1, top + 1) for m in range(top + 1 - n)
            for tree in enumerate_trees(family, n, m)]


# -- words ------------------------------------------------------------------

def test_word_text_round_trip():
    w = parse_word("x0^2 x1^3")
    assert w.letters == (0, 0, 1, 1, 1)
    assert render_word(w) == "x0^2 x1^3"
    assert render_word(Word((), "infinity")) == "1"


def test_parse_word_rejects_bad_text():
    for bad in ("", "x2", "x1^0", "y1"):
        with pytest.raises(ParseError):
            parse_word(bad)
    with pytest.raises(ParseError):
        parse_word("x1 x1", "two")  # not in normal form


@pytest.mark.parametrize("text, message, pos", [
    ("x1 1", "unknown letter '1'", 3),  # '1' also sits inside 'x1'
    ("x0^2 2", "unknown letter '2'", 5),
    ("x1^", "bad exponent ''", 0),  # a caret needs digits
    ("x1^ x0", "bad exponent ''", 0),
    ("x0 x1^12a", "bad exponent '12a'", 3),
    ("x1^2^3", "bad exponent '2^3'", 0),
    pytest.param("x1^" + "9" * 5000 + "a", "bad exponent '999999999999'...", 0,
                 id="x1^<5000 nines>a-bad exponent cut to 12-0"),
    pytest.param("y" * 5000, "unknown letter 'yyyyyyyyyyyy'...", 0,
                 id="<5000 y>-unknown letter cut to 12-0"),
    pytest.param("x0 x1^" + "9" * 5000, "number too long", 6,  # 12 characters quoted
                 id="x0 x1^<5000 nines>-number too long-6"),
])
def test_parse_word_errors_point_at_their_token(text, message, pos):
    with pytest.raises(ParseError) as info:
        parse_word(text)
    assert info.value.pos == pos
    assert str(info.value).startswith(f"{message} (at position {pos}:")


def test_word_variant_aliases():
    assert word_variant("inf") == "infinity"
    assert word_variant("2") == "two"
    with pytest.raises(DomainError):
        word_variant("three")


def test_bidegree_counts_blocks():
    assert word_bidegree(parse_word("x1^2 x0 x1")) == (4, 2)
    assert word_bidegree(parse_word("x0^3")) == (3, 0)
    assert word_bidegree(Word((), "infinity")) == (0, 0)


def test_quotient_collapses_runs():
    w = parse_word("x1^2 x0 x0 x1")
    q = word_quotient(w)
    assert q.variant == "two" and q.letters == (1, 0, 1)
    assert normalize_word(w) == w  # free variant: no relation


@given(free_words, free_words)
def test_quotient_is_multiplicative(w, v):
    lhs = word_quotient(concat_words(w, v))
    rhs = concat_words(word_quotient(w), word_quotient(v))
    assert lhs == rhs


@given(free_words)
def test_operator_then_quotient_commutes(w):
    assert word_quotient(beta_word(w)) == beta_word(word_quotient(w))


def test_enumerate_words_counts():
    for n in range(1, 8):
        assert len(enumerate_words("infinity", n)) == 2 ** n
        assert len(enumerate_words("two", n)) == 2
        for m in range(n + 1):
            assert len(enumerate_words("infinity", n, m)) == monomial_dims("infinity", n, m)


# -- projections ------------------------------------------------------------

def test_projection_known_values():
    assert str(pi_word("infinity", t("0(. 2 1(. 3 .))"))) == "x0^2 x1^3"
    assert str(pi_word("infinity", t("1(. 2 .)"))) == "x1^2"
    assert str(pi_word("infinity", t("0(. 2 .)"))) == "x0^2"
    assert str(pi_word("two", t("0(1(. 1 .) 1 1(. 1 .))"))) == "x1 x0 x1"


def test_projection_formula_matches_recursion():
    for variant, family in (("infinity", FI2), ("two", F22)):
        for tree in trees_of_total_degree_upto(family, 6):
            assert pi_word(variant, tree) == pi_word_recursive(variant, tree)


def test_projection_is_multiplicative():
    pool = trees_upto(FI2, 2)
    for a, b in itertools.product(pool, repeat=2):
        img = pi_map("infinity", circle(FI2, a, b).eval_weight(-1))
        direct = LinComb(concat_words(pi_word("infinity", a), pi_word("infinity", b)))
        assert img == direct


def test_projection_intertwines_operator_at_weight_minus_one():
    for tree in trees_upto(FI2, 3):
        img = pi_map("infinity", beta(FI2, tree).eval_weight(-1))
        assert img == LinComb(beta_word(pi_word("infinity", tree)))


def test_projection_of_a_bare_tree_is_that_of_its_combination():
    tree = t("0(1(. 1 .) 1 1(. 1 .))")
    for variant in ("infinity", "two"):
        assert pi_map(variant, tree) == pi_map(variant, LinComb.of(tree))
        assert pi_map(variant, tree) == LinComb(pi_word(variant, tree))


def test_projection_rejects_unit_tree():
    from baxtertrees.trees import LEAF

    with pytest.raises(DomainError):
        pi_map("infinity", LinComb.of(LEAF))


def test_kernel_relation_matches_word_equality():
    pool = trees_upto(FI2, 3)
    for a, b in itertools.product(pool, repeat=2):
        assert tilde_equiv(a, b) == (pi_word("infinity", a) == pi_word("infinity", b))


def test_kernel_relation_nontrivial_pair():
    # Same outer reading, different inner nesting.
    a = t("1(. 1 1(. 1 .))")
    b = t("1(1(. 1 .) 1 .)")
    assert tilde_equiv(a, b)
    assert a != b


def test_projection_of_a_kernel_pair_merges_their_coefficients():
    a = t("1(. 1 1(. 1 .))")
    b = t("1(1(. 1 .) 1 .)")
    assert tilde_equiv(a, b) and a != b
    word = pi_word("infinity", a)
    assert pi_map("infinity", LinComb([(a, 3), (b, -3)])) == LinComb()
    assert pi_map("infinity", LinComb([(a, LAMBDA), (b, -LAMBDA)])).is_zero
    assert pi_map("infinity", LinComb({a: 1, b: 1})).terms == {word: LambdaPoly.const(2)}
    assert pi_map("infinity", LinComb([(a, 2), (b, LAMBDA)])).terms == {
        word: LambdaPoly((2, 1))}


def test_projection_images_follow_block_count():
    # Every root-0 image of bidegree (n, m) has m x1-blocks; positive
    # roots collapse to pure x1 powers.
    for tree in trees_upto(FI2, 3):
        w = pi_word("infinity", tree)
        if tree.label > 0:
            assert set(w.letters) <= {1}


# -- no exponent spelled out ------------------------------------------------

def test_no_word_operation_spells_out_an_exponent():
    big = 4_000_000
    tracemalloc.start()
    try:
        w = parse_word(f"x1^{big} x0")
        got = (w.runs, concat_words(w, w).runs, beta_word(w).runs,
               word_quotient(w).runs, word_bidegree(w), render_word(w),
               pi_word("infinity", t(f"0(. {big} 1(. 3 .))")).runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert got == (
        ((1, big), (0, 1)), ((1, big), (0, 1), (1, big), (0, 1)),
        ((1, big + 1),), ((1, 1), (0, 1)), (big + 1, 1), f"x1^{big} x0",
        ((0, big), (1, 3)),
    )
