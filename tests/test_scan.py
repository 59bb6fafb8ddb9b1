"""The shared text cursor and the grammars read through it: arbitrary
text fails only with the package's own errors, and rendered values
parse back to themselves."""

from hypothesis import example, given
from hypothesis import strategies as st

from baxtertrees import scalars
from baxtertrees.baxter_core import LinComb, parse_lincomb
from baxtertrees.errors import DomainError, ParseError
from baxtertrees.monomial import Word, parse_word, render_word
from baxtertrees.paths import parse_path
from baxtertrees.scalars import LambdaPoly, parse_poly
from baxtertrees.scan import Cursor
from baxtertrees.trees import (
    Family, INF, enumerate_trees, parse_planar, parse_tree, planar_trees, read_planar,
    read_tree,
)

import pytest

LONG = "7" * 5000  # more digits than int() converts

# Grammar characters mixed into arbitrary text, so that the parsers get
# past their first character; '²' and '٣' are digits to str.isdigit, and
# only the second is a decimal digit that int() accepts.
GRAMMAR = "().+-*^l 0123456789x²٣HVDUrb"
texts = st.text(st.one_of(st.sampled_from(GRAMMAR), st.characters()))

PARSERS = {
    "poly": parse_poly,
    "tree": parse_tree,
    "planar": parse_planar,
    "lincomb": lambda s: parse_lincomb(s, read_tree),
    "path": parse_path,
    "word": parse_word,
}

PLANAR = [t for n in range(1, 4) for m in range(1, n + 1) for t in planar_trees(n, m)]
TREES = [t for n in range(1, 3) for m in range(0, 3)
         for t in enumerate_trees(Family(INF, INF), n, m)]
polys = st.lists(st.integers(-3, 3), max_size=3).map(LambdaPoly)


# -- the cursor -------------------------------------------------------------

def test_nat_reads_decimal_digits_only():
    cur = Cursor("12٣x")
    assert cur.nat() == 123 and cur.peek() == "x"
    for text in ("²", "x", ""):
        with pytest.raises(ParseError, match="expected a number"):
            Cursor(text).nat()


def test_nat_rejects_a_number_too_long_for_int():
    with pytest.raises(ParseError, match="number too long") as info:
        Cursor(LONG).nat()
    assert info.value.pos == 0


def test_ws_finish_and_take():
    cur = Cursor("  x ")
    assert cur.ws() == "x" and cur.pos == 2
    assert not cur.take("y") and cur.take("x")
    cur.finish("tree")
    with pytest.raises(ParseError, match="trailing input after tree"):
        Cursor(" x").finish("tree")


# -- arbitrary text ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PARSERS))
def test_arbitrary_text_raises_only_package_errors(name):
    parse = PARSERS[name]

    @given(texts)
    @example("1(. ² .)")
    @example("x1^²")
    @example(f"1(. {LONG} .)")
    @example(f"l^{LONG}*1(. 1 .)")
    @example(f"x1^{LONG}")
    @example("²*l")
    def check(text):
        try:
            parse(text)
        except (ParseError, DomainError):
            pass

    check()


def test_unicode_digit_exponent_after_l_is_an_exponent_error():
    with pytest.raises(ParseError, match="expected exponent") as info:
        parse_lincomb("l^²*1(. 1 .)", read_tree)
    assert info.value.pos == 2


@given(texts)
@example("2*1(. x .)")
@example(" 1(. 1 .) + (l+)*1(. 1 .) ")
@example("1(. 1 .) - l^3*1(. 1 .) x")
@example("(1 + l*0(. 2 .)")
def test_a_combination_error_points_into_the_whole_operand(text):
    # One cursor reads every term, coefficient and element, so an error
    # anywhere carries the whole stripped operand and an offset in it.
    try:
        parse_lincomb(text, read_tree)
    except ParseError as err:
        assert err.text == text.strip()
        assert 0 <= err.pos <= len(err.text)
    except DomainError:
        pass


def test_a_term_sign_multiplies_no_polynomials():
    # A minus sign negates its coefficient; no product runs, so the
    # product memo gains no entry.
    before = scalars._product.cache_info().currsize
    a = parse_lincomb("(987654321*l^3)*1(. 1 .) - (l + 86421)*1(. 2 .) - 1(. 3 .)",
                      read_tree)
    assert scalars._product.cache_info().currsize == before
    assert str(a) == "-1(. 3 .) - (l + 86421)*1(. 2 .) + 987654321*l^3*1(. 1 .)"


# -- round trips ------------------------------------------------------------

@given(st.dictionaries(st.sampled_from(PLANAR), polys, max_size=4))
def test_planar_combination_round_trip(terms):
    a = LinComb(terms)
    assert parse_lincomb(str(a), read_planar) == a


@given(st.dictionaries(st.sampled_from(TREES), polys, max_size=4))
def test_tree_combination_round_trip(terms):
    a = LinComb(terms)
    assert parse_lincomb(str(a), read_tree) == a


@given(st.lists(st.integers(0, 1), min_size=1, max_size=9))
def test_word_round_trip(bits):
    w = Word(bits, "infinity")
    assert parse_word(render_word(w)) == w
    runs = [b for k, b in enumerate(bits) if k == 0 or bits[k - 1] != b]
    v = Word(runs, "two")
    assert parse_word(render_word(v), "two") == v
