"""Ring arithmetic and parsing for integer polynomials in the weight l."""

import random

from hypothesis import given
from hypothesis import strategies as st

from baxtertrees import scalars
from baxtertrees.errors import DomainError, ParseError
from baxtertrees.scalars import LAMBDA, MAX_DEGREE, ONE, ZERO, LambdaPoly, parse_poly

import pytest


polys = st.lists(st.integers(-9, 9), max_size=5).map(LambdaPoly)


def test_constructor_drops_trailing_zeros():
    assert LambdaPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert LambdaPoly((0, 0)).coeffs == ()
    assert LambdaPoly(()).is_zero


def test_constants():
    assert ZERO.is_zero
    assert ONE.coeffs == (1,)
    assert LAMBDA.coeffs == (0, 1)
    assert LAMBDA.degree == 1
    assert ZERO.degree == -1


def test_weight_constructor():
    assert LambdaPoly.weight(3, -2).coeffs == (0, 0, 0, -2)
    assert LambdaPoly.weight() == LAMBDA
    with pytest.raises(ValueError):
        LambdaPoly.weight(-1)


def test_powers_past_the_degree_limit_are_domain_errors():
    over = MAX_DEGREE + 1
    for make in (lambda: LambdaPoly.weight(over),
                 lambda: LambdaPoly.weight(10 ** 20, -1),
                 lambda: parse_poly(f"l^{over}"),
                 lambda: parse_poly(f"1 + 3*l^{10 ** 20} - l")):
        with pytest.raises(DomainError, match=r"^powers of l above l\^10000000 "):
            make()
    assert parse_poly("l^12").coeffs == (0,) * 12 + (1,)


def test_int_mixing():
    assert LAMBDA + 1 == LambdaPoly((1, 1))
    assert 1 + LAMBDA == LambdaPoly((1, 1))
    assert 2 - LAMBDA == LambdaPoly((2, -1))
    assert 3 * LAMBDA == LambdaPoly((0, 3))


def test_power():
    assert (LAMBDA + 1) ** 2 == LambdaPoly((1, 2, 1))
    assert LAMBDA ** 0 == ONE
    with pytest.raises(ValueError):
        LAMBDA ** -1


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(-3, 3))
def test_evaluation_is_a_ring_map(a, b, x):
    assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
    assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)


def test_evaluation_of_sparse_and_mixed_polynomials():
    sparse = LambdaPoly.weight(3000, -4)
    mixed = LambdaPoly((5, 0, 0, -2) + (0,) * 100 + (7, 1))
    for x in (-3, -1, 0, 1, 2, 3):
        assert sparse.eval_at(x) == -4 * x ** 3000
        assert mixed.eval_at(x) == 5 - 2 * x ** 3 + 7 * x ** 104 + x ** 105
    assert ZERO.eval_at(5) == 0 and ONE.eval_at(0) == 1


@given(polys)
def test_render_parse_round_trip(a):
    assert parse_poly(str(a)) == a


def test_display_conventions():
    assert str(ZERO) == "0"
    assert str(LAMBDA) == "l"
    assert str(-LAMBDA) == "-l"
    assert str(LambdaPoly((2, -1, 3))) == "3*l^2 - l + 2"


def test_parse_poly_inputs():
    assert parse_poly("l^2+2*l-1") == LambdaPoly((-1, 2, 1))
    assert parse_poly(" - 4 ") == LambdaPoly((-4,))
    with pytest.raises(ParseError):
        parse_poly("l^")
    with pytest.raises(ParseError):
        parse_poly("x + 1")


# -- the sum and product tables ----------------------------------------------

def schoolbook_sum(a, b):
    out = [0] * max(len(a), len(b))
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_product(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            out[i + j] += ci * cj
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_coeffs(rng):
    """Zero, short and long polynomials, with negative coefficients and
    coefficients past 64 bits."""
    size = rng.randrange(6)
    big = rng.random() < 0.3
    return tuple(rng.randrange(-2 ** 70, 2 ** 70) if big and rng.random() < 0.5
                 else rng.randrange(-3, 4) for _ in range(size))


def test_sums_and_products_match_the_schoolbook_rule():
    rng = random.Random(1717)
    cases = [((), ()), ((), (1,)), ((0, 1), ()), ((2 ** 64 + 1,), (-(2 ** 64), 5))]
    cases += [(random_coeffs(rng), random_coeffs(rng)) for _ in range(400)]
    for a, b in cases:
        p, q = LambdaPoly(a), LambdaPoly(b)
        a, b = p.coeffs, q.coeffs
        assert (p + q).coeffs == schoolbook_sum(a, b), (a, b)
        assert (p * q).coeffs == schoolbook_product(a, b), (a, b)
        k = rng.choice([0, 1, -1, 7, -(2 ** 66)])
        for got in (p + k, k + p):
            assert got.coeffs == schoolbook_sum(a, (k,)), (a, k)
        for got in (p * k, k * p):
            assert got.coeffs == schoolbook_product(a, (k,)), (a, k)
    assert len({len(a) for a, _ in cases}) > 3


def test_equal_operands_share_one_result():
    a, b = LambdaPoly((1, -2, 3)), LambdaPoly((0, 2 ** 65))
    assert a * b is LambdaPoly((1, -2, 3)) * LambdaPoly((0, 2 ** 65))
    assert a + b is LambdaPoly((1, -2, 3)) + LambdaPoly((0, 2 ** 65))
    assert LAMBDA * 0 is ZERO


def test_results_survive_clearing_the_tables():
    a, b = LambdaPoly((3, -1)), LambdaPoly((0, 0, 2 ** 64))
    before = (a + b, a * b)
    for table in (scalars._sum, scalars._product):
        table.cache_clear()
        assert table.cache_info().currsize == 0
    after = (a + b, a * b)
    assert after == before
    assert [x.coeffs for x in after] == [(3, -1, 2 ** 64), (0, 0, 3 * 2 ** 64, -(2 ** 64))]
