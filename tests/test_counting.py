"""Dimension formulas, classical sequences, and exact truncated series."""

from hypothesis import given
from hypothesis import strategies as st

from baxtertrees.counting import (
    MAX_ORDER,
    BiSeries,
    binomial_transform,
    binomial_transform_table,
    catalan,
    dim_formula,
    monomial_dims,
    monomial_series,
    motzkin,
    schroder_large,
    schroder_small,
    sequence,
    series_coeffs,
)
from baxtertrees.errors import DomainError
from baxtertrees.trees import FAMILIES, Family, INF, count_trees

import pytest

F22 = Family(2, 2)
F2I = Family(2, INF)
FI2 = Family(INF, 2)
FII = Family(INF, INF)

series_boxes = st.tuples(st.integers(0, 5), st.integers(0, 5))
small_series = st.builds(
    lambda pairs, box: BiSeries(dict(pairs), *box),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-5, 5)),
        max_size=6,
    ),
    series_boxes,
)


# -- classical sequences ----------------------------------------------------

def test_sequence_prefixes():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [motzkin(n) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
    assert [schroder_large(n) for n in range(6)] == [1, 2, 6, 22, 90, 394]
    assert [schroder_small(n) for n in range(6)] == [1, 1, 3, 11, 45, 197]


def test_large_schroder_doubles_small():
    for n in range(1, 9):
        assert schroder_large(n) == 2 * schroder_small(n)


def test_sequence_lookup():
    assert sequence("catalan", 4) == 14
    with pytest.raises(DomainError):
        sequence("fibonacci", 3)


# -- dimension formulas -----------------------------------------------------

def test_dim_formula_matches_enumeration():
    for family in FAMILIES:
        for n in range(15):
            for m in range(15):
                assert dim_formula(family, n, m) == count_trees(family, n, m)


def test_known_dimension_row():
    assert [dim_formula(F22, 3, m) for m in range(4)] == [0, 1, 6, 5]


def test_corner_row_conventions():
    # m = 0: one corner tree per angle degree when angles are free,
    # only the generator itself when angles are forced.
    for n in range(1, 6):
        assert dim_formula(FI2, n, 0) == 1
        assert dim_formula(FII, n, 0) == 1
        assert dim_formula(F22, n, 0) == (1 if n == 1 else 0)
        assert dim_formula(F2I, n, 0) == (1 if n == 1 else 0)


def test_row_sums_of_free_family_are_large_schroder():
    for n in range(1, 7):
        row = sum(dim_formula(FI2, n, m) for m in range(n + 1))
        assert row == schroder_large(n)


def test_forced_column_sums():
    # Columns m >= 1 of the fully forced family.
    for m in range(1, 9):
        col = sum(dim_formula(F22, n, m) for n in range(2 * m + 2))
        assert col == 2 ** (m + 1) * catalan(m)


def test_free_labels_are_binomial_transforms():
    for n in range(1, 6):
        for m in range(1, 6):
            assert dim_formula(F2I, n, m) == binomial_transform_table(
                lambda k, l: dim_formula(F22, k, l), n, m, in_first=False
            )
            assert dim_formula(FII, n, m) == binomial_transform_table(
                lambda k, l: dim_formula(F22, k, l), n, m
            )
            assert dim_formula(FII, n, m) == binomial_transform_table(
                lambda k, l: dim_formula(FI2, k, l), n, m, in_first=False
            )


def test_binomial_transform_basics():
    assert binomial_transform((1, 1, 1, 1)) == (1, 2, 4, 8)
    assert binomial_transform((1, 0, 0, 0)) == (1, 1, 1, 1)


# -- series -----------------------------------------------------------------

def test_series_matches_dimensions():
    for family in FAMILIES:
        s = series_coeffs(family, 6, 6)
        for n in range(7):
            for m in range(7):
                assert s.coeff(n, m) == dim_formula(family, n, m)


def test_series_diagonal_of_free_family_is_motzkin():
    s = series_coeffs(FI2, 6, 6)
    assert s.diagonal() == (0, 1, 2, 4, 9, 21, 51)
    assert s.diagonal()[1:] == tuple(motzkin(k) for k in range(1, 7))


def test_series_order_guard():
    with pytest.raises(DomainError):
        series_coeffs(F22, MAX_ORDER + 1, 2)


def test_geometric_inverts_one_minus():
    x = BiSeries.x(5, 5)
    one = BiSeries.const(1, 5, 5)
    assert (one - x) * x.geometric() == one
    with pytest.raises(DomainError):
        one.geometric()


def test_substitute_x_on_monomials():
    x = BiSeries.x(4, 4)
    y = BiSeries.y(4, 4)
    s = x * x + y
    assert s.substitute_x(x + x * y).coeff(2, 1) == 2


@given(small_series, small_series)
def test_series_product_commutes(a, b):
    b2 = BiSeries(b.coeffs, a.N, a.M)
    assert a * b2 == b2 * a


@given(small_series)
def test_series_truncation_is_stable(a):
    assert all(0 <= n <= a.N and 0 <= m <= a.M for (n, m) in a.coeffs)


# -- monomial dimensions ----------------------------------------------------

def test_monomial_series_matches_closed_form():
    for variant in ("infinity", "two"):
        s = monomial_series(variant, 8, 4)
        for n in range(9):
            for m in range(5):
                assert s.coeff(n, m) == monomial_dims(variant, n, m)


def test_monomial_row_sums():
    # Free variant: rows sum to powers of two.
    for n in range(9):
        row = sum(monomial_dims("infinity", n, m) for m in range(n + 1))
        assert row == 2 ** n


def test_collapsed_monomial_pattern():
    assert monomial_dims("two", 0, 0) == 1
    assert monomial_dims("two", 4, 2) == 2
    assert monomial_dims("two", 5, 2) == 1
    assert monomial_dims("two", 5, 3) == 1
    assert monomial_dims("two", 6, 2) == 0
