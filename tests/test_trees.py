"""Decorated-tree grammar, validation, enumeration, and planar bases."""

import copy
import gc
import importlib
import itertools
import pickle
import pkgutil
import sys

from hypothesis import given
from hypothesis import strategies as st

import baxtertrees
from baxtertrees import trees, verify
from baxtertrees.baxter_core import circle, graft
from baxtertrees.cli import EXIT_DOMAIN, main
from baxtertrees.dendriform import dend_op, embed_dialgebra, embed_trialgebra
from baxtertrees.errors import DomainError, ParseError
from baxtertrees.monomial import pi_word, tilde_equiv
from baxtertrees.paths import (
    path_to_tree, restore_angles, strip_angles, to_colored_motzkin,
    tree_to_path,
)
from baxtertrees.trees import (
    _strip,
    FAMILIES,
    LEAF,
    Family,
    INF,
    Node,
    PTree,
    bidegree,
    binary_trees,
    count_trees,
    enumerate_positive_root,
    enumerate_trees,
    enumerate_zero_root,
    intern_planar,
    is_binary,
    is_valid,
    parse_family,
    parse_planar,
    parse_tree,
    planar_trees,
    raised,
    render_planar,
    render_tree,
    validate,
)

import pytest

F22 = Family(2, 2)
F2I = Family(2, INF)
FI2 = Family(INF, 2)
FII = Family(INF, INF)


def all_trees(family, top):
    for n in range(top + 1):
        for m in range(top + 1):
            yield from enumerate_trees(family, n, m)


# -- families ---------------------------------------------------------------

def test_parse_family_aliases():
    assert parse_family("2,2") == F22
    assert parse_family("inf, 2") == FI2
    assert parse_family("oo,infinity") == FII
    with pytest.raises(ParseError):
        parse_family("3,2")
    with pytest.raises(ParseError):
        parse_family("2")


def test_family_quotient_order():
    assert F22 <= FI2 and F22 <= F2I and F22 <= FII
    assert not (FI2 <= F2I) and not (F2I <= FI2)
    assert len(FAMILIES) == 4


def test_each_family_is_one_object():
    assert Family(INF, 2) is parse_family("inf,2") is FAMILIES[2]
    assert FAMILIES == (trees.F22, trees.F2I, trees.FI2, trees.FII)
    for family in FAMILIES:
        assert Family(family.i, family.j) is family
        assert Family(float(family.i), family.j) is family
        assert copy.copy(family) is family
        assert copy.deepcopy(family) is family
        assert pickle.loads(pickle.dumps(family)) is family


@pytest.mark.parametrize("i, j", [(3, 2), (2, 1), ("2", 2), ([2], INF)])
def test_a_bad_family_entry_keeps_its_message(i, j):
    with pytest.raises(DomainError) as err:
        Family(i, j)
    assert str(err.value) == f"family entries must be 2 or inf, got ({i}, {j})"


# -- grammar ----------------------------------------------------------------

def test_parse_tree_shapes():
    t = parse_tree("1(. 2 .)")
    assert t.label == 1
    assert t.angles == (2,)
    assert t.children == (LEAF, LEAF)
    assert bidegree(t) == (2, 1)

    nested = parse_tree("0(. 1 1(. 1 .) 1 .)")
    assert nested.label == 0
    assert len(nested.children) == 3
    assert bidegree(nested) == (3, 1)


def test_parse_tree_rejects_malformed():
    for bad in ("1(.)", "1(. .)", "(. 1 .)", "1(. 1 . 2)", "1(. -1 .)", ""):
        with pytest.raises(ParseError):
            parse_tree(bad)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_render_parse_round_trip(n, m, fidx):
    family = FAMILIES[fidx]
    for t in enumerate_trees(family, n, m):
        assert parse_tree(render_tree(t)) == t


def test_str_matches_render():
    t = parse_tree("1(1(. 2 .) 3 .)")
    assert str(t) == "1(1(. 2 .) 3 .)" == render_tree(t)


# -- validation -------------------------------------------------------------

def test_bare_leaf_is_not_a_basis_element():
    # The leaf only enters through the augmented basis.
    for f in FAMILIES:
        assert not is_valid(f, LEAF)
    assert validate(FII, LEAF)[0].startswith("leaf:")


def test_single_child_rejected_at_construction():
    # So no node with one child exists, and `validate` has no rule for it.
    for label in (0, 1):
        with pytest.raises(DomainError) as err:
            Node(label, (LEAF,), ())
        assert str(err.value) == "a node needs at least 2 children, got 1"


def test_label_range_messages_reached_from_the_api_only():
    # The parser reads labels unsigned, so these trees cannot come from text.
    assert validate(FII, Node(-1, (LEAF, LEAF), (1,))) == [
        "label-range: root label -1 is negative"]
    assert validate(FII, Node(0, (LEAF, LEAF), (0,))) == [
        "label-range: angle label 0 is not positive"]


def test_inner_leaf_rejected():
    # An inner child slot holding a bare leaf is only legal outermost.
    t = parse_tree("1(. 1 1(. 1 .) 1 .)")
    u = parse_tree("1(1(. 1 .) 1 . 1 1(. 1 .))")
    assert is_valid(FII, t)
    assert not is_valid(FII, u)


def test_family_label_rules():
    deep_zero = parse_tree("1(. 1 0(. 1 .) 1 .)")
    assert not is_valid(FI2, deep_zero)
    big_label = parse_tree("1(. 1 3(. 1 .) 1 .)")
    assert is_valid(FII, big_label)
    assert not is_valid(FI2, big_label)
    wide_angle = parse_tree("1(. 2 .)")
    assert is_valid(FI2, wide_angle)
    assert not is_valid(F22, wide_angle)


def test_validate_reports_every_problem():
    t = parse_tree("2(. 3 0(. 1 .) 1 .)")
    problems = validate(F22, t)
    assert len(problems) >= 3  # root label, angle label, nested zero


def test_enumerations_are_valid_and_disjoint():
    for family in FAMILIES:
        seen = set()
        for t in all_trees(family, 3):
            assert is_valid(family, t)
            assert t not in seen
            seen.add(t)


# -- enumeration and counting ----------------------------------------------

def test_count_matches_enumeration():
    for family in FAMILIES:
        for n in range(5):
            for m in range(5):
                assert count_trees(family, n, m) == len(enumerate_trees(family, n, m))


def test_bidegree_of_enumerated_trees():
    for family in FAMILIES:
        for n in range(4):
            for m in range(4):
                for t in enumerate_trees(family, n, m):
                    assert bidegree(t) == (n, m)


def test_root_label_split():
    for n in range(4):
        for m in range(4):
            zero = enumerate_zero_root(FI2, n, m)
            plus = enumerate_positive_root(FI2, n, m)
            assert set(zero) | set(plus) == set(enumerate_trees(FI2, n, m))
            assert all(t.label == 0 for t in zero)
            assert all(t.label >= 1 for t in plus)


def test_known_small_counts():
    # Forced family, angle rows n = 1..4 over all m.
    rows = [sum(count_trees(F22, n, m) for m in range(10)) for n in range(1, 5)]
    assert rows == [2, 4, 12, 40]
    # Free-angle family row n = 3: 0, 1, 6, 5 over m = 0..3.
    assert [count_trees(F22, 3, m) for m in range(4)] == [0, 1, 6, 5]


# -- planar and binary trees ------------------------------------------------

def test_planar_catalan_totals():
    # Planar trees with n+1 leaves, any node count: super-Catalan/Schroeder.
    for n, want in enumerate((1, 1, 3, 11, 45), start=0):
        got = sum(len(planar_trees(n, m)) for m in range(n + 1))
        assert got == want


def test_binary_trees_are_catalan():
    assert [len(binary_trees(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    for t in binary_trees(4):
        assert is_binary(t)


def test_binary_inside_planar():
    fours = {t for t in binary_trees(3)}
    assert fours <= set(planar_trees(3, 3))


def walked_bidegree(t):
    """(angle degree, node degree) by a walk over every node."""
    if t.is_leaf:
        return (0, 0)
    n, m = sum(t.angles), t.label
    for child in t.children:
        cn, cm = walked_bidegree(child)
        n, m = n + cn, m + cm
    return (n, m)


def walked_is_binary(t):
    return t.is_leaf or (len(t.children) == 2
                         and all(walked_is_binary(c) for c in t.children))


def test_bidegree_matches_a_walk_over_every_node():
    seen = 0
    for family in FAMILIES:
        for t in all_trees(family, 6):
            assert bidegree(t) == walked_bidegree(t)
            seen += 1
    assert bidegree(LEAF) == walked_bidegree(LEAF) == (0, 0)
    assert seen > 10_000


def test_is_binary_matches_a_walk_over_every_node():
    planar = [t for n in range(7) for m in range(n + 1) for t in planar_trees(n, m)]
    assert len(planar) == sum((1, 1, 3, 11, 45, 197, 903))
    assert sum(map(is_binary, planar)) == sum((1, 1, 2, 5, 14, 42, 132))
    for t in planar:
        assert is_binary(t) == walked_is_binary(t)


def test_binary_trees_match_the_planar_enumeration_in_order():
    for n in range(9):
        assert binary_trees(n) == planar_trees(n, n)


@given(st.integers(0, 4))
def test_planar_render_round_trip(n):
    for m in range(n + 1):
        for t in planar_trees(n, m):
            assert parse_planar(render_planar(t)) == t
            assert parse_planar(f" {render_planar(t)}\n".replace(" ", " \t")) == t


def planar_counts(t):
    """(leaves, internal nodes), counted without the sort keys."""
    if t.is_leaf:
        return 1, 0
    counts = [planar_counts(c) for c in t.children]
    return sum(c[0] for c in counts), 1 + sum(c[1] for c in counts)


def test_sort_keys_lead_with_the_negated_degrees():
    for family in FAMILIES:
        for n in range(7):
            for m in range(7 - n):
                for t in enumerate_trees(family, n, m):
                    nn, mm = bidegree(t)
                    assert t.sort_key()[:2] == (-(nn + mm), -mm)
    for n in range(1, 8):
        for m in range(1, n + 1):
            for t in planar_trees(n, m):
                leaves, nodes = planar_counts(t)
                assert leaves == n + 1 and nodes == m
                assert t.sort_key()[:2] == (-(leaves - 1 + nodes), -nodes)


def test_deep_chains_key():
    t, p = Node(1, (LEAF, LEAF), (2,)), PTree((LEAF, LEAF))
    for _ in range(499):
        t, p = Node(1, (t, LEAF), (2,)), PTree((LEAF, p, LEAF))
    assert t.sort_key()[:2] == (-1500, -500)
    assert p.sort_key()[:2] == (-(1000 - 1 + 500), -500)


def test_parse_planar_rejects_malformed():
    for bad in ("(", "(.)", "(. . ", "x", ""):
        with pytest.raises(ParseError):
            parse_planar(bad)


# -- hash-consed planar trees ------------------------------------------------

def test_equal_planar_trees_are_one_object():
    for n in range(1, 5):
        for m in range(1, n + 1):
            for pt in planar_trees(n, m):
                assert parse_planar(render_planar(pt)) is pt
                assert path_to_tree(tree_to_path(pt)) is pt
                assert _strip(restore_angles(pt)) is pt
                assert PTree(list(pt.children)) is pt
        for bt in binary_trees(n):
            assert any(bt is pt for pt in planar_trees(n, n))
    a, b = parse_planar("((. .) .)"), parse_planar("(. .)")
    for op, text in (("left", "((. .) (. .))"), ("right", "(((. .) .) .)"),
                     ("dot", "((. .) . .)")):
        (got,) = dend_op("trialgebra", op, a, b).terms
        assert got is parse_planar(text)


def test_planar_trees_compare_by_identity():
    assert PTree.__hash__ is object.__hash__
    assert PTree.__eq__ is object.__eq__


def test_rejected_planar_node_leaves_nothing_in_the_table():
    # Sweep first, so a collection inside the test drops nothing.
    gc.collect()
    size = len(trees._PLANAR)
    for kids in ((), (LEAF,)):
        with pytest.raises(DomainError):
            PTree(kids)
        assert kids not in trees._PLANAR
    assert len(trees._PLANAR) == size


def test_the_planar_constructor_goes_through_intern_planar():
    for n in range(1, 5):
        for m in range(1, n + 1):
            for pt in planar_trees(n, m):
                kids = list(pt.children)
                assert PTree(kids) is intern_planar(tuple(kids)) is pt
    fresh = (LEAF, LEAF, LEAF, LEAF, LEAF, LEAF, LEAF)
    built = intern_planar(fresh)
    assert PTree(list(fresh)) is built


def test_a_rejected_planar_leaf_enters_neither_table():
    # Sweep first, so a collection inside the test drops nothing.
    gc.collect()
    sizes = len(trees._PLANAR), len(trees._DECORATED)
    for build in (PTree, intern_planar):
        with pytest.raises(DomainError):
            build((LEAF,))
        assert (LEAF,) not in trees._PLANAR
        assert not any(key[1] == (LEAF,) for key in list(trees._DECORATED))
    assert (len(trees._PLANAR), len(trees._DECORATED)) == sizes


# -- hash-consed decorated trees ---------------------------------------------

def test_decorated_trees_compare_by_identity():
    assert Node.__hash__ is object.__hash__
    assert Node.__eq__ is object.__eq__


def test_equal_decorated_trees_are_one_object():
    for family in FAMILIES:
        for n in range(0, 6):
            for m in range(0, 6 - n):
                for t in enumerate_trees(family, n, m):
                    assert parse_tree(render_tree(t)) is t
                    assert Node(t.label, list(t.children), list(t.angles)) is t
    a, b = parse_tree("1(. 2 .)"), parse_tree("1(. 3 .)")
    product = circle(FI2, a, b)
    assert product.terms
    for t in product.terms:
        assert parse_tree(render_tree(t)) is t
    assert graft(FII, [a, LEAF, LEAF], [2, 1]) is parse_tree("0(1(. 2 .) 3 .)")
    for pt in planar_trees(3, 2):
        (img,) = embed_trialgebra(pt).terms
        assert parse_tree(render_tree(img)) is img
    for bt in binary_trees(3):
        (img,) = embed_dialgebra(bt).terms
        assert parse_tree(render_tree(img)) is img


def test_rejected_decorated_node_leaves_nothing_in_the_table():
    # Sweep first, so a collection inside the test drops nothing.
    gc.collect()
    size = len(trees._DECORATED)
    for label, kids, angles in ((1, (), ()), (1, (LEAF,), ()),
                                (1, (LEAF, LEAF), ()), (0, (LEAF, LEAF), (1, 1))):
        with pytest.raises(DomainError):
            Node(label, kids, angles)
        assert (label, kids, angles) not in trees._DECORATED
    assert len(trees._DECORATED) == size


# -- intern tables and their sweeps ------------------------------------------
#
# A table holds its trees; a sweep drops the trees only the table holds.
# Each test builds trees with parts no memo of the test run holds, and
# observes a dropped tree as its key, or its id, missing from its table.

def test_a_held_tree_survives_sweeps_and_is_built_again_as_itself():
    node = Node(5, (LEAF, Node(6, (LEAF, LEAF), (17,))), (19,))
    planar = PTree((LEAF, PTree((LEAF,) * 11), LEAF))
    for _ in range(2):
        trees._sweep(trees._PLANAR)
        trees._sweep(trees._DECORATED)
        gc.collect()
    assert Node(5, (LEAF, Node(6, (LEAF, LEAF), (17,))), (19,)) is node
    assert parse_tree("5(. 19 6(. 17 .))") is node
    assert PTree((LEAF, PTree((LEAF,) * 11), LEAF)) is planar
    assert trees._DECORATED[5, node.children, (19,)] is node
    assert trees._PLANAR[planar.children] is planar


def test_one_collection_drops_a_whole_group_nothing_holds():
    # The planar tree holds its decorated image; the base holds a raised
    # image that holds one more, each newer than the tree that holds it.
    # A key would hold the tree's children, so the group is known by the
    # ids of its trees: no tree is made between their deletion and the
    # check, so no other tree can take an id over.
    planar = PTree((LEAF, PTree((LEAF,) * 12), LEAF, LEAF))
    image = restore_angles(planar)
    base = Node(3, (LEAF, Node(4, (LEAF, LEAF), (23,))), (29,))
    top = raised(raised(base))
    assert top.label == 5 and base._raised._raised is top
    planar_ids = {id(planar), id(planar.children[1])}
    decorated_ids = {id(t) for t in (image, image.children[1], base,
                                     base._raised, top, base.children[1])}
    assert len(decorated_ids) == 6
    del planar, image, base, top
    gc.collect()
    assert planar_ids.isdisjoint(map(id, list(trees._PLANAR.values())))
    assert decorated_ids.isdisjoint(map(id, list(trees._DECORATED.values())))


def test_growth_past_the_limit_sweeps_with_the_collector_disabled(monkeypatch):
    # The tree whose entry starts the sweep is held by its builder then.
    table = trees._PLANAR
    enabled = gc.isenabled()
    gc.disable()
    try:
        monkeypatch.setattr(table, "limit", len(table) + 10)
        held = PTree((LEAF,) * 13)
        unheld = [(LEAF,) * k for k in range(14, 24)]
        for kids in unheld:
            PTree(kids)
        assert held.children in table
        assert not any(kids in table for kids in unheld[:-1])
        assert unheld[-1] in table
        assert table.limit == max(trees._SWEEP_FLOOR, trees._SWEEP_GROWTH * len(table))
    finally:
        if enabled:
            gc.enable()


def test_a_collection_that_starts_inside_a_sweep_raises_nothing(monkeypatch):
    # Dropping the sentinel tree starts a full collection, whose sweeps
    # run inside this one.
    class CollectsWhenDropped(PTree):
        __slots__ = ()

        def __del__(self):
            collections.append(gc.collect())

    collections, raised_inside = [], []
    monkeypatch.setattr(sys, "unraisablehook", raised_inside.append)
    table = trees._PLANAR
    gc.collect()
    unheld = [(LEAF,) * k for k in range(30, 36)]
    for kids in unheld:
        PTree(kids)
    sentinel = (LEAF,) * 40
    table[sentinel] = object.__new__(CollectsWhenDropped)
    table[sentinel]._fill(sentinel)
    try:
        trees._sweep(table)
    finally:
        table.pop(sentinel, None)
    assert len(collections) == 1
    assert sentinel not in table
    assert not any(kids in table for kids in unheld)
    assert raised_inside == []


def package_memos():
    for info in pkgutil.iter_modules(baxtertrees.__path__):
        module = importlib.import_module(f"baxtertrees.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                yield obj


def clear_memos():
    for memo in package_memos():
        memo.cache_clear()
    gc.collect()


def assert_table_frees_the_trees_of(table: dict, suite: str) -> None:
    """Every tree ``suite`` adds to ``table`` is gone once the memo
    tables are cleared; the trees in it before are held meanwhile, and
    stay."""
    clear_memos()
    before = dict(table)
    assert verify.run_suite(suite, "quick").ok
    assert len(table) > len(before)
    clear_memos()
    assert dict(table) == before


def test_decorated_table_frees_the_trees_of_a_suite():
    assert_table_frees_the_trees_of(trees._DECORATED, "identities")


def test_decorated_table_frees_the_planar_images_of_a_suite():
    # The dendriform suite embeds planar trees; each keeps its image
    # only as long as the planar tree itself lives.
    assert_table_frees_the_trees_of(trees._DECORATED, "dendriform")


def test_planar_table_frees_the_trees_of_a_suite():
    assert_table_frees_the_trees_of(trees._PLANAR, "dendriform")


# -- validation messages ----------------------------------------------------
#
# Every module that rejects an invalid tree names the input, then lists
# every problem; these pin the text byte for byte.

def test_cli_names_the_invalid_tree_and_every_problem(capsys):
    assert main(["beta", "--family", "2,2", "2(. 3 0(. 1 .))"]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "domain error: 2(. 3 0(. 1 .)): label-range: root label 2 not in "
        "{0, 1}; label-range: angle label 3 must be 1; R3: non-root internal "
        "node labeled 0\n"
    )


@pytest.mark.parametrize("call, message", [
    (lambda: strip_angles(parse_tree("2(. 3 0(. 1 .))")),
     "not a valid forced-label tree: label-range: root label 2 not in "
     "{0, 1}; R3: non-root internal node labeled 0"),
    (lambda: to_colored_motzkin(parse_tree("1(. 2 2(. 1 .))")),
     "not a valid fully-forced tree: label-range: angle label 2 must be 1; "
     "label-range: non-root label 2 must be 1"),
    (lambda: pi_word("two", parse_tree("0(. 2 .)")),
     "tree not valid for this variant: label-range: angle label 2 must be 1"),
    (lambda: tilde_equiv(parse_tree("0(. 1 .)"), parse_tree("0(. 1 2(. 1 .))")),
     "tree not valid: label-range: non-root label 2 must be 1"),
    (lambda: tilde_equiv(LEAF, LEAF),
     "tree not valid: leaf: the bare leaf is not an algebra basis element"),
], ids=["strip_angles", "to_colored_motzkin", "pi_word", "tilde_equiv",
        "tilde_equiv-leaf"])
def test_library_names_the_invalid_tree_and_every_problem(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
