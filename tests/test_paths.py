"""Diagonal and mountain paths, their classes, and the tree encodings."""

import gc
import itertools
import re

from hypothesis import given
from hypothesis import strategies as st

from baxtertrees import trees
from baxtertrees.counting import catalan, motzkin, schroder_large
from baxtertrees.errors import DomainError, ParseError
from baxtertrees.paths import (
    _core_tokens,
    _rewrite_pairs,
    classify_path,
    colored_motzkin_paths,
    decode_positive,
    decode_zero,
    encode_positive,
    encode_zero,
    from_colored_motzkin,
    has_diagonal_double,
    is_restricted_schroder,
    level_colored_motzkin_paths,
    motzkin_paths,
    parse_path,
    path_to_tree,
    plus_paths,
    render_path,
    restore_angles,
    restricted_paths,
    rotate_from_motzkin,
    rotate_to_motzkin,
    schroder_params,
    schroder_paths,
    strip_angles,
    to_colored_motzkin,
    to_plus_class,
    to_zero_class,
    tree_to_path,
    zero_paths,
)
from baxtertrees.trees import (
    Family,
    INF,
    LEAF,
    enumerate_positive_root,
    enumerate_trees,
    enumerate_zero_root,
    intern_node,
    parse_planar,
    parse_tree,
    planar_trees,
    with_root_label,
)

import pytest

FI2 = Family(INF, 2)
F22 = Family(2, 2)

t = parse_tree


# -- step text --------------------------------------------------------------

def test_parse_path_compact_and_spaced():
    assert parse_path("HDHVV") == ("H", "D", "H", "V", "V")
    assert parse_path("Ub Hr D") == ("Ub", "Hr", "D")
    assert parse_path("") == ()
    assert render_path(("H", "V")) == "HV"
    assert render_path(("Ub", "D")) == "Ub D"


def test_parse_path_rejects_unknown_steps():
    for bad in ("HX", "h", "Urr", "U b"):
        with pytest.raises(ParseError):
            parse_path(bad)


@given(st.lists(st.sampled_from("HVD"), max_size=8))
def test_path_text_round_trip(steps):
    p = tuple(steps)
    assert parse_path(render_path(p)) == p


# -- diagonal-path classes --------------------------------------------------

def test_classify_known_rows():
    r = classify_path(parse_path("HDHVV"), "schroder")
    assert r["valid"] and (r["n"], r["m"]) == (3, 2)
    assert r["plus_class"] and not r["zero_class"]

    r = classify_path(parse_path("DHVD"), "schroder")
    assert r["valid"] and r["zero_class"] and not r["plus_class"]

    r = classify_path(parse_path("UUD"), "motzkin")
    assert not r["valid"]


def test_classify_flags_diagonal_violations():
    r = classify_path(parse_path("VH"), "schroder")
    assert not r["valid"] and r["index"] == 0
    r = classify_path(parse_path("HHV"), "schroder")
    assert not r["valid"] and r["reason"] == "does not end on the diagonal"


def test_schroder_path_counts():
    # Paths with parameters (n, m): the full diagonal class.
    assert len(schroder_paths(1, 0)) == 1  # just D
    assert len(schroder_paths(2, 1)) == 3  # HVD HDV DHV
    for n in range(1, 6):
        total = sum(len(schroder_paths(n, m)) for m in range(n + 1))
        split = sum(len(plus_paths(n, m)) + len(zero_paths(n, m)) for m in range(n + 1))
        assert total == split


def test_plus_and_zero_classes_partition():
    for n in range(5):
        for m in range(n + 1):
            ps = set(plus_paths(n, m))
            zs = set(zero_paths(n, m))
            assert not ps & zs
            assert ps | zs == set(schroder_paths(n, m))
            assert all(not has_diagonal_double(p) for p in ps)


def test_plus_and_zero_classes_keep_the_canonical_order():
    # The listings are not sorted after the walk: the order in which each
    # step is tried makes it, and these assertions hold it there.
    for n in range(9):
        for m in range(n + 1):
            paths = schroder_paths(n, m)
            assert list(paths) == sorted(paths)
            assert plus_paths(n, m) == tuple(
                p for p in paths if not has_diagonal_double(p))
            assert zero_paths(n, m) == tuple(
                p for p in paths if has_diagonal_double(p))
    for n, m in ((-1, 0), (2, 3), (2, -1)):
        assert schroder_paths(n, m) == plus_paths(n, m) == zero_paths(n, m) == ()
    for k in range(11):
        assert list(motzkin_paths(k)) == sorted(motzkin_paths(k))
    for k in range(9):
        for listing in (colored_motzkin_paths(k), level_colored_motzkin_paths(k)):
            assert listing == tuple(sorted(listing))


def test_path_class_totals():
    for n in range(1, 7):
        full = sum(len(schroder_paths(n, m)) for m in range(n + 1))
        assert full == schroder_large(n)
        # The restricted class matches the forced-family row: twice the
        # fully colored mountain count one size down.
        restricted = sum(len(restricted_paths(n, m)) for m in range(n + 1))
        assert restricted == 2 * len(colored_motzkin_paths(n - 1))


def test_params_read_off_steps():
    assert schroder_params(parse_path("HDHVV")) == (3, 2)
    assert schroder_params(parse_path("D")) == (1, 0)
    with pytest.raises(DomainError):
        schroder_params(parse_path("HV") + ("V",))


# -- mountain paths ---------------------------------------------------------

def test_motzkin_path_counts():
    assert [len(motzkin_paths(k)) for k in range(6)] == [1, 1, 2, 4, 9, 21]
    for k in range(6):
        assert len(motzkin_paths(k)) == motzkin(k)


def test_colored_motzkin_counts():
    # Fully colored: no simple closed form; level-only: a Catalan shift.
    assert [len(colored_motzkin_paths(k)) for k in range(6)] == [1, 2, 6, 20, 72, 272]
    for k in range(6):
        assert len(level_colored_motzkin_paths(k)) == catalan(k + 1)


def test_rotation_is_a_bijection():
    for n in range(1, 6):
        for m in range(n + 1):
            for p in schroder_paths(n, m):
                q = rotate_to_motzkin(p)
                assert len(q) == n + m
                assert rotate_from_motzkin(q) == p
    with pytest.raises(DomainError):
        rotate_from_motzkin(("U", "U", "D"))


# -- tree encodings ---------------------------------------------------------

def test_strip_restore_round_trip():
    # Stripping wants a positive root; root-0 trees go through the
    # zero-class encoding instead.
    for n in range(1, 5):
        for m in range(1, n + 1):
            for tree in enumerate_positive_root(FI2, n, m):
                assert restore_angles(strip_angles(tree)) == tree
    with pytest.raises(DomainError):
        strip_angles(t("0(. 1 .)"))


def test_restore_angles_returns_the_image_its_tree_keeps():
    for n in range(1, 5):
        for m in range(1, n + 1):
            for pt in planar_trees(n, m):
                assert restore_angles(pt) is restore_angles(pt)
    # Thirteen leaves: no memo of the test run holds this tree.
    pt = parse_planar("(. . . . . . (. . . . .) . .)")
    image = restore_angles(pt)
    assert image is restore_angles(pt)
    assert str(image) == "1(. 6 1(. 4 .) 2 .)"
    key = (image.label, image.children, image.angles)
    del pt, image
    gc.collect()
    assert key not in trees._DECORATED


def test_worked_shape_reading():
    tree = t("1(. 1 1(. 1 .) 1 1(. 1 .))")
    assert render_path(encode_positive(tree)) == "HDHVVHV"
    assert decode_positive(parse_path("HDHVVHV")) == tree


def test_positive_encoding_is_bijective():
    for n in range(1, 6):
        for m in range(1, n + 1):
            trees = enumerate_positive_root(FI2, n, m)
            images = {encode_positive(tr) for tr in trees}
            assert images == set(plus_paths(n, m))
            for tr in trees:
                assert decode_positive(encode_positive(tr)) == tr


def test_zero_encoding_is_bijective():
    for n in range(1, 5):
        for m in range(n + 1):
            trees = enumerate_zero_root(FI2, n, m)
            images = {encode_zero(tr) for tr in trees}
            assert images == set(zero_paths(n, m))
            for tr in trees:
                assert decode_zero(encode_zero(tr)) == tr
    with pytest.raises(DomainError):
        encode_zero(t("1(. 1 .)"))


def test_class_trade_known_pair():
    assert render_path(to_zero_class(parse_path("HDHVV"))) == "DHVD"
    assert render_path(to_plus_class(parse_path("DHVD"))) == "HDHVV"


def test_class_trades_invert_each_other():
    for n in range(1, 6):
        for m in range(n + 1):
            for p in plus_paths(n, m):
                q = to_zero_class(p)
                assert has_diagonal_double(q)
                assert to_plus_class(q) == p
            for q in zero_paths(n, m):
                assert to_zero_class(to_plus_class(q)) == q


def test_class_trade_preserves_restriction():
    for n in range(1, 6):
        for m in range(n + 1):
            for p in plus_paths(n, m):
                assert is_restricted_schroder(p) == is_restricted_schroder(to_zero_class(p))


def test_colored_reading_round_trip():
    for n in range(1, 5):
        for m in range(1, n + 1):
            for tree in enumerate_positive_root(F22, n, m):
                path = to_colored_motzkin(tree)
                assert from_colored_motzkin(path) == tree


def test_shape_reading_matches_leaf_count():
    for n in range(4):
        for m in range(n + 1):
            for tree in enumerate_positive_root(FI2, n + 1, m + 1):
                path = tree_to_path(strip_angles(tree))
                assert path_to_tree(path) == strip_angles(tree)


# -- the one-walk encoders and decoders against the planar route ------------

def _pair_rewrite(p):
    """The colored mountain path of a 2,2 tree's diagonal path ``p``: its
    core cut into tokens, the tokens into pairs, the pairs rewritten."""
    tokens = _core_tokens(p[1:-1])
    return _rewrite_pairs(list(zip(tokens[::2], tokens[1::2])))


def test_encoders_read_the_stripped_tree():
    for n in range(1, 8):
        for m in range(1, n + 1):
            for tree in enumerate_positive_root(FI2, n, m):
                assert encode_positive(tree) == tree_to_path(strip_angles(tree))
            for tree in enumerate_positive_root(F22, n, m):
                assert to_colored_motzkin(tree) == _pair_rewrite(
                    tree_to_path(strip_angles(tree)))


def test_decoders_restore_the_parsed_tree():
    for n in range(1, 8):
        for m in range(n + 1):
            for p in plus_paths(n, m):
                assert decode_positive(p) is restore_angles(path_to_tree(p))
            for q in zero_paths(n, m):
                assert decode_zero(q) is with_root_label(
                    restore_angles(path_to_tree(to_plus_class(q))), 0)


def test_encoders_and_decoders_build_no_planar_tree(monkeypatch):
    def refuse(children):
        raise AssertionError(f"a planar tree was built: {children}")

    live = set(trees._PLANAR)
    monkeypatch.setattr(trees, "intern_planar", refuse)
    for n in range(1, 5):
        for m in range(n + 1):
            for tree in enumerate_zero_root(FI2, n, m):
                assert decode_zero(encode_zero(tree)) is tree
        for m in range(1, n + 1):
            for tree in enumerate_positive_root(FI2, n, m):
                assert decode_positive(encode_positive(tree)) is tree
            for tree in enumerate_positive_root(F22, n, m):
                assert from_colored_motzkin(to_colored_motzkin(tree)) is tree
    assert set(trees._PLANAR) <= live


def _chain(levels, angles):
    """A tree ``levels`` nodes deep, every label 1: each node holds a leaf
    and the node below it, on alternating sides, with its angle taken in
    turn from ``angles``."""
    tree = LEAF
    for k in range(levels):
        kids = (LEAF, tree) if k % 2 else (tree, LEAF)
        tree = intern_node(1, kids, (angles[k % len(angles)],))
    return tree


def test_a_900_level_chain_round_trips():
    tree = _chain(900, (1, 2, 3))
    p = encode_positive(tree)
    assert len(p) == 900 + 300 * (1 + 2 + 3)  # an H a node, a D or V an angle unit
    assert decode_positive(p) is tree
    forced = _chain(900, (1,))
    assert from_colored_motzkin(to_colored_motzkin(forced)) is forced


def _outcome(f, arg):
    """``f(arg)``, or the type and text of the `DomainError` it raises."""
    try:
        return f(arg)
    except DomainError as err:
        return DomainError, str(err)


@pytest.mark.parametrize("text, message", [
    (".", "not a valid forced-label tree: leaf: the bare leaf is not an "
          "algebra basis element"),
    ("0(. 1 .)", "root label 0: raise the root before stripping"),
    ("2(. 1 .)", "not a valid forced-label tree: label-range: root label 2 "
                 "not in {0, 1}"),
    ("1(. 1 2(. 1 .))", "not a valid forced-label tree: label-range: "
                        "non-root label 2 must be 1"),
])
def test_encode_positive_raises_as_the_planar_route(text, message):
    tree = t(text)
    outcome = _outcome(encode_positive, tree)
    assert outcome == (DomainError, message)
    assert outcome == _outcome(lambda x: tree_to_path(strip_angles(x)), tree)


@pytest.mark.parametrize("text, message", [
    (".", "not a valid fully-forced tree: leaf: the bare leaf is not an "
          "algebra basis element"),
    ("0(. 1 .)", "root label must be 1 (raise a root-0 tree first)"),
    ("1(. 2 .)", "not a valid fully-forced tree: label-range: angle label 2 "
                 "must be 1"),
])
def test_to_colored_motzkin_errors_pinned(text, message):
    assert _outcome(to_colored_motzkin, t(text)) == (DomainError, message)


# -- pinned errors ----------------------------------------------------------

def _domain_error(f, text):
    steps = tuple(text.split()) if " " in text else tuple(text)
    with pytest.raises(DomainError) as info:
        f(steps)
    return str(info.value)


_DIAGONAL_ERRORS = {
    "HXV": "diagonal paths use steps H, V, D only",
    "U D": "diagonal paths use steps H, V, D only",
    "VHX": "diagonal paths use steps H, V, D only",   # bad letter after a rise
    "HVV": "unbalanced path: 1 H steps vs 2 V steps",
    "VHH": "unbalanced path: 2 H steps vs 1 V steps",  # rise on an unbalanced path
    "H": "unbalanced path: 1 H steps vs 0 V steps",
    "VH": "path rises above the diagonal",
    "VHDHV": "path rises above the diagonal",
}


def test_schroder_params_errors_pinned():
    for text, message in _DIAGONAL_ERRORS.items():
        assert _domain_error(schroder_params, text) == message, text


def test_class_conversion_errors_pinned():
    for f in (path_to_tree, decode_positive, to_zero_class, to_plus_class,
              decode_zero):
        for text, message in _DIAGONAL_ERRORS.items():
            assert _domain_error(f, text) == message, (f.__name__, text)
    for f in (path_to_tree, decode_positive):
        assert _domain_error(f, "D") == "path has a diagonal step on the diagonal"
        assert _domain_error(f, "HVD") == "path has a diagonal step on the diagonal"
        assert _domain_error(f, "DHVD") == "path has a diagonal step on the diagonal"
        assert _domain_error(f, "") == "empty path has no tree"
    assert _domain_error(decode_zero, "HDHVV") == "input must be in the zero class"
    assert _domain_error(decode_zero, "") == "input must be in the zero class"
    assert _domain_error(to_zero_class, "DHVD") == "input must be in the plus class"
    assert _domain_error(to_zero_class, "") == (
        "plus-class path must start with H and end with V")
    assert _domain_error(to_plus_class, "HDHVV") == "input must be in the zero class"
    assert _domain_error(to_plus_class, "") == "input must be in the zero class"


def test_path_to_tree_reads_back_or_raises_a_pinned_error_on_every_short_word():
    # Every H/V/D word of length at most 10 either is the reading of a
    # tree or fails a class check, with one of the messages pinned above;
    # `decode_positive` reads the same tree with its angles restored, or
    # raises the same error.
    pinned = set(_DIAGONAL_ERRORS.values()) | {
        "path has a diagonal step on the diagonal", "empty path has no tree"}
    unbalanced = re.compile(r"unbalanced path: \d+ H steps vs \d+ V steps")
    parsed = 0
    for length in range(11):
        for steps in itertools.product("HVD", repeat=length):
            tree = _outcome(path_to_tree, steps)
            decoded = _outcome(decode_positive, steps)
            if isinstance(tree, tuple):
                message = tree[1]
                assert message in pinned or unbalanced.fullmatch(message), steps
                assert decoded == tree, steps
            else:
                assert tree_to_path(tree) == steps
                assert decoded is restore_angles(tree)
                parsed += 1
    assert parsed == 988


def test_from_colored_motzkin_errors_pinned():
    f = from_colored_motzkin
    assert _domain_error(f, "Ub H D") == "unexpected step 'H' for a colored mountain path"
    assert _domain_error(f, "U D") == "unexpected step 'U' for a colored mountain path"
    # a bad step anywhere is reported before a dip
    assert _domain_error(f, "D Ub Hx") == (
        "unexpected step 'Hx' for a colored mountain path")
    for text in ("D Ub", "Ub Ub", "Ub Hr", "Hr D Ub", "D"):
        assert _domain_error(f, text) == "not a valid mountain path", text
    assert str(f(())) == "1(. 1 .)"


def test_classify_reports_the_first_fault_pinned():
    def fault(text, kind):
        r = classify_path(tuple(text), kind)
        assert not r["valid"]
        return r["reason"], r["index"]

    # diagonal paths: a bad letter anywhere, then a rise, then the end
    assert fault("VHX", "schroder") == ("bad step letter", 2)
    assert fault("DX", "schroder") == ("bad step letter", 1)
    assert fault("VHH", "schroder") == ("rises above diagonal", 0)
    assert fault("HVVHH", "schroder") == ("rises above diagonal", 2)
    assert fault("HHV", "schroder") == ("does not end on the diagonal", 2)
    # mountain paths: whichever of a bad letter and a dip comes first
    assert fault("DX", "motzkin") == ("dips below the axis", 0)
    assert fault("UX", "motzkin") == ("bad step letter", 1)
    assert fault("HVD", "motzkin") == ("bad step letter", 1)
    assert fault("UHDD", "motzkin") == ("dips below the axis", 3)
    assert fault("UU", "motzkin") == ("ends at height 2", 1)
    r = classify_path((), "schroder")
    assert r["valid"] and (r["n"], r["m"], r["plus_class"]) == (0, 0, True)
