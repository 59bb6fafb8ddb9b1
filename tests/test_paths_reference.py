"""The path functions against reference copies of earlier, plainer code.

The colored-Motzkin decoder is checked against the backtracking search it
replaced, and the diagonal-path predicates against one loop per question.
"""

from itertools import product

from baxtertrees.errors import DomainError
from baxtertrees.paths import (
    _PAIR_IMAGES, _rewrite_pairs,
    colored_motzkin_paths, from_colored_motzkin, has_diagonal_double,
    is_underdiagonal, motzkin_heights_ok, path_to_tree, restore_angles,
    schroder_params,
)


# -- the backtracking decoder -----------------------------------------------

def _ub_subsequence_ok(replay, target):
    j = 0
    for s in replay:
        while j < len(target) and target[j] != s and target[j] == "Ub":
            j += 1
        if j >= len(target) or target[j] != s:
            return False
        j += 1
    return True


def _search_decode(path):
    """Try every token pair at each step, replaying the encoding."""
    path = tuple(path)
    for s in path:
        if s not in ("Ur", "Ub", "Hr", "Hb", "D"):
            raise DomainError(f"unexpected step {s!r} for a colored mountain path")
    if not motzkin_heights_ok(path):
        raise DomainError("not a valid mountain path")
    matches = []

    def dfs(pairs, replay):
        if len(replay) > len(path):
            return
        if len(replay) == len(path):
            if replay == path:
                matches.append(tuple(pairs))
            return
        if not _ub_subsequence_ok(replay, path):
            return
        for pair in list(_PAIR_IMAGES) + [("V", "DH")]:
            pairs.append(pair)
            try:
                nxt = _rewrite_pairs(pairs)
            except DomainError:
                pairs.pop()
                continue
            dfs(pairs, nxt)
            pairs.pop()

    dfs([], ())
    if len(matches) != 1:
        raise DomainError(f"{len(matches)} decodings")
    core = []
    for pair in matches[0]:
        for tok in pair:
            core.extend(["D", "H"] if tok == "DH" else [tok])
    return restore_angles(path_to_tree(("H",) + tuple(core) + ("V",)))


def test_decoder_matches_the_search_up_to_length_6():
    for length in range(7):
        for path in colored_motzkin_paths(length):
            assert from_colored_motzkin(path) == _search_decode(path), path


def test_every_colored_path_of_length_7_decodes():
    paths = colored_motzkin_paths(7)
    trees = {from_colored_motzkin(path) for path in paths}
    assert len(trees) == len(paths)


# -- one loop per question ---------------------------------------------------

def _underdiagonal(steps):
    x = y = 0
    for s in steps:
        if s == "H":
            x += 1
        elif s == "V":
            y += 1
        else:
            x += 1
            y += 1
        if y > x:
            return False
    return True


def _diagonal_double(steps):
    x = y = 0
    for s in steps:
        if s == "D" and x == y:
            return True
        if s == "H":
            x += 1
        elif s == "V":
            y += 1
        else:
            x += 1
            y += 1
    return False


def _params(steps):
    if not all(s in ("H", "V", "D") for s in steps):
        raise DomainError("diagonal paths use steps H, V, D only")
    h = sum(1 for s in steps if s == "H")
    v = sum(1 for s in steps if s == "V")
    d = sum(1 for s in steps if s == "D")
    if h != v:
        raise DomainError(f"unbalanced path: {h} H steps vs {v} V steps")
    if not _underdiagonal(steps):
        raise DomainError("path rises above the diagonal")
    return (h + d, h)


def _outcome(f, steps):
    try:
        return f(steps)
    except DomainError as exc:
        return str(exc)


def test_diagonal_predicates_match_one_loop_each():
    # letters outside H V D are in the sweep: the predicates are total
    for length in range(7):
        for steps in product(("H", "V", "D", "U", "Hr"), repeat=length):
            assert is_underdiagonal(steps) == _underdiagonal(steps), steps
            assert has_diagonal_double(steps) == _diagonal_double(steps), steps
            assert _outcome(schroder_params, steps) == _outcome(_params, steps), steps
