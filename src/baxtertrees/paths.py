"""Lattice paths and the bijections that count the tree bases.

Two path worlds appear:

* **Diagonal paths** over steps ``H`` = (1,0), ``V`` = (0,1), ``D`` = (1,1)
  running from (0,0) to (n,n) without rising above the main diagonal,
  with m each of ``H`` and ``V`` and n−m of ``D``.  The *plus class* has
  no ``D`` lying on the diagonal; the *zero class* has at least one.
  The *restricted* paths have every ``D`` immediately followed by an
  ``H`` unless it is the last step.

* **Mountain paths** over ``U`` = up, ``H`` = level, ``D`` = down, never
  dipping below the axis and ending on it.  The *restricted* variant has
  every level step immediately followed by an up step unless last.
  Colored variants paint level steps (and optionally up steps) red or
  blue: ``Hr Hb Ur Ub``.

The bijections implemented here:

* ``strip_angles`` / ``restore_angles`` — trade angle labels for runs of
  interior leaves (label j becomes j−1 leaves) between a decorated tree
  with positive root and its bare planar shape;
* ``tree_to_path`` / ``path_to_tree`` — depth-first reading of a planar
  tree: ``H`` at the leftmost child, ``D`` at each interior child, ``V``
  at the rightmost, each emitted before descending;
* ``to_zero_class`` / ``to_plus_class`` — trade the outer ``H``…``V``
  frame of a plus-class path for a diagonal ``D``, converting between
  the plus class with m+1 horizontals and the zero class with m;
* ``to_colored_motzkin`` / ``from_colored_motzkin`` — the pairwise token
  rewriting that encodes a forced-label tree as a colored mountain path
  two steps shorter than its diagonal path;
* ``rotate_to_motzkin`` / ``rotate_from_motzkin`` — the 45-degree
  relabeling H→U, V→D, D→H.

Membership predicates are total; conversion functions validate their
inputs and raise `DomainError` outside the stated classes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DomainError, ParseError
from .trees import (
    LEAF, Family, Node, PTree, PlanarTree, Tree,
    bidegree, parse_family, validate, with_root_label,
)

__all__ = [
    "Path", "parse_path", "render_path",
    "schroder_params", "is_underdiagonal", "has_diagonal_double",
    "is_restricted_schroder", "motzkin_heights_ok", "is_restricted_motzkin",
    "classify_path",
    "schroder_paths", "plus_paths", "zero_paths",
    "restricted_paths", "restricted_plus_paths", "restricted_zero_paths",
    "motzkin_paths", "colored_motzkin_paths", "level_colored_motzkin_paths",
    "strip_angles", "restore_angles",
    "tree_to_path", "path_to_tree",
    "to_zero_class", "to_plus_class",
    "to_colored_motzkin", "from_colored_motzkin",
    "rotate_to_motzkin", "rotate_from_motzkin",
    "encode_positive", "encode_zero", "decode_positive", "decode_zero",
]

Path = tuple  # of step tokens: "H" "V" "D" "U" "Ur" "Ub" "Hr" "Hb"

_STEP_TOKENS = {"H", "V", "D", "U", "Ur", "Ub", "Hr", "Hb"}


def parse_path(text: str) -> Path:
    """Parse step text: compact (``HDHVV``) or space-separated
    (``Ub Hr D``); colored steps are a letter plus ``r``/``b``."""
    text = text.strip()
    if not text:
        return ()
    if any(ch.isspace() for ch in text):
        tokens = tuple(text.split())
        for k, tok in enumerate(tokens):
            if tok not in _STEP_TOKENS:
                raise ParseError(f"unknown step {tok!r}", text, 0)
        return tokens
    tokens = []
    j = 0
    while j < len(text):
        ch = text[j]
        if ch not in "HVDU":
            raise ParseError("unknown step letter", text, j)
        if j + 1 < len(text) and text[j + 1] in "rb":
            tokens.append(ch + text[j + 1])
            j += 2
        else:
            tokens.append(ch)
            j += 1
    for tok in tokens:
        if tok not in _STEP_TOKENS:
            raise ParseError(f"unknown step {tok!r}", text, 0)
    return tuple(tokens)


def render_path(steps: Sequence[str]) -> str:
    """Compact for single-letter steps, space-separated when colored."""
    if not steps:
        return ""
    if all(len(s) == 1 for s in steps):
        return "".join(steps)
    return " ".join(steps)


# ---------------------------------------------------------------------------
# Diagonal-path predicates
# ---------------------------------------------------------------------------

def _diagonal_alphabet_ok(steps: Sequence[str]) -> bool:
    return all(s in ("H", "V", "D") for s in steps)


def schroder_params(steps: Sequence[str]) -> tuple[int, int]:
    """(n, m) for a well-formed diagonal path; raises otherwise."""
    if not _diagonal_alphabet_ok(steps):
        raise DomainError("diagonal paths use steps H, V, D only")
    h = sum(1 for s in steps if s == "H")
    v = sum(1 for s in steps if s == "V")
    d = sum(1 for s in steps if s == "D")
    if h != v:
        raise DomainError(f"unbalanced path: {h} H steps vs {v} V steps")
    if not is_underdiagonal(steps):
        raise DomainError("path rises above the diagonal")
    return (h + d, h)


def is_underdiagonal(steps: Sequence[str]) -> bool:
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


def has_diagonal_double(steps: Sequence[str]) -> bool:
    """True when some D step starts (hence lies) on the main diagonal."""
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


def is_restricted_schroder(steps: Sequence[str]) -> bool:
    """Every D immediately followed by H, except a final D."""
    for k, s in enumerate(steps):
        if s == "D" and k < len(steps) - 1 and steps[k + 1] != "H":
            return False
    return True


# ---------------------------------------------------------------------------
# Mountain-path predicates
# ---------------------------------------------------------------------------

def _step_rise(s: str) -> int:
    if s[0] == "U":
        return 1
    if s[0] == "D":
        return -1
    return 0


def motzkin_heights_ok(steps: Sequence[str]) -> bool:
    """Never below the axis and ends on it (colored steps allowed)."""
    h = 0
    for s in steps:
        if s[0] not in "UHD" or s == "V":
            return False
        h += _step_rise(s)
        if h < 0:
            return False
    return h == 0


def is_restricted_motzkin(steps: Sequence[str]) -> bool:
    """Every level step immediately followed by an up step, except last."""
    for k, s in enumerate(steps):
        if s[0] == "H" and k < len(steps) - 1 and steps[k + 1][0] != "U":
            return False
    return True


def classify_path(steps: Sequence[str], kind: str) -> dict:
    """Total membership report for one path.

    kind ``schroder``: membership in the diagonal-path classes with
    (n, m), or the first violating index.  kind ``motzkin``: height
    validity, length, restrictedness, and coloring.
    """
    report: dict = {"kind": kind, "length": len(steps)}
    if kind == "schroder":
        if not _diagonal_alphabet_ok(steps):
            bad = next(k for k, s in enumerate(steps) if s not in ("H", "V", "D"))
            report.update(valid=False, reason="bad step letter", index=bad)
            return report
        x = y = 0
        for k, s in enumerate(steps):
            x += 1 if s in ("H", "D") else 0
            y += 1 if s in ("V", "D") else 0
            if y > x:
                report.update(valid=False, reason="rises above diagonal", index=k)
                return report
        if x != y:
            report.update(valid=False, reason="does not end on the diagonal",
                          index=len(steps) - 1 if steps else 0)
            return report
        n, m = x, steps.count("H")
        touching = has_diagonal_double(steps)
        restricted = is_restricted_schroder(steps)
        report.update(
            valid=True, n=n, m=m,
            plus_class=not touching, zero_class=touching,
            restricted=restricted,
        )
        return report
    if kind == "motzkin":
        h = 0
        for k, s in enumerate(steps):
            if s[0] not in "UHD" or s == "V":
                report.update(valid=False, reason="bad step letter", index=k)
                return report
            h += _step_rise(s)
            if h < 0:
                report.update(valid=False, reason="dips below the axis", index=k)
                return report
        if h != 0:
            report.update(valid=False, reason=f"ends at height {h}",
                          index=len(steps) - 1 if steps else 0)
            return report
        report.update(
            valid=True,
            restricted=is_restricted_motzkin(steps),
            colored=any(len(s) > 1 for s in steps),
        )
        return report
    raise DomainError(f"unknown path kind {kind!r}")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def schroder_paths(n: int, m: int) -> tuple:
    """All diagonal paths with m H, m V, n−m D, canonically ordered."""
    if n < 0 or m < 0 or m > n:
        return ()
    out: list[tuple] = []

    def go(prefix, x, y, h, v, d):
        if h == 0 and v == 0 and d == 0:
            out.append(tuple(prefix))
            return
        if h:
            prefix.append("H")
            go(prefix, x + 1, y, h - 1, v, d)
            prefix.pop()
        if v and y + 1 <= x:
            prefix.append("V")
            go(prefix, x, y + 1, h, v - 1, d)
            prefix.pop()
        if d:
            prefix.append("D")
            go(prefix, x + 1, y + 1, h, v, d - 1)
            prefix.pop()

    go([], 0, 0, m, m, n - m)
    out.sort()
    return tuple(out)


def plus_paths(n: int, m: int) -> tuple:
    return tuple(p for p in schroder_paths(n, m) if not has_diagonal_double(p))


def zero_paths(n: int, m: int) -> tuple:
    return tuple(p for p in schroder_paths(n, m) if has_diagonal_double(p))


def restricted_paths(n: int, m: int) -> tuple:
    return tuple(p for p in schroder_paths(n, m) if is_restricted_schroder(p))


def restricted_plus_paths(n: int, m: int) -> tuple:
    return tuple(p for p in plus_paths(n, m) if is_restricted_schroder(p))


def restricted_zero_paths(n: int, m: int) -> tuple:
    return tuple(p for p in zero_paths(n, m) if is_restricted_schroder(p))


@lru_cache(maxsize=None)
def motzkin_paths(length: int) -> tuple:
    """All mountain paths of the given length, canonically ordered."""
    out: list[tuple] = []

    def go(prefix, h, left):
        if left == 0:
            if h == 0:
                out.append(tuple(prefix))
            return
        if h + left >= 1:  # pruning: must be able to return to 0
            for s in ("D", "H", "U"):
                nh = h + _step_rise(s)
                if nh < 0 or nh > left - 1:
                    continue
                prefix.append(s)
                go(prefix, nh, left - 1)
                prefix.pop()

    go([], 0, length)
    out.sort()
    return tuple(out)


def _color_expansions(path: Sequence[str], color_up: bool) -> Iterable[tuple]:
    if not path:
        yield ()
        return
    head, rest = path[0], path[1:]
    if head == "H":
        heads = ("Hr", "Hb")
    elif head == "U" and color_up:
        heads = ("Ur", "Ub")
    else:
        heads = (head,)
    for tail in _color_expansions(rest, color_up):
        for h in heads:
            yield (h,) + tail


@lru_cache(maxsize=None)
def colored_motzkin_paths(length: int) -> tuple:
    """Mountain paths of the given length with level AND up steps
    two-colored, canonically ordered."""
    out = []
    for p in motzkin_paths(length):
        out.extend(_color_expansions(p, True))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def level_colored_motzkin_paths(length: int) -> tuple:
    """Mountain paths with only the level steps two-colored."""
    out = []
    for p in motzkin_paths(length):
        out.extend(_color_expansions(p, False))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# Angle labels <-> interior leaves
# ---------------------------------------------------------------------------

_INF2 = parse_family("inf,2")


def strip_angles(t: Tree) -> PlanarTree:
    """Forget decorations: each angle label j becomes j−1 interior
    leaves.  Input must be valid with forced node labels and positive
    root (raise the root of a root-0 tree first)."""
    problems = validate(_INF2, t)
    if problems:
        raise DomainError("not a valid forced-label tree: " + "; ".join(problems))
    if t.label == 0:
        raise DomainError("root label 0: raise the root before stripping")
    return _strip(t)


def _strip(t: Tree) -> PlanarTree:
    if t.is_leaf:
        return LEAF
    children: list[PlanarTree] = [_strip(t.children[0])]
    for angle, child in zip(t.angles, t.children[1:]):
        children.extend([LEAF] * (angle - 1))
        children.append(_strip(child))
    return PTree(children)


def restore_angles(pt: PlanarTree) -> Tree:
    """Rebuild the decorated tree with all labels 1: runs of interior
    leaves collapse into angle labels (j−1 leaves give label j)."""
    if pt.is_leaf:
        raise DomainError("the bare leaf has no decorated counterpart")
    return _restore(pt)


def _restore(pt: PlanarTree) -> Tree:
    kids = pt.children
    last = len(kids) - 1
    real = [0] + [k for k in range(1, last) if not kids[k].is_leaf] + [last]
    children = []
    angles = []
    for idx, k in enumerate(real):
        c = kids[k]
        children.append(LEAF if c.is_leaf else _restore(c))
        if idx + 1 < len(real):
            angles.append(real[idx + 1] - k)  # 1 + number of skipped leaves
    return Node(1, children, angles)


# ---------------------------------------------------------------------------
# Planar tree <-> diagonal path
# ---------------------------------------------------------------------------

def tree_to_path(pt: PlanarTree) -> Path:
    """Depth-first reading: H before the leftmost child, D before each
    interior child, V before the rightmost; leaves emit nothing."""
    if pt.is_leaf:
        raise DomainError("the bare leaf has no path (empty path excluded)")
    steps: list[str] = []

    def walk(node: PlanarTree) -> None:
        if node.is_leaf:
            return
        last = len(node.children) - 1
        for k, child in enumerate(node.children):
            steps.append("H" if k == 0 else ("V" if k == last else "D"))
            walk(child)

    walk(pt)
    return tuple(steps)


def path_to_tree(p: Sequence[str]) -> PlanarTree:
    """Inverse of `tree_to_path` on plus-class paths."""
    n, m = schroder_params(p)
    if has_diagonal_double(p):
        raise DomainError("path has a diagonal step on the diagonal")
    if not p:
        raise DomainError("empty path has no tree")
    pos = 0

    def parse_node() -> PlanarTree:
        nonlocal pos
        if pos >= len(p) or p[pos] != "H":
            raise DomainError(f"expected H at step {pos}")
        pos += 1
        children = [parse_child()]
        while pos < len(p) and p[pos] == "D":
            pos += 1
            children.append(parse_child())
        if pos >= len(p) or p[pos] != "V":
            raise DomainError(f"expected V at step {pos}")
        pos += 1
        children.append(parse_child())
        return PTree(children)

    def parse_child() -> PlanarTree:
        if pos < len(p) and p[pos] == "H":
            return parse_node()
        return LEAF

    tree = parse_node()
    if pos != len(p):
        raise DomainError(f"trailing steps after position {pos}")
    return tree


# ---------------------------------------------------------------------------
# Plus class <-> zero class (one H/V pair for one diagonal D)
# ---------------------------------------------------------------------------

def to_zero_class(p: Sequence[str]) -> Path:
    """Send a plus-class path with m+1 horizontals to a zero-class path
    with m: drop the outer H…V frame; if the remaining core stays weakly
    under its own diagonal, append D; otherwise the first V crossing the
    core diagonal (necessarily leaving a core-diagonal point) becomes D
    and a V is appended."""
    n, m1 = schroder_params(p)
    if has_diagonal_double(p):
        raise DomainError("input must be in the plus class")
    if m1 < 1 or p[0] != "H" or p[-1] != "V":
        raise DomainError("plus-class path must start with H and end with V")
    core = list(p[1:-1])
    # track the core in its own coordinates
    x = y = 0
    crossing = None
    for k, s in enumerate(core):
        if s == "H":
            x += 1
        elif s == "V":
            y += 1
            if y > x and crossing is None:
                crossing = k
        else:
            x += 1
            y += 1
    if crossing is None:
        out = tuple(core) + ("D",)
    else:
        core[crossing] = "D"
        out = tuple(core) + ("V",)
    nn, mm = schroder_params(out)
    if (nn, mm) != (n, m1 - 1) or not has_diagonal_double(out):
        raise DomainError("internal error: image not in the zero class")
    return out


def to_plus_class(q: Sequence[str]) -> Path:
    """Inverse: a zero-class path ending in D loses that D and gains the
    H…V frame; one ending in V has its last diagonal-touching D turned
    back into V before framing."""
    n, m = schroder_params(q)
    if not has_diagonal_double(q):
        raise DomainError("input must be in the zero class")
    if q[-1] == "D":
        out = ("H",) + tuple(q[:-1]) + ("V",)
    else:
        core = list(q[:-1])  # the trailing V is absorbed into the frame
        x = y = 0
        last_diag = None
        for k, s in enumerate(core):
            if s == "D":
                if x == y:
                    last_diag = k
                x += 1
                y += 1
            elif s == "H":
                x += 1
            else:
                y += 1
        if last_diag is None:
            raise DomainError("no diagonal D before the trailing V")
        core[last_diag] = "V"
        out = ("H",) + tuple(core) + ("V",)
    nn, mm = schroder_params(out)
    if (nn, mm) != (n, m + 1) or has_diagonal_double(out):
        raise DomainError("internal error: image not in the plus class")
    return out


# ---------------------------------------------------------------------------
# Forced-label trees <-> colored mountain paths
# ---------------------------------------------------------------------------

_22 = parse_family("2,2")

# token pairs -> emitted steps; the (V, DH) pair is special-cased
_PAIR_IMAGES = {
    ("H", "V"): ("Hr",),
    ("H", "DH"): ("Ub", "Hr"),
    ("H", "H"): ("Ur",),
    ("DH", "V"): ("Ub", "D"),
    ("DH", "DH"): ("Ub", "Ub", "D"),
    ("DH", "H"): ("Ub", "Hb"),
    ("V", "V"): ("D",),
    ("V", "H"): ("Hb",),
}


def _core_tokens(core: Sequence[str]) -> list[str]:
    """Tokenize a restricted core: D always pairs with the following H."""
    tokens = []
    k = 0
    while k < len(core):
        if core[k] == "D":
            if k + 1 >= len(core) or core[k + 1] != "H":
                raise DomainError("core has a D not followed by H")
            tokens.append("DH")
            k += 2
        else:
            tokens.append(core[k])
            k += 1
    return tokens


def _rewrite_pairs(pairs: Sequence[tuple[str, str]]) -> tuple:
    """Replay the pairwise rewriting, including the backward insertion."""
    out: list[str] = []
    height = 0
    for pair in pairs:
        if pair == ("V", "DH"):
            if height < 1:
                raise DomainError("level-crossing pair at height 0")
            # rightmost up step rising into the current height
            idx = None
            h = 0
            for i, s in enumerate(out):
                if s[0] == "U" and h == height - 1:
                    idx = i
                h += _step_rise(s)
            if idx is None:
                raise DomainError("no up step to the current height")
            out.insert(idx, "Ub")
            out.append("D")
        else:
            if pair not in _PAIR_IMAGES:
                raise DomainError(f"invalid token pair {pair}")
            out.extend(_PAIR_IMAGES[pair])
            for s in _PAIR_IMAGES[pair]:
                height += _step_rise(s)
    return tuple(out)


def to_colored_motzkin(t: Tree) -> Path:
    """Encode a forced-label tree with root label 1 as a colored
    mountain path of length (angle degree − 1)."""
    problems = validate(_22, t)
    if problems:
        raise DomainError("not a valid fully-forced tree: " + "; ".join(problems))
    if t.label != 1:
        raise DomainError("root label must be 1 (raise a root-0 tree first)")
    p = tree_to_path(strip_angles(t))
    tokens = _core_tokens(p[1:-1])
    if len(tokens) % 2:
        raise DomainError("internal error: odd token count")
    pairs = [(tokens[k], tokens[k + 1]) for k in range(0, len(tokens), 2)]
    return _rewrite_pairs(pairs)


def _ub_subsequence_ok(replay: Sequence[str], target: Sequence[str]) -> bool:
    """Necessary condition: replay must embed into target using only
    skips of Ub steps (later rewriting only inserts Ub or appends)."""
    j = 0
    for s in replay:
        while j < len(target) and target[j] != s and target[j] == "Ub":
            j += 1
        if j >= len(target) or target[j] != s:
            return False
        j += 1
    return True


def from_colored_motzkin(path: Sequence[str]) -> Tree:
    """Decode a colored mountain path back to the forced-label tree.

    Inverts the pairwise rewriting by a backtracking search over token
    pairs, replaying the forward rewriting to confirm the match; the
    search is exact because later pairs only append steps or insert Ub.
    """
    path = tuple(path)
    for s in path:
        if s not in ("Ur", "Ub", "Hr", "Hb", "D"):
            raise DomainError(f"unexpected step {s!r} for a colored mountain path")
    if not motzkin_heights_ok(path):
        raise DomainError("not a valid mountain path")
    matches: list[tuple] = []

    def dfs(pairs: list, replay: tuple) -> None:
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
    if not matches:
        raise DomainError("path is not in the image of the tree encoding")
    if len(matches) > 1:
        raise DomainError("internal error: ambiguous decoding")
    tokens: list[str] = []
    for a, b in matches[0]:
        tokens.extend([a, b])
    core: list[str] = []
    for tok in tokens:
        core.extend(["D", "H"] if tok == "DH" else [tok])
    p = ("H",) + tuple(core) + ("V",)
    return restore_angles(path_to_tree(p))


# ---------------------------------------------------------------------------
# Rotation between diagonal and mountain paths
# ---------------------------------------------------------------------------

_ROTATE = {"H": "U", "V": "D", "D": "H"}
_UNROTATE = {v: k for k, v in _ROTATE.items()}


def rotate_to_motzkin(p: Sequence[str]) -> Path:
    """H→U, V→D, D→H; a diagonal path with parameters (n, m) becomes a
    mountain path of length n+m."""
    schroder_params(p)
    return tuple(_ROTATE[s] for s in p)


def rotate_from_motzkin(p: Sequence[str]) -> Path:
    if not motzkin_heights_ok(p) or any(len(s) > 1 for s in p):
        raise DomainError("input must be an uncolored valid mountain path")
    return tuple(_UNROTATE[s] for s in p)


# ---------------------------------------------------------------------------
# Tree encodings for the free-angle forced-operator family
# ---------------------------------------------------------------------------

def encode_positive(t: Tree) -> Path:
    """Positive-root tree -> plus-class path (shape reading after angle
    stripping)."""
    return tree_to_path(strip_angles(t))


def decode_positive(p: Sequence[str]) -> Tree:
    """Plus-class path -> the root-label-1 tree."""
    return restore_angles(path_to_tree(p))


def encode_zero(t: Tree) -> Path:
    """Root-0 tree -> zero-class path: raise the root, encode, then
    trade the frame for a diagonal D."""
    if t.is_leaf or t.label != 0:
        raise DomainError("input must have root label 0")
    return to_zero_class(encode_positive(with_root_label(t, 1)))


def decode_zero(q: Sequence[str]) -> Tree:
    """Zero-class path -> the root-label-0 tree."""
    t = decode_positive(to_plus_class(q))
    return with_root_label(t, 0)
