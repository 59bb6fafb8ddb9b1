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

* ``encode_positive`` / ``decode_positive`` — a decorated tree with
  positive root and its plus-class path, read in one walk of the tree or
  one pass over the path, building no planar tree: the path of ``t`` is
  the reading of ``strip_angles(t)``, so an angle label j gives the j−1
  ``D`` steps of the interior leaves it stands for, then the ``D`` or
  ``V`` of the next child; ``encode_zero`` / ``decode_zero`` add the
  class trade below for root label 0;
* the planar API, the same maps as the paper composes them:
  ``strip_angles`` / ``restore_angles`` (defined in `trees`, which owns
  the conversion, and re-exported here) trade angle labels for runs of
  interior leaves (label j becomes j−1 leaves) between a decorated tree
  with positive root and its bare planar shape, and ``tree_to_path`` /
  ``path_to_tree`` read a planar tree depth first: ``H`` at the leftmost
  child, ``D`` at each interior child, ``V`` at the rightmost, each
  emitted before descending;
* ``to_zero_class`` / ``to_plus_class`` — trade the outer ``H``…``V``
  frame of a plus-class path for a diagonal ``D``, converting between
  the plus class with m+1 horizontals and the zero class with m;
* ``to_colored_motzkin`` / ``from_colored_motzkin`` — the pairwise token
  rewriting that encodes a forced-label tree as a colored mountain path
  two steps shorter than its diagonal path (read by the same walk), and
  its inverse in one pass:
  up steps matched with their down steps show which ``Ub`` steps a
  ``(V, DH)`` pair inserted, and the rest reads as a prefix code;
* ``rotate_to_motzkin`` / ``rotate_from_motzkin`` — the 45-degree
  relabeling H→U, V→D, D→H.

Membership predicates are total; conversion functions validate their
inputs and raise `DomainError` outside the stated classes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import DomainError
from .scan import Cursor
from .trees import (
    F22, FI2, LEAF, Node, PTree, PlanarTree, Tree,
    intern_node, raised, require_valid, restore_angles, strip_angles,
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
    (``Ub Hr D``); colored steps are a letter plus ``r``/``b``.  An
    unknown step is reported at its own offset in the stripped text."""
    cur = Cursor(text.strip())
    spaced = any(ch.isspace() for ch in cur.text)
    tokens: list[str] = []
    while ch := cur.ws():
        start = cur.pos
        if spaced:
            cur.span(lambda c: not c.isspace())
        elif ch not in "HVDU":
            raise cur.error("unknown step letter")
        else:
            cur.pos += 1
            if cur.peek() in ("r", "b"):
                cur.pos += 1
        tok = cur.text[start:cur.pos]
        if tok not in _STEP_TOKENS:
            raise cur.error(f"unknown step {tok!r}", start)
        tokens.append(tok)
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

def _walk(steps: Sequence[str]) -> tuple:
    """One pass over a diagonal path.  Returns the index of the first
    letter other than H, V, D; the index of the first step above the
    diagonal; x − y at the end; the number of H steps; the index of the
    last D that starts on the diagonal; and the index of the first V that
    ends on it.  An index is None when no step qualifies.  Other letters
    move like D, so the predicates read from this walk are total."""
    bad = rise = diag = back = None
    gap = hs = 0  # x − y
    for k, s in enumerate(steps):
        if s == "H":
            gap += 1
            hs += 1
        elif s == "V":
            gap -= 1
            if gap < 0 and rise is None:
                rise = k
            elif gap == 0 and back is None:
                back = k
        elif s == "D":
            if gap == 0:
                diag = k
        elif bad is None:
            bad = k
    return bad, rise, gap, hs, diag, back


def _checked(steps: Sequence[str]) -> tuple:
    """``(n, m, last diagonal D, first V back on the diagonal)`` of a
    well-formed diagonal path, from one walk; raises as `schroder_params`
    does otherwise."""
    bad, rise, gap, hs, diag, back = _walk(steps)
    if bad is not None:
        raise DomainError("diagonal paths use steps H, V, D only")
    if gap:
        raise DomainError(f"unbalanced path: {hs} H steps vs {hs - gap} V steps")
    if rise is not None:
        raise DomainError("path rises above the diagonal")
    return len(steps) - hs, hs, diag, back


def schroder_params(steps: Sequence[str]) -> tuple[int, int]:
    """(n, m) for a well-formed diagonal path; raises otherwise."""
    n, m, _, _ = _checked(steps)
    return n, m


def is_underdiagonal(steps: Sequence[str]) -> bool:
    return _walk(steps)[1] is None


def has_diagonal_double(steps: Sequence[str]) -> bool:
    """True when some D step starts (hence lies) on the main diagonal."""
    return _walk(steps)[4] is not None


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


def _mountain_fault(steps: Sequence[str]) -> tuple | None:
    """The first fault of a mountain path as ``(reason, index)``: a bad
    letter or a dip, whichever comes first, then a wrong end height."""
    h = 0
    for k, s in enumerate(steps):
        if s[0] not in "UHD":
            return "bad step letter", k
        h += _step_rise(s)
        if h < 0:
            return "dips below the axis", k
    if h:
        return f"ends at height {h}", len(steps) - 1
    return None


def motzkin_heights_ok(steps: Sequence[str]) -> bool:
    """Never below the axis and ends on it (colored steps allowed)."""
    return _mountain_fault(steps) is None


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
        bad, rise, gap, hs, diag, _ = _walk(steps)
        if bad is not None:
            report.update(valid=False, reason="bad step letter", index=bad)
        elif rise is not None:
            report.update(valid=False, reason="rises above diagonal", index=rise)
        elif gap:
            report.update(valid=False, reason="does not end on the diagonal",
                          index=len(steps) - 1)
        else:
            report.update(
                valid=True, n=len(steps) - hs, m=hs,
                plus_class=diag is None, zero_class=diag is not None,
                restricted=is_restricted_schroder(steps),
            )
        return report
    if kind == "motzkin":
        fault = _mountain_fault(steps)
        if fault:
            report.update(valid=False, reason=fault[0], index=fault[1])
        else:
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
def _diagonal_paths(n: int, m: int) -> tuple:
    """``(all, plus class, zero class)`` of the diagonal paths with m H,
    m V, n−m D, each canonically ordered, from one enumeration that
    notes whether a D was taken on the diagonal."""
    if n < 0 or m < 0 or m > n:
        return (), (), ()
    found: list[tuple] = []
    _grow_diagonal(found, [], 0, m, m, n - m, False)
    plus: list[tuple] = []
    zero: list[tuple] = []
    for p, on_diagonal in found:
        (zero if on_diagonal else plus).append(p)
    return tuple(p for p, _ in found), tuple(plus), tuple(zero)


def _grow_diagonal(found: list, prefix: list, gap: int,
                   h: int, v: int, d: int, on_diagonal: bool) -> None:
    """Append ``(path, on_diagonal)`` for every completion of ``prefix``
    with h more H, v more V and d more D steps; ``gap`` is x − y.  Each
    step tries D, H, V in turn, so the paths come out sorted."""
    if h == 0 and v == 0 and d == 0:
        found.append((tuple(prefix), on_diagonal))
        return
    if d:
        prefix.append("D")
        _grow_diagonal(found, prefix, gap, h, v, d - 1, on_diagonal or not gap)
        prefix.pop()
    if h:
        prefix.append("H")
        _grow_diagonal(found, prefix, gap + 1, h - 1, v, d, on_diagonal)
        prefix.pop()
    if v and gap:
        prefix.append("V")
        _grow_diagonal(found, prefix, gap - 1, h, v - 1, d, on_diagonal)
        prefix.pop()


def schroder_paths(n: int, m: int) -> tuple:
    """All diagonal paths with m H, m V, n−m D, canonically ordered."""
    return _diagonal_paths(n, m)[0]


def plus_paths(n: int, m: int) -> tuple:
    return _diagonal_paths(n, m)[1]


def zero_paths(n: int, m: int) -> tuple:
    return _diagonal_paths(n, m)[2]


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
    _grow_mountain(out, [], 0, length, (("D", -1), ("H", 0), ("U", 1)))
    return tuple(out)


def _grow_mountain(out: list, prefix: list, h: int, left: int, steps: tuple) -> None:
    """Append every completion of ``prefix``, now at height h, by
    ``left`` more steps that end on the axis.  ``steps`` holds
    ``(letter, rise)`` pairs; trying the letters in string order lists
    the completions sorted."""
    if left == 0:
        if h == 0:
            out.append(tuple(prefix))
        return
    for s, rise in steps:
        nh = h + rise
        if 0 <= nh < left:  # pruning: must be able to return to 0
            prefix.append(s)
            _grow_mountain(out, prefix, nh, left - 1, steps)
            prefix.pop()


@lru_cache(maxsize=None)
def colored_motzkin_paths(length: int) -> tuple:
    """Mountain paths of the given length with level AND up steps
    two-colored, canonically ordered."""
    out: list[tuple] = []
    _grow_mountain(out, [], 0, length,
                   (("D", -1), ("Hb", 0), ("Hr", 0), ("Ub", 1), ("Ur", 1)))
    return tuple(out)


@lru_cache(maxsize=None)
def level_colored_motzkin_paths(length: int) -> tuple:
    """Mountain paths with only the level steps two-colored."""
    out: list[tuple] = []
    _grow_mountain(out, [], 0, length, (("D", -1), ("Hb", 0), ("Hr", 0), ("U", 1)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Planar tree <-> diagonal path
# ---------------------------------------------------------------------------

def tree_to_path(pt: PlanarTree) -> Path:
    """Depth-first reading: H before the leftmost child, D before each
    interior child, V before the rightmost; leaves emit nothing."""
    if pt.is_leaf:
        raise DomainError("the bare leaf has no path (empty path excluded)")
    steps: list[str] = []
    _read_steps(pt, steps)
    return tuple(steps)


def _read_steps(node: PTree, steps: list) -> None:
    """Append the steps of ``node``'s reading to ``steps``."""
    last = len(node.children) - 1
    for k, child in enumerate(node.children):
        steps.append("H" if k == 0 else ("V" if k == last else "D"))
        if not child.is_leaf:
            _read_steps(child, steps)


def path_to_tree(p: Sequence[str]) -> PlanarTree:
    """Inverse of `tree_to_path` on plus-class paths.

    Every non-empty plus-class path is the reading of a tree, so once
    the class checks pass the parse cannot fail: it starts with H, each
    node's children run to its V, and the root's last child ends the
    path.
    """
    if _checked(p)[2] is not None:
        raise DomainError("path has a diagonal step on the diagonal")
    if not p:
        raise DomainError("empty path has no tree")
    return _parse_node(p, 0)[0]


def _parse_node(p: Sequence[str], pos: int) -> tuple:
    """The tree read from the H at ``pos``, and the position after it."""
    child, pos = _parse_child(p, pos + 1)  # past the H
    children = [child]
    while p[pos] == "D":
        child, pos = _parse_child(p, pos + 1)
        children.append(child)
    child, pos = _parse_child(p, pos + 1)  # past the V
    children.append(child)
    return PTree(children), pos


def _parse_child(p: Sequence[str], pos: int) -> tuple:
    if pos < len(p) and p[pos] == "H":
        return _parse_node(p, pos)
    return LEAF, pos


# ---------------------------------------------------------------------------
# Plus class <-> zero class (one H/V pair for one diagonal D)
# ---------------------------------------------------------------------------

def to_zero_class(p: Sequence[str]) -> Path:
    """Send a plus-class path with m+1 horizontals to a zero-class path
    with m.  Write the path as ``H A V B`` with ``H A V`` its first return
    to the diagonal; the image is ``A D B``.  (In the core between the
    outer H…V frame, that V is the first step above the core's diagonal,
    or the frame's own V when the core stays under it.)"""
    n, m1, diag, back = _checked(p)
    if diag is not None:
        raise DomainError("input must be in the plus class")
    if m1 < 1 or p[0] != "H" or p[-1] != "V":
        raise DomainError("plus-class path must start with H and end with V")
    out = tuple(p[1:back]) + ("D",) + tuple(p[back + 1:])
    # Certificate: a second walk checks that the cut gave a zero-class path.
    nn, mm, out_diag, _ = _checked(out)
    if (nn, mm) != (n, m1 - 1) or out_diag is None:
        raise DomainError("internal error: image not in the zero class")
    return out


def to_plus_class(q: Sequence[str]) -> Path:
    """Inverse: write a zero-class path as ``A D B`` with that D the last
    one starting on the diagonal; the image is ``H A V B``.  (A final D
    is dropped and framed by H…V; otherwise that D turns back into V and
    the trailing V becomes the frame's.)"""
    n, m, diag, _ = _checked(q)
    if diag is None:
        raise DomainError("input must be in the zero class")
    out = ("H",) + tuple(q[:diag]) + ("V",) + tuple(q[diag + 1:])
    # Certificate: a second walk checks that the frame gave a plus-class path.
    nn, mm, out_diag, _ = _checked(out)
    if (nn, mm) != (n, m + 1) or out_diag is not None:
        raise DomainError("internal error: image not in the plus class")
    return out


# ---------------------------------------------------------------------------
# Forced-label trees <-> colored mountain paths
# ---------------------------------------------------------------------------

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
# the other direction: no image is a prefix of another, so a path reads
# back into images one step at a time
_PAIR_OF = {image: pair for pair, image in _PAIR_IMAGES.items()}


def _core_tokens(core: Sequence[str]) -> list[str]:
    """Tokenize a restricted core: D always pairs with the following H,
    which the core of a valid 2,2 tree's path always has."""
    tokens = []
    k = 0
    while k < len(core):
        if core[k] == "D":
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
            # rightmost up step rising into the current height, which a
            # path at height >= 1 always has
            h = 0
            for i, s in enumerate(out):
                if s[0] == "U" and h == height - 1:
                    idx = i
                h += _step_rise(s)
            out.insert(idx, "Ub")
            out.append("D")
        else:  # each of the other eight pairs over H, V, DH has an image
            out.extend(_PAIR_IMAGES[pair])
            for s in _PAIR_IMAGES[pair]:
                height += _step_rise(s)
    return tuple(out)


def to_colored_motzkin(t: Tree) -> Path:
    """Encode a forced-label tree with root label 1 as a colored
    mountain path of length (angle degree − 1)."""
    require_valid(F22, t, "not a valid fully-forced tree")
    if t.label != 1:
        raise DomainError("root label must be 1 (raise a root-0 tree first)")
    p: list[str] = []
    _emit_steps(t, p)
    tokens = _core_tokens(p[1:-1])
    # Certificate: the core of a 2,2 tree's path has an even token count.
    if len(tokens) % 2:
        raise DomainError("internal error: odd token count")
    pairs = [(tokens[k], tokens[k + 1]) for k in range(0, len(tokens), 2)]
    return _rewrite_pairs(pairs)


def from_colored_motzkin(path: Sequence[str]) -> Tree:
    """Decode a colored mountain path back to the forced-label tree.

    One pass matches each up step with the down step that closes it.  A
    ``(V, DH)`` pair inserts ``Ub`` just before an up step ``u`` and
    appends the ``D`` that closes ``u``.  The only other ``Ub`` followed
    by an up step is the first of ``Ub Ub D``, the image of ``(DH, DH)``,
    whose second ``Ub`` the very next step closes.  Dropping the inserted
    ``Ub`` steps and reading each appended ``D`` as ``(V, DH)`` leaves
    the images of the other pairs in order, and those images form a
    prefix code.  Every colored mountain path encodes a tree, so a result
    that does not encode back to the path is an internal error.
    """
    path = tuple(path)
    for s in path:
        if s not in ("Ur", "Ub", "Hr", "Hb", "D"):
            raise DomainError(f"unexpected step {s!r} for a colored mountain path")
    if not motzkin_heights_ok(path):
        raise DomainError("not a valid mountain path")
    closer: dict[int, int] = {}
    ups: list[int] = []
    for k, s in enumerate(path):
        if s == "D":
            closer[ups.pop()] = k
        elif s[0] == "U":
            ups.append(k)
    appended: set[int] = set()  # the D steps of (V, DH) pairs
    pairs: list[tuple[str, str]] = []
    image: tuple = ()
    for k, s in enumerate(path):
        if k in appended:
            pairs.append(("V", "DH"))
        elif (s == "Ub" and k + 1 < len(path) and path[k + 1][0] == "U"
              and path[k + 1:k + 3] != ("Ub", "D")):
            appended.add(closer[k + 1])  # an inserted Ub: drop it
        else:
            image += (s,)
            if image in _PAIR_OF:
                pairs.append(_PAIR_OF[image])
                image = ()
    core = "".join(a + b for a, b in pairs)  # token DH is the steps D, H
    t = decode_positive(("H",) + tuple(core) + ("V",))
    if to_colored_motzkin(t) != path:
        raise DomainError("internal error: the decoded tree does not encode back")
    return t


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
    """Positive-root tree -> plus-class path: the reading of
    ``strip_angles(t)``, taken from ``t`` in one walk."""
    require_valid(FI2, t, "not a valid forced-label tree")
    if t.label == 0:
        raise DomainError("root label 0: raise the root before stripping")
    steps: list[str] = []
    _emit_steps(t, steps)
    return tuple(steps)


def _emit_steps(t: Node, steps: list) -> None:
    """Append the reading of the stripped ``t`` to ``steps``: H before the
    first child, then for each angle ``a`` the ``a - 1`` D steps of its
    interior leaves and a D before the next child, or a V before the
    last."""
    steps.append("H")
    kids = t.children
    if not kids[0].is_leaf:
        _emit_steps(kids[0], steps)
    last = len(kids) - 1
    for k, angle in enumerate(t.angles, 1):
        if angle > 1:
            steps += ["D"] * (angle - 1)
        steps.append("V" if k == last else "D")
        if not kids[k].is_leaf:
            _emit_steps(kids[k], steps)


def decode_positive(p: Sequence[str]) -> Tree:
    """Plus-class path -> the root-label-1 tree."""
    return _decode(p, 1)


def _decode(p: Sequence[str], label: int) -> Node:
    """``restore_angles(path_to_tree(p))`` with root label ``label``,
    read from ``p`` in one pass; raises as `path_to_tree` does."""
    if _checked(p)[2] is not None:
        raise DomainError("path has a diagonal step on the diagonal")
    if not p:
        raise DomainError("empty path has no tree")
    return _read_node(p, 0, label)[0]


def _read_node(p: Sequence[str], pos: int, label: int) -> tuple:
    """The decorated tree read from the H at ``pos`` with root label
    ``label``, and the position after it.  A child starts after this
    node's H, after each of its D steps and after its V: an H there
    starts a node, and anything else is a leaf.  The first and last
    children always stay, and a leaf after a D is interior: it widens
    the angle before the next child that stays.  Once the class checks
    pass, each node's D steps run to its V."""
    end = len(p)
    children: list = []
    angles: list = []
    angle = 1
    while True:
        step = p[pos]  # this node's H, one of its D steps, or its V
        pos += 1
        if pos < end and p[pos] == "H":
            child, pos = _read_node(p, pos, 1)
        elif step == "D":
            angle += 1
            continue
        else:
            child = LEAF
        if children:
            angles.append(angle)
            angle = 1
        children.append(child)
        if step == "V":
            return intern_node(label, tuple(children), tuple(angles)), pos


def encode_zero(t: Tree) -> Path:
    """Root-0 tree -> zero-class path: raise the root, encode, then
    trade the frame for a diagonal D."""
    if t.is_leaf or t.label != 0:
        raise DomainError("input must have root label 0")
    return to_zero_class(encode_positive(raised(t)))


def decode_zero(q: Sequence[str]) -> Tree:
    """Zero-class path -> the root-label-0 tree."""
    return _decode(to_plus_class(q), 0)
