"""Named verification suites run by the ``verify`` subcommand.

Every suite checks one slab of the library against an independent
oracle: closed formulas against grammar-level counting and explicit
enumeration, algebraic identities against brute-force expansion over
Z[l], bijections against exhaustive round-trips and image counts, and
frozen worked examples against recomputation.  The acceptance tests
call the same suite functions, so the command line and the test suite
cannot drift apart.

Each suite is a generator of ``(bounds, rng)`` that yields its checks in
order, each as its name and its list of counterexamples; an empty list
is a pass.  `run_suite` is the one place where a yielded check becomes
a `CheckResult`.

Two budgets are provided: ``desk`` runs each suite at its full
advertised bounds, ``quick`` at reduced bounds for a fast smoke.  The
seed only feeds the randomized spot checks layered on top of the
exhaustive sweeps; all exhaustive bounds are fixed by the budget.
"""

from __future__ import annotations

import os
import random
import time
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .baxter_core import (
    LinComb, _collector_paused, beta, beta_lc, circle, circle_lc,
    circle_power, decompose, degraft, generator, graft, morphism,
    morphism_lc, recompose, star, star_lc, tree_lincomb_parser,
)
from .counting import (
    BiSeries, binomial_transform, binomial_transform_table, catalan,
    dim_formula, monomial_dims, monomial_series, sequence, series_coeffs,
)
from .dendriform import (
    dend_op, dt_dim, embed_dialgebra, embed_trialgebra, rb_dendriform,
)
from .errors import DomainError
from .monomial import (
    Word, beta_word, concat_words, enumerate_words, pi_map, pi_word,
    pi_word_recursive, tilde_equiv, word_quotient,
)
from .paths import (
    colored_motzkin_paths, decode_positive, decode_zero, encode_positive,
    encode_zero, from_colored_motzkin, motzkin_paths, path_to_tree,
    plus_paths, restore_angles, restricted_plus_paths, restricted_zero_paths,
    rotate_from_motzkin, rotate_to_motzkin, schroder_paths, strip_angles,
    to_colored_motzkin, to_plus_class, to_zero_class, tree_to_path,
    zero_paths,
)
from .scalars import LAMBDA
from .trees import (
    F22, F2I, FAMILIES, FI2, FII, INF, LEAF, Family, Tree,
    bidegree, binary_trees, count_trees,
    enumerate_positive_root, enumerate_trees, enumerate_zero_root, parse_tree,
    planar_trees,
)

__all__ = [
    "CheckResult", "SuiteResult", "SUITES", "BUDGETS", "DEFAULT_SEED",
    "run_suite", "run_suites",
]

DEFAULT_SEED = 271828
BUDGETS = ("quick", "desk")

# Per-suite size knobs.  The desk values are the bounds the library
# advertises; quick never exceeds them, for fast smokes.
_BOUNDS = {
    "quick": dict(
        dims_forced=(5, 5), dims_free=(5, 5), dims_cross=4,
        marg_row=4, marg_total=4, marg_col=5,
        transforms=4,
        series_total=6, series_sub=6, series_spot=4,
        ident_pair=2, ident_assoc=2, ident_quasi=4, ident_spot=0,
        bij_n=5, bij_square=4, bij_card=5, bij_spot=0,
        morph_fix=4, morph_pair=2, morph_single=3, morph_diamond=3,
        morph_decomp=4,
        mono_pi=4, mono_pairs=4, mono_free=6, mono_collapsed=8,
        mono_morph=2, mono_spot=20,
        dend_leaves=3, dend_rb=2, dend_embed=4, dend_dt=5, dend_card=6,
    ),
    "desk": dict(
        dims_forced=(9, 9), dims_free=(7, 7), dims_cross=6,
        marg_row=6, marg_total=6, marg_col=8,
        transforms=6,
        series_total=8, series_sub=8, series_spot=6,
        ident_pair=3, ident_assoc=2, ident_quasi=5, ident_spot=24,
        bij_n=7, bij_square=6, bij_card=7, bij_spot=80,
        morph_fix=5, morph_pair=3, morph_single=4, morph_diamond=4,
        morph_decomp=5,
        mono_pi=5, mono_pairs=5, mono_free=8, mono_collapsed=10,
        mono_morph=3, mono_spot=60,
        dend_leaves=4, dend_rb=3, dend_embed=5, dend_dt=7, dend_card=8,
    ),
}


class CheckResult:
    """Outcome of one named check inside a suite."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def __repr__(self) -> str:
        return f"CheckResult({self.name!r}, ok={self.ok})"


class SuiteResult:
    """Outcome of one suite: a list of checks plus wall time."""

    __slots__ = ("suite", "checks", "elapsed")

    def __init__(self, suite: str, checks: Sequence[CheckResult], elapsed: float):
        self.suite = suite
        self.checks = tuple(checks)
        self.elapsed = elapsed

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# What a suite yields, one check at a time: its name and its list of
# counterexamples, empty when the check passes.
Checks = Iterator[tuple[str, list]]


def _trees_upto(family: Family, total: int) -> list[Tree]:
    """All basis trees of the family with n + m <= total."""
    out: list[Tree] = []
    for n in range(1, total + 1):
        for m in range(0, total - n + 1):
            out.extend(enumerate_trees(family, n, m))
    return out


# ---------------------------------------------------------------------------
# dimensions: counts against closed formulas
# ---------------------------------------------------------------------------

def _suite_dimensions(b: dict, rng: random.Random) -> Checks:
    npp, mpp = b["dims_forced"]
    bad = [
        (n, m, count_trees(F22, n, m), dim_formula(F22, n, m))
        for n in range(1, npp + 1)
        for m in range(0, mpp + 1)
        if count_trees(F22, n, m) != dim_formula(F22, n, m)
    ]
    yield f"forced-label counts match C(m)*binom(m+1, n-m) on 1..{npp} x 0..{mpp}", bad

    nff, mff = b["dims_free"]
    bad = [
        (n, m)
        for n in range(1, nff + 1)
        for m in range(0, mff + 1)
        if count_trees(FI2, n, m) != dim_formula(FI2, n, m)
    ]
    yield f"free-angle counts match C(m)*binom(n+m, n-m) on 1..{nff} x 0..{mff}", bad

    k = b["dims_cross"]
    bad = []
    for family in FAMILIES:
        for n in range(1, k + 1):
            for m in range(0, k + 1):
                listed = len(enumerate_trees(family, n, m))
                counted = count_trees(family, n, m)
                formula = dim_formula(family, n, m)
                if not (listed == counted == formula):
                    bad.append((family, n, m, listed, counted, formula))
    yield (f"enumeration, grammar count, and formula agree for all families up to {k}",
           bad)


# ---------------------------------------------------------------------------
# marginals: row, column, and total-degree sums against named sequences
# ---------------------------------------------------------------------------

def _suite_marginals(b: dict, rng: random.Random) -> Checks:
    r = b["marg_row"]
    bad = []
    for n in range(1, r + 1):
        row = sum(count_trees(FI2, n, m) for m in range(0, n + 1))
        want = sequence("schroder_large", n)
        if row != want:
            bad.append((n, row, want))
    yield f"free-angle row sums are the large Schroeder numbers up to n={r}", bad

    k = b["marg_total"]
    bad = []
    for d in range(1, k + 1):
        total = sum(count_trees(FI2, n, d - n) for n in range(1, d + 1))
        want = sequence("motzkin", d)
        if total != want:
            bad.append((d, total, want))
    yield f"free-angle total-degree counts are the Motzkin numbers up to {k}", bad

    c = b["marg_col"]
    bad = []
    for m in range(1, c + 1):
        col = sum(count_trees(F22, n, m) for n in range(m, 2 * m + 2))
        if col != 2 ** (m + 1) * catalan(m):
            bad.append((m, col, 2 ** (m + 1) * catalan(m)))
    yield f"forced-label column sums are 2^(m+1)*C(m) for 1 <= m <= {c}", bad


# ---------------------------------------------------------------------------
# transforms: the binomial-transform relations between the four tables
# ---------------------------------------------------------------------------

def _suite_transforms(b: dict, rng: random.Random) -> Checks:
    top = b["transforms"]
    tables = {
        family: {
            (n, m): len(enumerate_trees(family, n, m))
            for n in range(1, top + 1)
            for m in range(0, top + 1)
        }
        for family in FAMILIES
    }

    def forced(n: int, m: int) -> int:
        return tables[F22][(n, m)]

    def free_angle(n: int, m: int) -> int:
        return tables[FI2][(n, m)]

    for family, first, name in (
        (FI2, True, "free-angle table is the first-variable transform of forced"),
        (F2I, False, "free-label table is the second-variable transform of forced"),
    ):
        bad = [
            (n, m)
            for n in range(1, top + 1)
            for m in range(1, top + 1)
            if tables[family][(n, m)] != binomial_transform_table(
                forced, n, m, in_first=first, in_second=not first)
        ]
        yield name, bad

    bad = []
    for n in range(1, top + 1):
        for m in range(1, top + 1):
            both = binomial_transform_table(forced, n, m)
            via_free_angle = binomial_transform_table(
                free_angle, n, m, in_first=False, in_second=True
            )
            if tables[FII][(n, m)] != both or both != via_free_angle:
                bad.append((n, m))
    yield "doubly free table is the transform in both variables", bad

    bad = [
        (family, n, 0)
        for family in (F2I, FII)
        for n in range(1, top + 1)
        if tables[family][(n, 0)] != (1 if family.i == INF or n == 1 else 0)
    ]
    yield "label-free families keep the forced corner-tree row at m=0", bad


# ---------------------------------------------------------------------------
# series: generating functions against the enumerated tables
# ---------------------------------------------------------------------------

def _suite_series(b: dict, rng: random.Random) -> Checks:
    top = b["series_total"]
    bad = []
    for family in FAMILIES:
        gf = series_coeffs(family, top, top)
        for n in range(0, top + 1):
            for m in range(0, top - n + 1):
                want = count_trees(family, n, m) if n >= 1 else 0
                if gf.coeff(n, m) != want:
                    bad.append((family, n, m, gf.coeff(n, m), want))
    yield f"all four series match enumeration to total degree {top}", bad

    bad = []
    for d, total in enumerate(series_coeffs(FI2, top, top).diagonal()[1:], start=1):
        want = sequence("motzkin", d)
        if total != want:
            bad.append((d, total, want))
    yield "free-angle series sums to the Motzkin numbers along total degree", bad

    # Substituting x/(1-x) into the collapsed monomial series gives the
    # free one, order by order.
    s = b["series_sub"]
    free = monomial_series("infinity", s, s)
    collapsed = monomial_series("two", s, s)
    x = BiSeries.x(s, s)
    shifted = collapsed.substitute_x(x * x.geometric())
    bad = [
        (n, m)
        for n in range(0, s + 1)
        for m in range(0, s - n + 1)
        if shifted.coeff(n, m) != free.coeff(n, m)
    ]
    yield f"monomial series identity under x -> x/(1-x) to total degree {s}", bad

    bad = [
        (n, m)
        for n in range(0, s + 1)
        for m in range(0, s + 1)
        if free.coeff(n, m) != monomial_dims("infinity", n, m)
        or collapsed.coeff(n, m) != monomial_dims("two", n, m)
    ]
    yield "monomial series match their closed-form dimensions", bad

    # The univariate transform has the classical generating-function
    # form 1/(1-x) * A(x/(1-x)); spot-check it on random sequences.
    k = b["series_spot"]
    bad = []
    for _ in range(5):
        seq = tuple(rng.randrange(-9, 10) for _ in range(k))
        a = BiSeries({(i, 0): v for i, v in enumerate(seq, start=1)}, k, 0)
        x1 = BiSeries.x(k, 0)
        image = a.substitute_x(x1 * x1.geometric())
        got = tuple(image.coeff(n, 0) for n in range(1, k + 1))
        if got != binomial_transform(seq):
            bad.append(seq)
    yield "transform of random sequences matches its series form", bad


# ---------------------------------------------------------------------------
# identities: the operator law, associativity, quasi-idempotency
# ---------------------------------------------------------------------------

def _operator_law(family: Family, pairs: Iterable) -> list:
    """The pairs (a, c) on which beta(a)beta(c) != beta(a*c)."""
    return [
        (family, str(a), str(c))
        for a, c in pairs
        if circle_lc(family, beta(family, a), beta(family, c))
        != beta_lc(family, star(family, a, c))
    ]


def _suite_identities(b: dict, rng: random.Random) -> Checks:
    p = b["ident_pair"]
    bad = []
    for family in FAMILIES:
        pool = _trees_upto(family, p)
        bad += _operator_law(family, ((a, c) for a in pool for c in pool))
    yield (f"operator law beta(a)beta(b) = beta(a*b) on pairs of total degree <= {p}",
           bad)

    q = b["ident_assoc"]
    bad = []
    for family in FAMILIES:
        pool = _trees_upto(family, q)
        for a in pool:
            for c in pool:
                ac = circle(family, a, c)
                for d in pool:
                    lhs = circle_lc(family, ac, LinComb.of(d))
                    rhs = circle_lc(family, LinComb.of(a), circle(family, c, d))
                    if lhs != rhs:
                        bad.append((family, str(a), str(c), str(d)))
    yield f"multiplication is associative on triples of total degree <= {q}", bad

    r = b["ident_quasi"]
    bad = []
    for family in (F22, FI2):
        for t in _trees_upto(family, r):
            twice = beta_lc(family, beta(family, t))
            if twice != beta(family, t).scale(-LAMBDA):
                bad.append((family, str(t)))
    yield f"operator is quasi-idempotent in the collapsed-label families up to {r}", bad

    bad = []
    for family in (F22, F2I):
        g = generator(family)
        if circle(family, g, g) != LinComb.of(g):
            bad.append((family, "g*g"))
        if circle_power(family, g, 3) != LinComb.of(g):
            bad.append((family, "g*g*g"))
    yield "generator is idempotent in the saturating-angle families", bad

    extra = b["ident_spot"]
    if extra:
        bad = []
        for family in FAMILIES:
            pool = [t for n in range(1, 5) for t in enumerate_trees(family, n, 4 - n)]
            bad += _operator_law(
                family, ((rng.choice(pool), rng.choice(pool)) for _ in range(extra)))
        yield "operator law on random pairs of total degree 4", bad


# ---------------------------------------------------------------------------
# examples: frozen worked displays
# ---------------------------------------------------------------------------

def _suite_examples(b: dict, rng: random.Random) -> Checks:
    t, lc = parse_tree, tree_lincomb_parser
    raised = circle(FI2, t("1(. 2 .)"), t("1(. 3 .)"))
    raised_text = "1(1(. 2 .) 3 .) + 1(. 2 1(. 3 .)) + l*1(. 5 .)"
    cases = [
        ("corner product adds angle labels",
         circle(FII, t("0(. 2 .)"), t("0(. 3 .)")), lc("0(. 5 .)")),
        ("raised corner times corner grafts on the left",
         circle(FII, t("1(. 2 .)"), t("0(. 3 .)")), lc("0(1(. 2 .) 3 .)")),
        ("derived product of corners has three terms",
         star(FII, t("0(. 2 .)"), t("0(. 3 .)")),
         lc("0(1(. 2 .) 3 .) + 0(. 2 1(. 3 .)) + l*0(. 5 .)")),
        ("raised product in the collapsed-label family", raised, lc(raised_text)),
        ("raised product renders verbatim", str(raised), raised_text),
        ("grafting merges an interior leaf into its flanking angles",
         graft(FII, [t("1(. 1 .)"), LEAF, LEAF], [2, 1]), t("0(1(. 1 .) 3 .)")),
        ("grafting a single subtree returns it unchanged",
         graft(FII, [t("1(. 4 .)")], []), t("1(. 4 .)")),
        ("grafting three leaves saturates to the generator",
         graft(F22, [LEAF, LEAF, LEAF], [1, 1]), t("0(. 1 .)")),
        ("degrafting splits a root-0 tree at the root",
         degraft(t("0(1(. 1 .) 3 .)")), ((t("1(. 1 .)"), LEAF), (3,))),
        ("degrafting leaves a positive-root tree whole",
         degraft(t("1(1(. 1 .) 3 .)")), ((t("1(1(. 1 .) 3 .)"),), ())),
        ("degrafting the generator yields two leaves and one angle",
         degraft(t("0(. 1 .)")), ((LEAF, LEAF), (1,))),
        ("operator raises the root label",
         beta(FII, t("0(. 3 .)")), lc("1(. 3 .)")),
        ("induced left operation on generators",
         rb_dendriform(FI2, "left", generator(FI2), generator(FI2)),
         lc("0(. 1 1(. 1 .))")),
        ("induced middle operation on generators adds angles",
         rb_dendriform(FII, "dot", generator(FII), generator(FII)),
         lc("0(. 2 .)")),
    ]
    for name, got, want in cases:
        yield name, [] if got == want else [f"got {got}, expected {want}"]


# ---------------------------------------------------------------------------
# bijections: round-trips, image classes, cardinalities
# ---------------------------------------------------------------------------

def _round_trip(classes: Iterable, encode: Callable, decode: Callable,
                shown: Callable) -> list:
    """Encode the items of each ``(key, items, targets)`` class.  An item
    that does not decode back is a counterexample ``shown(item)``, and a
    class whose images are not exactly ``targets`` is one ``key``."""
    bad = []
    for key, items, targets in classes:
        images = set()
        for t in items:
            p = encode(t)
            images.add(p)
            if decode(p) != t:
                bad.append(shown(t))
        if images != set(targets):
            bad.append(key)
    return bad


def _suite_bijections(b: dict, rng: random.Random) -> Checks:
    top = b["bij_n"]

    bad = [
        str(t)
        for n in range(1, top + 1)
        for m in range(1, n + 1)
        for t in enumerate_positive_root(FI2, n, m)
        if restore_angles(strip_angles(t)) != t
    ]
    yield f"strip/restore is the identity on raised trees up to n={top}", bad

    bad = []
    for n in range(1, top + 1):  # a class at a time: its path round trip follows
        for m in range(1, n + 1):
            paths = plus_paths(n, m)
            bad += _round_trip(
                [(("image", n, m), enumerate_positive_root(FI2, n, m), paths)],
                encode_positive, decode_positive, lambda t: ("round-trip", str(t)))
            bad += [("path round-trip", p)
                    for p in paths if tree_to_path(path_to_tree(p)) != p]
    yield f"raised trees biject with plus-class paths up to n={top}", bad

    bad = []
    for n in range(1, top + 1):
        for m in range(0, n):
            for p in plus_paths(n, m + 1):
                if to_plus_class(to_zero_class(p)) != p:
                    bad.append(("plus", p))
            for q in zero_paths(n, m):
                if to_zero_class(to_plus_class(q)) != q:
                    bad.append(("zero", q))
    yield (f"diagonal trade between plus and zero classes is bijective up to n={top}",
           bad)

    sq = b["bij_square"]
    bad = _round_trip(
        ((("image", n, m), enumerate_zero_root(FI2, n, m), zero_paths(n, m))
         for n in range(1, sq + 1) for m in range(0, n)),
        encode_zero, decode_zero, str)
    yield f"root-0 trees biject with zero-class paths up to n={sq}", bad

    bad = []
    for n in range(1, top + 1):
        for m in range(1, n + 1):
            plus_im = {encode_positive(t) for t in enumerate_positive_root(F22, n, m)}
            if plus_im != set(restricted_plus_paths(n, m)):
                bad.append(("plus", n, m))
        for m in range(0, n):
            zero_im = {encode_zero(t) for t in enumerate_zero_root(F22, n, m)}
            if zero_im != set(restricted_zero_paths(n, m)):
                bad.append(("zero", n, m))
    yield (f"forced-label trees land exactly on the restricted classes up to n={top}",
           bad)

    bad = _round_trip(
        ((("image", n),
          [t for m in range(1, n + 1) for t in enumerate_positive_root(F22, n, m)],
          colored_motzkin_paths(n - 1))
         for n in range(1, top + 1)),
        to_colored_motzkin, from_colored_motzkin, str)
    yield f"two-colored Motzkin encoding is bijective up to n={top}", bad

    bad = _round_trip(
        ((("union", total),
          [p for n in range(1, total + 1) for p in schroder_paths(n, total - n)],
          motzkin_paths(total))
         for total in range(1, top + 1)),
        rotate_to_motzkin, rotate_from_motzkin, lambda p: p)
    yield (f"rotation carries paths of total degree k onto Motzkin paths, k <= {top}",
           bad)

    card = b["bij_card"]
    bad = []
    for n in range(1, card + 1):
        plus = sum(len(plus_paths(n, m)) for m in range(1, n + 1))
        zero = sum(len(zero_paths(n, m)) for m in range(0, n))
        small = sequence("schroder_small", n)
        if plus != small or zero != small:
            bad.append((n, plus, zero, small))
    yield (f"plus and zero classes are counted by small Schroeder numbers up to {card}",
           bad)

    doubling = []
    for n in range(1, card + 1):
        row = sum(count_trees(F22, n, m) for m in range(0, n + 1))
        if row != 2 * len(colored_motzkin_paths(n - 1)):
            doubling.append(n)
    yield (f"forced-label row sums double the two-colored Motzkin counts up to {card}",
           doubling)

    spots = b["bij_spot"]
    if spots:
        n = top + 1
        pool = [t for m in (1, 2, 3) for t in enumerate_positive_root(FI2, n, m)]
        bad = [str(t) for t in rng.sample(pool, min(spots, len(pool)))
               if decode_positive(encode_positive(t)) != t]
        yield f"random raised trees at n={n} round-trip", bad


# ---------------------------------------------------------------------------
# morphisms: quotient maps, the diamond, canonical factorization
# ---------------------------------------------------------------------------

_PROJECTIONS = (
    (FII, F2I), (FII, FI2), (FII, F22), (F2I, F22), (FI2, F22),
)


def _suite_morphisms(b: dict, rng: random.Random) -> Checks:
    fx = b["morph_fix"]
    bad = []
    for src, dst in _PROJECTIONS:
        for t in _trees_upto(dst, fx):
            if morphism(src, dst, t) != LinComb.of(t):
                bad.append((src, dst, str(t)))
    yield f"projections fix every target basis tree up to total degree {fx}", bad

    single = b["morph_single"]
    bad = []
    for src, dst in _PROJECTIONS:
        for t in _trees_upto(src, single):
            lhs = morphism_lc(src, dst, beta(src, t))
            rhs = beta_lc(dst, morphism(src, dst, t))
            if lhs != rhs:
                bad.append((src, dst, str(t)))
    yield f"projections commute with the operator up to total degree {single}", bad

    pair = b["morph_pair"]
    bad = []
    for src, dst in _PROJECTIONS:
        pool = _trees_upto(src, pair)
        for a in pool:
            fa = morphism(src, dst, a)
            for c in pool:
                fc = morphism(src, dst, c)
                if morphism_lc(src, dst, circle(src, a, c)) != circle_lc(dst, fa, fc):
                    bad.append((src, dst, "mul", str(a), str(c)))
                if morphism_lc(src, dst, star(src, a, c)) != star_lc(dst, fa, fc):
                    bad.append((src, dst, "star", str(a), str(c)))
    yield f"projections are algebra maps on pairs of total degree <= {pair}", bad

    dia = b["morph_diamond"]
    bad = []
    for t in _trees_upto(FII, dia):
        direct = morphism(FII, F22, t)
        via_label = morphism_lc(F2I, F22, morphism(FII, F2I, t))
        via_angle = morphism_lc(FI2, F22, morphism(FII, FI2, t))
        if not (direct == via_label == via_angle):
            bad.append(str(t))
    yield f"the two projection routes agree up to total degree {dia}", bad

    dc = b["morph_decomp"]
    bad = []
    for family in FAMILIES:
        for t in _trees_upto(family, dc):
            power, pieces, angles = decompose(t)
            if recompose(family, power, pieces, angles) != LinComb.of(t):
                bad.append((family, str(t)))
    yield f"canonical factorization recomposes up to total degree {dc}", bad


# ---------------------------------------------------------------------------
# monomial: the word realizations
# ---------------------------------------------------------------------------

def _suite_monomial(b: dict, rng: random.Random) -> Checks:
    top = b["mono_pi"]
    bad = []
    for variant, family in (("infinity", FI2), ("two", F22)):
        for t in _trees_upto(family, top):
            if pi_word(variant, t) != pi_word_recursive(variant, t):
                bad.append((variant, str(t)))
    yield f"word formula agrees with the recursive image up to total degree {top}", bad

    pt = b["mono_pairs"]
    pool = _trees_upto(FI2, pt)
    bad = [
        (str(t), str(s))
        for t in pool
        for s in pool
        if tilde_equiv(t, s) != (pi_word("infinity", t) == pi_word("infinity", s))
    ]
    yield f"structural equivalence matches word equality up to total degree {pt}", bad

    wf = b["mono_free"]
    bad = []
    for n in range(0, wf + 1):
        row = 0
        for m in range(0, n + 2):
            cnt = len(enumerate_words("infinity", n, m))
            row += cnt
            if cnt != comb(n + 1, 2 * m) or cnt != monomial_dims("infinity", n, m):
                bad.append((n, m))
        if row != 2 ** n:
            bad.append(("row", n))
    yield f"free word counts are binom(n+1, 2m) with rows 2^n up to n={wf}", bad

    wc = b["mono_collapsed"]
    bad = [
        (n, m)
        for n in range(0, wc + 1)
        for m in range(0, n + 2)
        if len(enumerate_words("two", n, m)) != monomial_dims("two", n, m)
    ]
    yield f"collapsed word counts match the piecewise dimensions up to n={wc}", bad

    mm = b["mono_morph"]
    bad = []
    for variant, family in (("infinity", FI2), ("two", F22)):
        pool = _trees_upto(family, mm)
        for a in pool:
            wa = pi_word(variant, a)
            img = pi_map(variant, beta(family, a).eval_weight(-1))
            if img != LinComb.of(beta_word(wa)):
                bad.append((variant, "beta", str(a)))
            for c in pool:
                wc_ = pi_word(variant, c)
                prod = pi_map(variant, circle(family, a, c).eval_weight(-1))
                if prod != LinComb.of(concat_words(wa, wc_)):
                    bad.append((variant, "mul", str(a), str(c)))
    yield f"word image is an operator-algebra map at weight -1 up to {mm}", bad

    bad = []
    for t in _trees_upto(FI2, mm + 1):
        lhs = LinComb.of(word_quotient(pi_word("infinity", t)))
        rhs = pi_map("two", morphism(FI2, F22, t).eval_weight(-1))
        if lhs != rhs:
            bad.append(str(t))
    yield "word quotient square commutes with the tree projection", bad

    spots = b["mono_spot"]
    if spots:
        bad = []
        for _ in range(spots):
            u = Word(tuple(rng.randrange(2) for _ in range(rng.randrange(0, 7))),
                     "infinity")
            v = Word(tuple(rng.randrange(2) for _ in range(rng.randrange(0, 7))),
                     "infinity")
            if word_quotient(concat_words(u, v)) != concat_words(
                word_quotient(u), word_quotient(v)
            ):
                bad.append((str(u), str(v)))
        yield "collapsing random words is multiplicative", bad


# ---------------------------------------------------------------------------
# dendriform: seven axioms, induced splittings, embeddings
# ---------------------------------------------------------------------------

# The seven splitting axioms, each of the shape A(B(x, y), z) == C(x, D(y, z)):
# a tag, then (A, B) and (C, D) as indices into the operations (left,
# right, dot, star).  The first three, which never use dot, are the
# dialgebra's axioms.
_LT, _RT, _DT, _ST = range(4)
_AXIOMS = (
    ("<<", (_LT, _LT), (_LT, _ST)),
    ("><", (_LT, _RT), (_RT, _LT)),
    (">>", (_RT, _ST), (_RT, _RT)),
    (".<", (_LT, _DT), (_DT, _LT)),
    (".>", (_DT, _LT), (_DT, _RT)),
    (">.", (_DT, _RT), (_RT, _DT)),
    ("..", (_DT, _DT), (_DT, _DT)),
)


def _axiom_failures(ops: Sequence[Callable], triples: Iterator,
                    axioms: Sequence) -> list:
    """Check each of ``axioms`` on each (x, y, z); ``ops`` are the
    operations left, right, dot and star.  Each inner product B(x, y) or
    D(y, z) is computed once per pair and reused across the triples."""
    inner: dict = {}

    def product(op: int, u, v):
        key = (op, u, v)
        if key not in inner:
            inner[key] = ops[op](u, v)
        return inner[key]

    bad = []
    for x, y, z in triples:
        for tag, (a, b), (c, d) in axioms:
            if ops[a](product(b, x, y), z) != ops[c](x, product(d, y, z)):
                bad.append((tag, str(x), str(y), str(z)))
    return bad


def _suite_dendriform(b: dict, rng: random.Random) -> Checks:
    lv = b["dend_leaves"]
    pool = [pt for n in range(1, lv) for m in range(1, n + 1)
            for pt in planar_trees(n, m)]

    def mk(fn, first):
        """left, right, dot and star as ``fn(first, op, x, y)``."""
        return [lambda x, y, op=op: fn(first, op, x, y)
                for op in ("left", "right", "dot", "star")]

    bad = _axiom_failures(
        mk(dend_op, "trialgebra"),
        ((x, y, z) for x in pool for y in pool for z in pool),
        _AXIOMS,
    )
    yield f"seven axioms hold symbolically on trees with <= {lv} leaves", bad

    rb = b["dend_rb"]
    bad = []
    for family in (F22, FI2):
        tp = _trees_upto(family, rb)
        bad.extend(
            (family,) + f
            for f in _axiom_failures(
                mk(rb_dendriform, family),
                ((x, y, z) for x in tp for y in tp for z in tp),
                _AXIOMS,
            )
        )
    yield f"induced splittings satisfy the axioms up to total degree {rb}", bad

    bin_pool = [bt for n in range(1, lv) for bt in binary_trees(n)]

    bad = _axiom_failures(
        mk(dend_op, "dialgebra"),
        ((x, y, z) for x in bin_pool for y in bin_pool for z in bin_pool),
        _AXIOMS[:3],
    )
    yield f"two-operation axioms hold on binary trees with <= {lv} leaves", bad

    bad = []
    for x in bin_pool:
        for y in bin_pool:
            for op in ("left", "right", "star"):
                plain = dend_op("dialgebra", op, x, y)
                via = dend_op("trialgebra", op, x, y).eval_weight(0)
                if plain != via:
                    bad.append((op, str(x), str(y)))
    yield "two-operation structure is the weight-0 specialization", bad

    el = b["dend_embed"]
    for kind, algebra, trees, embed, ops, image_op, what in (
        ("planar", "trialgebra",
         [pt for n in range(1, el) for m in range(1, n + 1)
          for pt in planar_trees(n, m)],
         embed_trialgebra, ("left", "right", "dot"),
         lambda op, u, v: rb_dendriform(FI2, op, u, v), "all three operations"),
        ("binary", "dialgebra", [bt for n in range(1, el) for bt in binary_trees(n)],
         embed_dialgebra, ("left", "right"),
         lambda op, u, v: rb_dendriform(F22, op, u, v).eval_weight(0),
         "both operations at weight 0"),
    ):
        images = [embed(x) for x in trees]
        seen = {next(iter(v.support())) for v in images}
        yield (f"{kind} embedding is injective on trees with <= {el} leaves",
               [] if len(seen) == len(trees)
               else [f"{len(seen)} images from {len(trees)} trees"])
        bad = [
            (op, str(x), str(y))
            for x, ex in zip(trees, images)
            for y, ey in zip(trees, images)
            for op in ops
            if embed(dend_op(algebra, op, x, y)) != image_op(op, ex, ey)
        ]
        yield f"{kind} embedding intertwines {what}, <= {el} leaves", bad

    dtn = b["dend_dt"]
    bad = []
    for n in range(1, dtn + 1):
        for m in range(0, n + 2):
            if dt_dim(n, m) != len(planar_trees(n, m)):
                bad.append(("count", n, m))
        for m in range(0, n + 1):
            if dim_formula(FI2, n, m) != dt_dim(n, m) + dt_dim(n, m + 1):
                bad.append(("sum", n, m))
    yield (f"planar-tree counts and their pairwise sums match dimensions up to {dtn}",
           bad)

    cd = b["dend_card"]
    bad = []
    for n in range(1, cd + 1):
        images = {next(iter(embed_dialgebra(bt).support()))
                  for bt in binary_trees(n)}
        dim = count_trees(F22, n, n - 1) if n > 1 else count_trees(F22, 1, 0)
        expected_dim = n * catalan(n - 1) if n > 1 else 1
        if len(images) != catalan(n) or dim != expected_dim or len(images) > dim:
            bad.append((n, len(images), dim))
        if any(bidegree(t) != (n, n - 1) for t in images):
            bad.append(("degree", n))
    yield (f"embedded binary trees realize C(n) inside dimension n*C(n-1) up to {cd}",
           bad)


SUITES: dict[str, Callable[[dict, random.Random], Checks]] = {
    "dimensions": _suite_dimensions,
    "marginals": _suite_marginals,
    "transforms": _suite_transforms,
    "series": _suite_series,
    "identities": _suite_identities,
    "examples": _suite_examples,
    "bijections": _suite_bijections,
    "morphisms": _suite_morphisms,
    "monomial": _suite_monomial,
    "dendriform": _suite_dendriform,
}


@_collector_paused
def _record(checks: list, suite: Callable[..., Checks], args: tuple) -> None:
    """Run ``suite(*args)`` to the end, appending a `CheckResult` to
    ``checks`` as each check is yielded.  A failed check's detail counts
    its counterexamples and shows the first.

    The pause wraps the loop, not the call: calling a generator function
    runs none of its body."""
    for name, bad in suite(*args):
        detail = f"{len(bad)} counterexamples, first: {bad[0]}" if bad else ""
        checks.append(CheckResult(name, not bad, detail))


def run_suite(name: str, budget: str = "desk", seed: int = DEFAULT_SEED) -> SuiteResult:
    """Run one named suite and collect its check results.

    The cyclic garbage collector is paused while the suite runs and then
    put back as it was (`_record`).  A suite that raises keeps the checks
    it yielded and gains one failed check, named after the suite, that
    carries the exception's type, text and innermost frame: a library
    fault then fails a check, as any other wrong answer does, and the
    other suites still run and report."""
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; available: {', '.join(SUITES)}"
        )
    if budget not in _BOUNDS:
        raise DomainError(
            f"unknown budget {budget!r}; available: {', '.join(_BOUNDS)}"
        )
    checks: list[CheckResult] = []
    rng = random.Random(seed)
    start = time.perf_counter()
    try:
        _record(checks, SUITES[name], (_BOUNDS[budget], rng))
    except Exception as exc:
        # The innermost frame is walked to by hand: importing `traceback`
        # (and with it `tokenize`) added about 0.4 MB to every run's peak.
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        checks.append(CheckResult(
            f"{name} suite runs to the end", False,
            f"{type(exc).__name__}: {exc} (in {code.co_name}, "
            f"{os.path.basename(code.co_filename)}:{tb.tb_lineno})"))
    elapsed = time.perf_counter() - start
    return SuiteResult(name, checks, elapsed)


def run_suites(
    names: Sequence[str] | None = None,
    budget: str = "desk",
    seed: int = DEFAULT_SEED,
) -> list[SuiteResult]:
    """Run several suites (all of them by default), in registry order."""
    chosen = list(SUITES) if names is None else list(names)
    return [run_suite(name, budget, seed) for name in chosen]
