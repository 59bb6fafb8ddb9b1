"""Command-line surface for the tree algebras.

One subcommand per library capability: products and the operator,
enumeration and dimension tables, series expansion, every path
conversion, the quotient morphisms, canonical-factorization checking,
word images, the dendriform operations and embeddings, and the named
verification suites.

Output comes in two formats.  ``plain`` prints the value the way the
parsers read it, so any printed combination, tree, word, or path can be
fed straight back in.  ``records`` prints one ``key<TAB>value`` line per
item for scripting.  Exit status is 0 on success, 2 for usage errors,
3 for operand parse errors, and 4 for domain violations.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Callable, Sequence

from .baxter_core import (
    LinComb, beta_lc, circle_lc, decompose, morphism_lc, recompose, star_lc,
    term_text, tree_lincomb_parser,
)
from .counting import MAX_ORDER, dim_formula, series_coeffs
from .dendriform import dend_op, embed_dialgebra, embed_trialgebra, rb_dendriform
from .errors import DomainError, ParseError
from .monomial import (
    beta_word, concat_words, normalize_word, parse_word, pi_map, word_bidegree,
    word_quotient,
)
from .paths import (
    classify_path, decode_positive, decode_zero, encode_positive, encode_zero,
    parse_path, render_path, rotate_from_motzkin, rotate_to_motzkin,
    schroder_params, to_colored_motzkin, to_plus_class, to_zero_class,
)
from .scan import int_text
from .trees import (
    F22, Family, enumerate_trees, parse_family, parse_planar, parse_tree,
    require_valid,
)
from .verify import BUDGETS, DEFAULT_SEED, SUITES, run_suites

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

def _family(text: str) -> Family:
    return parse_family(text)


_family.__name__ = "family"  # names the type in argparse diagnostics


def _weight(text: str):
    """--lambda value: the literal ``sym`` or an integer."""
    if text == "sym":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'sym' or an integer, got {text!r}"
        ) from None


def _emit(lines: Sequence[tuple[str, str]], fmt: str) -> None:
    """Print (key, value) pairs: tab-separated records, or bare values."""
    for key, value in lines:
        if fmt == "records":
            print(f"{key}\t{value}")
        else:
            print(value)


def _emit_lincomb(v: LinComb, fmt: str) -> None:
    if fmt == "records":
        # Every line is formatted before any is printed, so a term too
        # long to print leaves no partial output behind its error.
        for line in [f"term\t{term_text(e, c)}" for e, c in v.items()]:
            print(line)
    else:
        print(v)


def _checked_tree_comb(family: Family, text: str) -> LinComb:
    v = tree_lincomb_parser(text)
    for t in v.support():
        require_valid(family, t)
    return v


def _diagonal_path(text: str):
    """A diagonal path and whether it lies in the plus class."""
    p = parse_path(text)
    report = classify_path(p, "schroder")
    if not report["valid"]:
        raise DomainError(f"not a diagonal path: {report['reason']}")
    return p, report["plus_class"]


def _maybe_eval(v: LinComb, weight) -> LinComb:
    return v if weight is None else v.eval_weight(weight)


def _pi_variant(family: Family) -> str:
    if family is F22:
        return "two"
    if family.j == 2:
        return "infinity"
    raise DomainError(
        "word images exist for the collapsed-operator families only"
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_product(args) -> int:
    fam = args.family
    a = _checked_tree_comb(fam, args.left)
    b = _checked_tree_comb(fam, args.right)
    out = circle_lc(fam, a, b) if args.command == "product" else star_lc(fam, a, b)
    _emit_lincomb(_maybe_eval(out, args.weight), args.format)
    return EXIT_OK


def _cmd_beta(args) -> int:
    fam = args.family
    v = _checked_tree_comb(fam, args.tree)
    _emit_lincomb(_maybe_eval(beta_lc(fam, v), args.weight), args.format)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    trees = enumerate_trees(args.family, args.n, args.m)
    _emit([("tree", str(t)) for t in trees], args.format)
    if args.format == "records":
        print(f"count\t{len(trees)}")
    return EXIT_OK


def _table_lines(
    value: Callable[[int, int], int], max_n: int, max_m: int, fmt: str
) -> None:
    if fmt == "records":
        for n in range(1, max_n + 1):
            for m in range(0, max_m + 1):
                print(f"{n},{m}\t{value(n, m)}")
        return
    cells = {
        (n, m): str(value(n, m))
        for n in range(1, max_n + 1)
        for m in range(0, max_m + 1)
    }
    width = max(len(v) for v in cells.values())
    width = max(width, len(str(max_m)))
    header = "n\\m " + " ".join(f"{m:>{width}}" for m in range(0, max_m + 1))
    print(header)
    for n in range(1, max_n + 1):
        row = " ".join(f"{cells[(n, m)]:>{width}}" for m in range(0, max_m + 1))
        print(f"{n:>3} {row}")


def _cmd_dims(args) -> int:
    if args.max_n < 1 or args.max_m < 0:
        raise DomainError("the table needs max-n >= 1 and max-m >= 0")
    fam = args.family
    _table_lines(lambda n, m: dim_formula(fam, n, m), args.max_n, args.max_m,
                 args.format)
    return EXIT_OK


def _cmd_series(args) -> int:
    if not (0 < args.max_n <= MAX_ORDER and 0 < args.max_m <= MAX_ORDER):
        raise DomainError(f"orders must be between 1 and {MAX_ORDER}")
    gf = series_coeffs(args.family, args.max_n, args.max_m)
    _table_lines(gf.coeff, args.max_n, args.max_m, args.format)
    return EXIT_OK


def _cmd_tree_to_path(args) -> int:
    t = parse_tree(args.tree)
    if t.is_leaf:
        raise DomainError("the bare leaf encodes no path")
    p = encode_zero(t) if t.label == 0 else encode_positive(t)
    _emit([("path", render_path(p))], args.format)
    if args.format == "records":
        n, m = schroder_params(p)
        print(f"n\t{n}\nm\t{m}")
    return EXIT_OK


def _cmd_path_to_tree(args) -> int:
    p, plus = _diagonal_path(args.path)
    t = decode_positive(p) if plus else decode_zero(p)
    _emit([("tree", str(t))], args.format)
    return EXIT_OK


def _cmd_t_map(args) -> int:
    p, plus = _diagonal_path(args.path)
    q = to_zero_class(p) if plus else to_plus_class(p)
    _emit([("path", render_path(q))], args.format)
    return EXIT_OK


def _cmd_to_motzkin(args) -> int:
    t = parse_tree(args.tree)
    p = to_colored_motzkin(t)
    _emit([("path", render_path(p))], args.format)
    return EXIT_OK


def _cmd_rotate(args) -> int:
    p = parse_path(args.path)
    direction = args.to
    if direction is None:
        has_v = any(s == "V" for s in p)
        has_u = any(s.startswith("U") for s in p)
        if has_v == has_u:
            raise DomainError(
                "cannot infer the direction from the letters; pass --to"
            )
        direction = "motzkin" if has_v else "schroder"
    q = rotate_to_motzkin(p) if direction == "motzkin" else rotate_from_motzkin(p)
    _emit([("path", render_path(q))], args.format)
    return EXIT_OK


def _cmd_classify(args) -> int:
    p = parse_path(args.path)
    kind = args.kind
    if kind is None:
        kind = "motzkin" if any(s.startswith("U") or s in ("Hr", "Hb")
                                for s in p) else "schroder"
    sep = "\t" if args.format == "records" else ": "
    for k, v in classify_path(p, kind).items():
        print(f"{k}{sep}{v}")
    return EXIT_OK


def _cmd_morphism(args) -> int:
    src, dst = args.family, args.target
    if not dst <= src:
        raise DomainError(f"no projection from {src} onto {dst}")
    v = _checked_tree_comb(src, args.tree)
    _emit_lincomb(_maybe_eval(morphism_lc(src, dst, v), args.weight), args.format)
    return EXIT_OK


def _cmd_decompose_check(args) -> int:
    fam = args.family
    t = parse_tree(args.tree)
    require_valid(fam, t)
    power, pieces, angles = decompose(t)
    rebuilt = recompose(fam, power, pieces, angles)
    ok = rebuilt == LinComb.of(t)
    if args.format == "records":
        print(f"power\t{power}")
        for piece in pieces:
            print(f"piece\t{piece}")
        for a in angles:
            print(f"angle\t{a}")
        print(f"recomposed\t{'ok' if ok else 'MISMATCH'}")
    else:
        inner = " | ".join(str(p) for p in pieces)
        print(f"operator power {power}; pieces {inner}; angles {list(angles)}")
        print("recomposed ok" if ok else f"MISMATCH: {rebuilt}")
    return EXIT_OK if ok else 1


def _cmd_pi(args) -> int:
    fam = args.family
    variant = _pi_variant(fam)
    v = _checked_tree_comb(fam, args.tree)
    out = pi_map(variant, _maybe_eval(v, args.weight))
    _emit_lincomb(out, args.format)
    return EXIT_OK


def _cmd_word(args) -> int:
    variant = args.variant
    if args.action == "concat":
        if args.second is None:
            raise DomainError("concat needs two words")
        w = concat_words(parse_word(args.word, variant),
                         parse_word(args.second, variant))
    elif args.second is not None:
        raise DomainError(f"{args.action} takes one word")
    elif args.action == "normalize":
        w = normalize_word(parse_word(args.word, variant))
    elif args.action == "quotient":
        w = word_quotient(parse_word(args.word, variant))
    elif args.action == "beta":
        w = beta_word(parse_word(args.word, variant))
    else:  # degree
        n, m = map(int_text, word_bidegree(parse_word(args.word, variant)))
        if args.format == "records":
            print(f"n\t{n}\nm\t{m}")
        else:
            print(f"{n} {m}")
        return EXIT_OK
    _emit([("word", str(w))], args.format)
    return EXIT_OK


def _cmd_dendriform(args) -> int:
    if (args.family is None) == (args.variant is None):
        raise DomainError("pass exactly one of --variant or --family")
    if args.family is not None:
        a = _checked_tree_comb(args.family, args.left)
        b = _checked_tree_comb(args.family, args.right)
        out = rb_dendriform(args.family, args.op, a, b)
    else:
        a, b = parse_planar(args.left), parse_planar(args.right)
        out = dend_op(args.variant, args.op, a, b)
    _emit_lincomb(_maybe_eval(out, args.weight), args.format)
    return EXIT_OK


def _cmd_embed(args) -> int:
    pt = parse_planar(args.tree)
    out = (embed_trialgebra(pt) if args.variant == "trialgebra"
           else embed_dialgebra(pt))
    _emit_lincomb(out, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = None if args.suite == "all" else [args.suite]
    results = run_suites(names, budget=args.budget, seed=args.seed)
    all_ok = True
    for r in results:
        if args.format == "records":
            print(f"{r.suite}\tpass={r.passed} fail={r.failed} "
                  f"time={r.elapsed:.2f}s")
        else:
            print(f"{r.suite}: {r.passed} passed, {r.failed} failed "
                  f"({r.elapsed:.2f}s)")
        for c in r.checks:
            if not c.ok:
                all_ok = False
                print(f"  FAIL {c.name}: {c.detail}")
    total_pass = sum(r.passed for r in results)
    total_fail = sum(r.failed for r in results)
    if args.format == "records":
        print(f"total\tpass={total_pass} fail={total_fail}")
    else:
        print(f"total: {total_pass} passed, {total_fail} failed")
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# Parser assembly: one entry per subcommand, arguments in help order
# ---------------------------------------------------------------------------

_FAMILY = ("--family", dict(
    type=_family, required=True,
    help="algebra family as i,j with i,j in {2, inf}",
))
_WEIGHT = ("--lambda", dict(
    dest="weight", type=_weight, default=None, metavar="WEIGHT",
    help="'sym' (default) keeps the weight symbolic; an integer evaluates it",
))
_FORMAT = ("--format", dict(
    choices=("plain", "records"), default="plain",
    help="plain parseable output, or key<TAB>value records",
))
_COMB = dict(help="tree combination")

_COMMANDS = (
    ("product", "multiply two combinations", _cmd_product,
     [("left", _COMB), ("right", _COMB), _FAMILY, _WEIGHT, _FORMAT]),
    ("star", "derived double product", _cmd_product,
     [("left", _COMB), ("right", _COMB), _FAMILY, _WEIGHT, _FORMAT]),
    ("beta", "apply the algebra operator", _cmd_beta,
     [("tree", _COMB), _FAMILY, _WEIGHT, _FORMAT]),
    ("enumerate", "list basis trees of one bidegree", _cmd_enumerate,
     [("n", dict(type=int, help="angle degree")),
      ("m", dict(type=int, help="node-label degree")), _FAMILY, _FORMAT]),
    ("dims", "dimension table", _cmd_dims,
     [("--max-n", dict(type=int, default=6)),
      ("--max-m", dict(type=int, default=6)), _FAMILY, _FORMAT]),
    ("series", "generating-function coefficients", _cmd_series,
     [("--max-n", dict(type=int, default=8)),
      ("--max-m", dict(type=int, default=8)), _FAMILY, _FORMAT]),
    ("tree-to-path", "encode a tree as a diagonal path", _cmd_tree_to_path,
     [("tree", {}), _FORMAT]),
    ("path-to-tree", "decode a diagonal path", _cmd_path_to_tree,
     [("path", {}), _FORMAT]),
    ("t-map", "trade between the plus and zero diagonal classes", _cmd_t_map,
     [("path", {}), _FORMAT]),
    ("to-motzkin", "two-colored Motzkin encoding of a forced-label tree",
     _cmd_to_motzkin, [("tree", {}), _FORMAT]),
    ("rotate", "rotate between path alphabets", _cmd_rotate,
     [("path", {}),
      ("--to", dict(choices=("motzkin", "schroder"), default=None)), _FORMAT]),
    ("classify", "full membership report for a path", _cmd_classify,
     [("path", {}),
      ("--kind", dict(choices=("schroder", "motzkin"), default=None)),
      _FORMAT]),
    ("morphism", "project onto a smaller family", _cmd_morphism,
     [("tree", dict(help="tree combination in the source family")),
      ("--target", dict(type=_family, required=True,
                        help="target family as i,j")),
      _FAMILY, _WEIGHT, _FORMAT]),
    ("decompose-check", "canonical factorization plus recomposition",
     _cmd_decompose_check, [("tree", {}), _FAMILY, _FORMAT]),
    ("pi", "word image of a tree combination", _cmd_pi,
     [("tree", _COMB), _FAMILY, _WEIGHT, _FORMAT]),
    ("word", "operate on monomial words", _cmd_word,
     [("action", dict(choices=("normalize", "quotient", "concat", "beta",
                                "degree"))),
      ("word", {}),
      ("second", dict(nargs="?", default=None)),
      ("--variant", dict(choices=("infinity", "two"), default="infinity",
                         help="free or collapsed word algebra")),
      _FORMAT]),
    ("dendriform", "split products on planar trees or induced ones",
     _cmd_dendriform,
     [("left", {}), ("right", {}),
      ("--op", dict(choices=("left", "right", "dot", "star"), required=True)),
      ("--variant", dict(choices=("trialgebra", "dialgebra"), default=None,
                         help="free splitting on planar trees")),
      ("--family", dict(type=_family, default=None,
                        help="instead: induced splitting on this tree algebra")),
      ("--lambda", dict(dest="weight", type=_weight, default=None,
                        metavar="WEIGHT")),
      ("--format", dict(choices=("plain", "records"), default="plain"))]),
    ("embed", "embed a free dendriform element", _cmd_embed,
     [("tree", dict(help="planar tree, e.g. ((..) .)")),
      ("--variant", dict(choices=("trialgebra", "dialgebra"),
                         default="trialgebra")), _FORMAT]),
    ("verify", "run the named property suites", _cmd_verify,
     [("--suite", dict(choices=("all",) + tuple(SUITES), default="all")),
      ("--budget", dict(choices=BUDGETS, default="desk")),
      ("--seed", dict(type=int, default=DEFAULT_SEED)), _FORMAT]),
)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser on every call; `main` keeps its own."""
    parser = argparse.ArgumentParser(
        prog="baxtertrees",
        description="Exact computation in the four free operator algebras "
                    "on decorated trees, with their path combinatorics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_, func, arguments in _COMMANDS:
        sp = subs.add_parser(name, help=help_)
        for flag, kwargs in arguments:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    parser._commands = subs.choices  # name -> subparser, for `main`
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process.  Reuse is safe:
    no argument action keeps state between parses, and usage and error
    text is formatted when printed, for the streams of that moment.
    `main` also reaches its subparsers through it, by command name."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; return its exit status.

    A line that starts with a command name goes straight to that
    command's parser: all the top-level parser would do with it is pick
    that parser and pass it the rest of the line.  Any other line, and
    one that the command's parser leaves words of unread, goes through
    the top-level parser, which reports the usage error.  So a line
    gets the same answer and the same error text by either route.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    sub = parser._commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        args.command = argv[0]
    if sub is None or extras:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
