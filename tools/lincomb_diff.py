"""Differential check of the combination reader between two checkouts.

    python3 tools/lincomb_diff.py OLD_ROOT NEW_ROOT [--seed 2023] [--count 60000]

Each root is a checkout holding ``src/baxtertrees``.  The operands are
the combination arguments of the benchmark's ``cli-session`` command
pool (``perfbench/workloads.py`` of NEW_ROOT), each mutated one to three
times by inserting, deleting, replacing or repeating text; every sixth
operand is a planar-tree combination instead.  Each root parses the same
operands in its own process, and the two outcomes of every operand are
compared: the same value, the same error, an error that moved, or a
changed message.  One line per class gives its count and an example.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys

TOKENS = list("().+-*^l 0123456789x²٣") + [
    "(1 + l)*", "l^2*", "2*", "l*", "(l+", "-(", "*l", "1(. 1 .)", " + ", " - ",
    "(2*x)", "l^", "( ", "3*l^2*", "(-l)*", "(l^2 - 1)*"]
PLANAR = ["(. .)", "(. (. .))", "((. .) . .)", "(. . (. .) .)"]
COMMANDS = ("product", "star", "beta", "morphism", "pi")


def pool_operands(root: str) -> list[str]:
    """The positional arguments of the pool's tree-combination commands."""
    sys.path.insert(0, root)
    from perfbench.workloads import CommandPool
    out = []
    for cmd in CommandPool().commands:
        if cmd and cmd[0] in COMMANDS:
            args = cmd[1:]
            out += [a for k, a in enumerate(args)
                    if not a.startswith("--") and not (k and args[k - 1].startswith("--"))]
    return out


def mutate(rng: random.Random, s: str) -> str:
    for _ in range(rng.randint(1, 3)):
        k, r = rng.randint(0, len(s)), rng.random()
        if r < 0.4:
            s = s[:k] + rng.choice(TOKENS) + s[k:]
        elif r < 0.65:
            s = s[:k] + s[k + rng.randint(1, 3):]
        elif r < 0.85:
            s = s[:k] + rng.choice(TOKENS) + s[k + 1:]
        else:
            j = rng.randint(0, len(s))
            s = s[:k] + s[min(j, k):max(j, k)] + s[k:]
    return s


def operands(root: str, seed: int, count: int) -> list[tuple[str, str]]:
    base, rng = pool_operands(root), random.Random(seed)
    out = []
    for n in range(count):
        if n % 6 == 5:
            text = " + ".join(rng.choice(("", "2*", "(1 + l)*", "l^2*", "(-l)*"))
                              + rng.choice(PLANAR) for _ in range(rng.randint(1, 3)))
            out.append(("planar", mutate(rng, text)))
        else:
            out.append(("tree", mutate(rng, rng.choice(base))))
    return out


def outcomes(src: str, cases: list) -> list:
    """Parse every case with the package under ``src``."""
    sys.path.insert(0, src)
    from baxtertrees import baxter_core, trees
    from baxtertrees.errors import DomainError, ParseError
    # A checkout from before the one-pass reader takes whole-text parsers.
    readers = {"tree": getattr(trees, "read_tree", None) or trees.parse_tree,
               "planar": getattr(trees, "read_planar", None) or trees.parse_planar}
    render = {"tree": trees.render_tree, "planar": trees.render_planar}
    out = []
    for kind, text in cases:
        try:
            v = baxter_core.parse_lincomb(text, readers[kind])
            body = repr(sorted((render[kind](e), c.coeffs) for e, c in v.terms.items()))
            out.append(["ok", hashlib.sha1(body.encode()).hexdigest()])
        except ParseError as e:
            out.append(["parse", e.args[0].split(" (at position ")[0], e.pos])
        except DomainError as e:
            out.append(["domain", str(e)])
        except Exception as e:  # RecursionError on over-deep nesting
            out.append(["raised", type(e).__name__])
    return out


def classify(a: list, b: list) -> str:
    if "raised" in (a[0], b[0]):
        return "raised on both" if a == b else "raised on one side"
    if (a[0] == "ok") != (b[0] == "ok"):
        return "ACCEPTED BY ONE SIDE ONLY"
    if a[0] == "ok":
        return "same value" if a == b else "VALUE DIFFERS"
    if a == b:
        return "same error"
    if a[:2] == b[:2]:
        return "position only"
    return f"message: {a[1]!r} -> {b[1]!r}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--count", type=int, default=60000)
    parser.add_argument("--side", help=argparse.SUPPRESS)
    args = parser.parse_args()
    cases = operands(args.new, args.seed, args.count)
    if args.side:
        json.dump(outcomes(args.side + "/src", cases), sys.stdout)
        return
    sides = [json.loads(subprocess.run(
        [sys.executable, __file__, args.old, args.new, "--seed", str(args.seed),
         "--count", str(args.count), "--side", root],
        check=True, capture_output=True, text=True).stdout)
        for root in (args.old, args.new)]
    counts: dict[str, int] = {}
    examples: dict[str, str] = {}
    for (kind, text), a, b in zip(cases, *sides):
        key = f"{kind}: {classify(a, b)}"
        counts[key] = counts.get(key, 0) + 1
        examples.setdefault(key, text)
    for key in sorted(counts, key=lambda k: (-counts[k], k)):
        print(f"{counts[key]:6d}  {key}  e.g. {examples[key][:60]!r}")
    print(f"{len(cases):6d}  operands")


if __name__ == "__main__":
    main()
