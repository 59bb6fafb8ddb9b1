"""The library under test and the three benchmark workloads.

Every workload is built from ``--seed`` alone and runs in this process,
on one thread, starting each iteration with every memo table empty.

* ``products`` multiplies every ordered pair of basis trees with
  ``n + m <= 6`` in each of the four families, in a seeded order.  It
  fills the ``circle``/``star`` memo and does no parsing, rendering or
  dendriform work.  One op is one pair.
* ``verify-desk`` is ``baxtertrees verify --suite all --budget desk``,
  the acceptance gate; most of its time is the dendriform suite.  One op
  is one check.
* ``cli-session`` is a stream of short commands through ``cli.main``,
  Zipf-skewed over a fixed pool so repeated requests hit the memo; the
  seed orders the stream.  A tenth of the pool is malformed input, deep
  nesting included.  One op is one command.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

MODULES = ("scalars", "trees", "baxter_core", "paths", "counting",
           "monomial", "dendriform", "verify", "cli")


class LibraryMissing(Exception):
    """The checkout holds no library source to benchmark."""


class Library:
    """The ``baxtertrees`` package imported from ``<root>/src``."""

    def __init__(self, root: Path):
        src = (root / "src").resolve()
        if not (src / "baxtertrees" / "__init__.py").is_file():
            raise LibraryMissing(f"no library source under {src}")
        sys.path.insert(0, str(src))
        self.package = importlib.import_module("baxtertrees")
        if Path(self.package.__file__).resolve().parent != src / "baxtertrees":
            raise LibraryMissing(
                f"imported baxtertrees from {self.package.__file__}, not {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"baxtertrees.{name}"))
        self.memos = {
            f"{name}.{attr}": obj
            for name in MODULES
            for attr, obj in vars(getattr(self, name)).items()
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
            and getattr(obj, "__module__", None) == f"baxtertrees.{name}"
        }

    def modules(self) -> list:
        return [self.package] + [getattr(self, name) for name in MODULES]

    def memo_entries(self) -> dict[str, int]:
        return {k: f.cache_info().currsize for k, f in self.memos.items()}

    def clear_memos(self) -> None:
        for f in self.memos.values():
            f.cache_clear()

    def assert_memos_empty(self) -> None:
        full = {k: n for k, n in self.memo_entries().items() if n}
        if full:
            raise RuntimeError(f"memo tables not empty before timing: {full}")


class Run:
    """What one iteration of a workload produced."""

    def __init__(self, latencies: list[float], wall: float, outputs: list,
                 suites: dict[str, float] | None = None,
                 starts: list[float] | None = None, start: float = 0.0):
        self.latencies = latencies
        self.wall = wall
        self.outputs = outputs
        self.suites = suites or {}  # verify suite -> its own elapsed seconds
        self.starts = starts or []  # clock time at which each op started
        self.start = start          # clock time at which the iteration started
        self.raw_wall = wall        # wall before scaling to reference seconds
        self.speed = 1.0            # reference time / measured, when scaled


class Verdict:
    """Outcome of checking one iteration against the golden outputs.

    ``failed`` counts ops whose output mismatched or that raised;
    ``unexpected`` counts the same ops, less the over-deep ``cli-session``
    commands that raised RecursionError, which nesting that deep still
    provokes in the parsers and renderers."""

    def __init__(self, attempted: int, failed: int = 0, unexpected: int = 0,
                 notes: Sequence[str] = ()):
        self.attempted = attempted
        self.failed = failed
        self.unexpected = unexpected
        self.notes = list(notes)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def execute(main: Callable, argv: list[str]) -> tuple:
    """Run one command line in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _op_error(exc: BaseException) -> tuple:
    return ("raised", type(exc).__name__)


def _is_error(output) -> bool:
    return isinstance(output, tuple) and output[:1] == ("raised",)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

class Products:
    name = "products"
    max_degree = 6

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.pairs: list[tuple] = []      # (family, a, b) in canonical order
        self.family_sizes: dict[str, int] = {}
        for fam in lib.trees.FAMILIES:
            basis = sorted(
                (t for n in range(1, self.max_degree + 1)
                 for m in range(0, self.max_degree + 1 - n)
                 for t in lib.trees.enumerate_trees(fam, n, m)),
                key=str,
            )
            self.family_sizes[fam.text] = len(basis) ** 2
            self.pairs.extend((fam, a, b) for a in basis for b in basis)
        self.seed = seed
        self.order = list(range(len(self.pairs)))
        random.Random(seed).shuffle(self.order)
        self._passed = None  # in-process hashes of outputs that matched the golden

    def arrange(self, iteration: int) -> None:
        """Order the pairs for iteration ``iteration``, called with 0, 1, 2
        ... in turn: iteration 0 keeps the order the seed gave, each later
        one shuffles it again from the seed and its own number."""
        if iteration:
            random.Random(f"{self.seed}/{iteration}").shuffle(self.order)

    @property
    def ops(self) -> int:
        return len(self.pairs)

    def run(self, clock: Callable[[], float] = perf_counter) -> Run:
        circle = self.lib.baxter_core.circle
        pairs = self.pairs
        outputs: list = [None] * len(pairs)
        starts, latencies = [], []
        start = clock()
        for idx in self.order:
            fam, a, b = pairs[idx]
            t0 = clock()
            try:
                outputs[idx] = circle(fam, a, b)
            except Exception as exc:  # a failed op; the sweep goes on
                outputs[idx] = _op_error(exc)
            latencies.append(clock() - t0)
            starts.append(t0)
        return Run(latencies, clock() - start, outputs, starts=starts, start=start)

    def digests(self, outputs: list) -> dict[str, str]:
        """Per family, a digest of every rendered product in canonical order."""
        sums = {f: hashlib.sha256() for f in self.family_sizes}
        for (fam, a, b), out in zip(self.pairs, outputs):
            sums[fam.text].update(f"{a} {b} {out}\n".encode())
        return {f: h.hexdigest()[:20] for f, h in sums.items()}

    def hashes(self, outputs: list) -> dict[str, int]:
        """Per family, a hash of the products that holds within this process;
        far cheaper than rendering them."""
        out: dict[str, list[int]] = {f: [] for f in self.family_sizes}
        for (fam, _, _), product in zip(self.pairs, outputs):
            out[fam.text].append(hash(product))
        return {f: hash(tuple(v)) for f, v in out.items()}

    def check(self, run: Run, golden: dict) -> Verdict:
        """Render and digest the products, unless they equal those of an
        earlier iteration of this run that matched the golden digests."""
        quick = self.hashes(run.outputs)
        if quick == self._passed:
            return Verdict(self.ops)
        got = self.digests(run.outputs)
        bad = [f for f in got if got[f] != golden["digests"].get(f)]
        raised: dict[str, list[str]] = {}
        for (fam, _, _), out in zip(self.pairs, run.outputs):
            if _is_error(out):
                raised.setdefault(fam.text, []).append(out[1])
        failed = sum(self.family_sizes[f] for f in bad)
        notes = [f"family {f}: digest of the products differs from golden"
                 f" ({len(raised.get(f, []))} pairs raised)" for f in bad]
        if not bad:
            self._passed = quick
        return Verdict(self.ops, failed, failed, notes)

    def golden(self, run: Run) -> dict:
        return {"pairs": self.family_sizes, "digests": self.digests(run.outputs)}


# ---------------------------------------------------------------------------
# verify-desk
# ---------------------------------------------------------------------------

_TIMING = re.compile(r"\(\d+\.\d+s\)")


class VerifyDesk:
    name = "verify-desk"

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.argv = ["verify", "--suite", "all", "--budget", "desk",
                     "--seed", str(seed)]

    def arrange(self, iteration: int) -> None:
        """Every iteration runs the same checks in the same order."""

    def run(self, clock: Callable[[], float] = perf_counter) -> Run:
        """Run the desk gate, timing each check from the moment the
        previous one (or its suite) finished to the moment it is recorded."""
        verify = self.lib.verify
        stamps: list[tuple[float, bool]] = []  # (time, a suite starts here)
        suites: list = []
        base_check, base_suite = verify.CheckResult, verify.run_suite

        class TimedCheck(base_check):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stamps.append((clock(), False))

        def timed_suite(*args, **kwargs):
            stamps.append((clock(), True))
            result = base_suite(*args, **kwargs)
            suites.append(result)
            return result

        verify.CheckResult, verify.run_suite = TimedCheck, timed_suite
        try:
            start = clock()
            try:
                output = execute(self.lib.cli.main, self.argv)
            except Exception as exc:  # a failed run of every check
                output = _op_error(exc)
            wall = clock() - start
        finally:
            verify.CheckResult, verify.run_suite = base_check, base_suite
        starts, latencies, prev = [], [], start
        for t, suite_start in stamps:
            if not suite_start:
                starts.append(prev)
                latencies.append(t - prev)
            prev = t
        checks = [[r.suite, c.name, c.ok] for r in suites for c in r.checks]
        return Run(latencies, wall, [output, checks],
                   {r.suite: r.elapsed for r in suites}, starts, start)

    def observed(self, run: Run) -> dict:
        output, checks = run.outputs
        if _is_error(output):
            return {"raised": output[1], "checks": checks}
        code, out, err = output
        return {"exit": code, "stdout": _TIMING.sub("(*s)", out),
                "stderr": err, "checks": checks}

    def check(self, run: Run, golden: dict) -> Verdict:
        got = self.observed(run)
        want = golden["checks"]
        attempted = len(want)
        if "raised" in got:
            return Verdict(attempted, attempted, attempted,
                           [f"verify raised {got['raised']}"])
        if any(got[k] != golden[k] for k in ("exit", "stdout", "stderr")):
            return Verdict(attempted, attempted, attempted,
                           ["verify output differs from golden"])
        have = {tuple(c[:2]): c[2] for c in got["checks"]}
        bad = [c for c in want if have.get(tuple(c[:2])) != c[2]]
        extra = len(got["checks"]) - len(want)
        failed = len(bad) + max(extra, 0)
        notes = [f"check {c[0]}/{c[1]} differs from golden" for c in bad[:5]]
        return Verdict(attempted, failed, failed, notes)

    def golden(self, run: Run) -> dict:
        return self.observed(run)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

FAMILY_TEXT = ("2,2", "2,inf", "inf,2", "inf,inf")


def apportion(weights: Sequence[float], total: int) -> list[int]:
    """Whole counts in proportion to ``weights`` that sum to ``total``:
    each weight's share rounded down, then one more for the largest
    remainders, ties to the lower index."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda k: (counts[k] - exact[k], k))
    for k in by_remainder[:total - sum(counts)]:
        counts[k] += 1
    return counts


def share(kinds: Sequence[str], total: int) -> list[str]:
    """``total`` kinds, each of ``kinds`` in an equal share."""
    return [k for k, n in zip(kinds, apportion([1.0] * len(kinds), total))
            for _ in range(n)]


class CommandPool:
    """A fixed pool of command lines drawn from the CLI's grammars.

    The pool is the same for every seed, so one golden file covers every
    stream; the seed orders the stream.  Nine tenths of the pool are valid
    commands, an equal share from each of three groups: tree products and
    maps, path commands, and tables, words and dendriform operations.  The
    last tenth is malformed, an equal share of each of eight kinds, deep
    nesting among them.  The kinds are shuffled into pool order, and the
    size of the pool is an assumption, not a measured figure.
    """

    seed = 20051005
    size = 600
    malformed_share = 0.1
    groups = ("tree", "path", "misc")
    malformed = ("unbalanced", "bad-label", "bad-family", "bad-choice",
                 "wrong-domain", "bad-path", "bad-word", "deep")

    def __init__(self):
        self.rng = random.Random(self.seed)
        broken = round(self.size * self.malformed_share)
        plan = share(self.groups, self.size - broken) + share(self.malformed, broken)
        self.rng.shuffle(plan)
        make = {"tree": self._tree_cmd, "path": self._path_cmd,
                "misc": self._misc_cmd, "deep": self._deep_cmd}
        self.commands: list[list[str]] = []
        self.deep: set[int] = set()  # positions of over-deep nesting commands
        for kind in plan:
            if kind == "deep":
                self.deep.add(len(self.commands))
            self.commands.append(make[kind]() if kind in make else self._broken(kind))

    def fingerprint(self) -> str:
        return digest(json.dumps(self.commands))

    # -- decorated trees ---------------------------------------------------

    def tree(self, family: str, nodes: int) -> str:
        """A random basis tree of ``family`` with at most ``nodes`` internal nodes."""
        i, j = family.split(",")
        rng = self.rng
        budget = [nodes - 1]

        def node(root: bool) -> str:
            if j == "2":
                label = rng.choice((0, 1)) if root else 1
            else:
                label = rng.randint(0, 3) if root else rng.randint(1, 3)
            inner = 0
            while budget[0] > 0 and rng.random() < 0.3:
                inner += 1
                budget[0] -= 1
            kids = [child()] + [node(False) for _ in range(inner)] + [child()]
            parts = [kids[0]]
            for kid in kids[1:]:
                parts.append(str(1 if i == "2" else rng.randint(1, 3)))
                parts.append(kid)
            return f"{label}({' '.join(parts)})"

        def child() -> str:
            if budget[0] > 0 and rng.random() < 0.5:
                budget[0] -= 1
                return node(False)
            return "."

        return node(True)

    def combination(self, family: str, nodes: int) -> str:
        rng = self.rng
        terms = [self.tree(family, rng.randint(1, nodes))
                 for _ in range(rng.choice((1, 1, 1, 2)))]
        coeffs = ("", "", "2*", "l*", "(1 + l)*", "l^2*")
        text = rng.choice(coeffs[:4]) + terms[0]
        for t in terms[1:]:
            text += rng.choice((" + ", " - ")) + rng.choice(coeffs) + t
        return text

    def deep_tree(self) -> str:
        """A chain of nested nodes, from moderately to over-deep."""
        depth = int(2 ** self.rng.uniform(5, 11))
        return "1(. 1 " * (depth - 1) + "1(. 1 .)" + ")" * (depth - 1)

    def _weight_flags(self) -> list[str]:
        r = self.rng.random()
        if r < 0.15:
            return ["--lambda", str(self.rng.randint(-2, 2))]
        if r < 0.25:
            return ["--format", "records"]
        return []

    def _tree_cmd(self) -> list[str]:
        """product, star, beta or morphism on small tree combinations."""
        rng = self.rng
        fam = rng.choice(FAMILY_TEXT)
        kind = rng.choice(("product", "star", "beta", "morphism"))
        if kind in ("product", "star"):
            return [kind, "--family", fam, self.combination(fam, 3),
                    self.combination(fam, 3)] + self._weight_flags()
        if kind == "beta":
            return ["beta", "--family", fam, self.combination(fam, 4)] + self._weight_flags()
        src = rng.choice(FAMILY_TEXT[1:])
        targets = [f for f in FAMILY_TEXT
                   if all(a == b or a == "2" for a, b in zip(f.split(","), src.split(",")))]
        return ["morphism", "--family", src, "--target", rng.choice(targets),
                self.combination(src, 4)] + self._weight_flags()

    # -- paths ---------------------------------------------------------------

    def diagonal_path(self, n: int) -> str:
        """A random path of H, V, D steps from (0,0) to (n,n) under the diagonal."""
        rng = self.rng
        x = y = 0
        steps = []
        while (x, y) != (n, n):
            moves = []
            if x < n:
                moves += ["H", "D"] if y < n else ["H"]
            if y < x:
                moves.append("V")
            step = rng.choice(moves)
            x += step in "HD"
            y += step in "VD"
            steps.append(step)
        return "".join(steps)

    def mountain_path(self, length: int, colored: bool) -> str:
        rng = self.rng
        h = 0
        steps = []
        for k in range(length):
            left = length - k
            moves = ["H"] + (["U"] if h + 1 <= left - 1 else []) + (["D"] if h > 0 else [])
            if h == left:
                moves = ["D"]
            step = rng.choice(moves)
            h += (step == "U") - (step == "D")
            if colored and step in "HU":
                step += rng.choice("rb")
            steps.append(step)
        return " ".join(steps) if colored else "".join(steps)

    def _path_cmd(self) -> list[str]:
        """One of the six path commands."""
        rng = self.rng
        kind = rng.choice(("tree-to-path", "path-to-tree", "t-map", "to-motzkin",
                           "rotate", "classify"))
        fmt = ["--format", "records"] if rng.random() < 0.2 else []
        if kind == "tree-to-path":
            t = self.tree("inf,2", rng.randint(1, 5))
            return ["tree-to-path", "1" + t[1:]] + fmt
        if kind == "to-motzkin":
            t = self.tree("2,2", rng.randint(1, 5))
            return ["to-motzkin", "1" + t[1:]] + fmt
        if kind in ("path-to-tree", "t-map"):
            return [kind, self.diagonal_path(rng.randint(1, 6))] + fmt
        if kind == "rotate":
            if rng.random() < 0.5:
                return ["rotate", self.diagonal_path(rng.randint(1, 6))] + fmt
            return ["rotate", self.mountain_path(rng.randint(1, 10), False)] + fmt
        if rng.random() < 0.5:
            return ["classify", self.diagonal_path(rng.randint(1, 7))] + fmt
        return ["classify", self.mountain_path(rng.randint(1, 10), rng.random() < 0.5),
                "--kind", "motzkin"] + fmt

    # -- tables, words, dendriform operations --------------------------------

    def _misc_cmd(self) -> list[str]:
        """A small dims, series or enumerate table, pi or a word command,
        or a dendriform operation or embedding."""
        rng = self.rng
        fam = rng.choice(FAMILY_TEXT)
        kind = rng.choice(("dims", "series", "enumerate", "pi", "word",
                           "dendriform", "embed"))
        fmt = ["--format", "records"] if rng.random() < 0.2 else []
        if kind == "enumerate":
            n = rng.randint(1, 4)
            return ["enumerate", "--family", fam, str(n), str(rng.randint(0, 5 - n))] + fmt
        if kind in ("dims", "series"):
            return [kind, "--family", fam, "--max-n", str(rng.randint(1, 6)),
                    "--max-m", str(rng.randint(1, 6))] + fmt
        if kind == "pi":
            fam = rng.choice(("2,2", "inf,2"))
            return ["pi", "--family", fam, self.combination(fam, 4)] + self._weight_flags()
        if kind == "word":
            return self._word_cmd()
        if kind == "dendriform" and rng.random() < 0.5:
            op = rng.choice(("left", "right", "dot", "star"))
            return ["dendriform", "--family", fam, "--op", op,
                    self.tree(fam, rng.randint(1, 2)), self.tree(fam, rng.randint(1, 2))]
        return self._planar_cmd(embed=kind == "embed")

    def word(self, variant: str) -> str:
        rng = self.rng
        letters, prev = [], None
        for _ in range(rng.randint(1, 4)):
            b = rng.choice("01") if variant == "infinity" else ("1" if prev == "0" else "0")
            exp = rng.randint(1, 3) if variant == "infinity" else 1
            letters.append(f"x{b}" + (f"^{exp}" if exp > 1 else ""))
            prev = b
        return " ".join(letters)

    def _word_cmd(self) -> list[str]:
        rng = self.rng
        variant = rng.choice(("infinity", "two"))
        action = rng.choice(("normalize", "quotient", "concat", "beta", "degree"))
        argv = ["word", action, self.word(variant)]
        if action == "concat":
            argv.append(self.word(variant))
        return argv + ["--variant", variant]

    def planar(self, nodes: int, binary: bool) -> str:
        rng = self.rng
        budget = [nodes - 1]

        def node() -> str:
            k = 2 if binary else rng.choice((2, 2, 3))
            kids = []
            for _ in range(k):
                if budget[0] > 0 and rng.random() < 0.5:
                    budget[0] -= 1
                    kids.append(node())
                else:
                    kids.append(".")
            return f"({' '.join(kids)})"

        return node()

    def _planar_cmd(self, embed: bool) -> list[str]:
        rng = self.rng
        variant = rng.choice(("trialgebra", "dialgebra"))
        binary = variant == "dialgebra"
        if embed:
            return ["embed", self.planar(rng.randint(1, 4), binary), "--variant", variant]
        ops = ("left", "right", "star") + (() if binary else ("dot",))
        return ["dendriform", "--variant", variant, "--op", rng.choice(ops),
                self.planar(rng.randint(1, 3), binary),
                self.planar(rng.randint(1, 3), binary)] + self._weight_flags()

    # -- malformed input -----------------------------------------------------

    def _deep_cmd(self) -> list[str]:
        """A command on a tree nested deeper than the parsers and renderers
        were written for."""
        deep = self.deep_tree()
        return self.rng.choice((
            ["beta", "--family", "inf,inf", deep],
            ["tree-to-path", deep],
            ["to-motzkin", deep],
            ["product", "--family", "inf,inf", "1(. 1 .)", deep],
            ["morphism", "--family", "inf,inf", "--target", "2,2", deep],
        ))

    def _broken(self, kind: str) -> list[str]:
        """A command with one argument broken in a way its grammar rejects."""
        rng = self.rng
        fam = rng.choice(FAMILY_TEXT)
        good = self.tree(fam, 2)
        if kind == "unbalanced":
            return ["product", "--family", fam, good[:-1], good]
        if kind == "bad-label":
            return ["beta", "--family", fam, good.replace("(", "x(", 1)]
        if kind == "bad-family":
            return ["beta", "--family", rng.choice(("3,2", "inf", "2;2", "")), good]
        if kind == "bad-choice":
            return ["dendriform", "--variant", "trialgebra", "--op", "cross", "(. .)", "(. .)"]
        if kind == "wrong-domain":
            return rng.choice((
                ["pi", "--family", "inf,inf", good],
                ["morphism", "--family", "2,2", "--target", "inf,inf", good],
                ["dendriform", "--variant", "dialgebra", "--op", "dot", "(. .)", "(. .)"],
                ["tree-to-path", "."],
                ["series", "--family", fam, "--max-n", "40", "--max-m", "2"],
            ))
        if kind == "bad-path":
            return [rng.choice(("path-to-tree", "t-map", "rotate")),
                    rng.choice(("HXV", "VH", "HHV", "U D D", ""))]
        return ["word", "normalize", rng.choice(("x2", "x0^0", "x1^a", "y")),  # bad-word
                "--variant", "infinity"]


class CliSession:
    """A stream in which each pool command recurs in proportion to its Zipf
    weight, pool position taken as popularity rank.  The multiset of
    commands is the same at every seed; the seed only orders it.  Stream
    length and Zipf exponent are assumptions, not measured figures."""

    name = "cli-session"
    commands = 3000
    zipf_exponent = 1.0

    def __init__(self, lib: Library, seed: int, pool: CommandPool | None = None):
        self.lib = lib
        self.pool = pool or CommandPool()
        weights = [1.0 / (r + 1) ** self.zipf_exponent
                   for r in range(len(self.pool.commands))]
        self.stream = [k for k, n in enumerate(apportion(weights, self.commands))
                       for _ in range(n)]
        self.seed = seed
        random.Random(seed).shuffle(self.stream)

    def arrange(self, iteration: int) -> None:
        """Order the stream for iteration ``iteration``, as
        ``Products.arrange`` orders the pairs.  Which of two commands that
        share memo entries pays for them, and which commands a garbage
        collection lands on, depend on the order, so a run that pools
        several orders depends less on any one of them."""
        if iteration:
            random.Random(f"{self.seed}/{iteration}").shuffle(self.stream)

    @property
    def ops(self) -> int:
        return len(self.stream)

    def run(self, clock: Callable[[], float] = perf_counter,
            stream: Sequence[int] | None = None) -> Run:
        main = self.lib.cli.main
        pool = self.pool.commands
        outputs, starts, latencies = [], [], []
        start = clock()
        for k in self.stream if stream is None else stream:
            t0 = clock()
            try:
                outputs.append(execute(main, pool[k]))
            except Exception as exc:  # a failed op; the session goes on
                outputs.append(_op_error(exc))
            latencies.append(clock() - t0)
            starts.append(t0)
        return Run(latencies, clock() - start, outputs, starts=starts, start=start)

    def too_deep(self, k: int, error: tuple) -> bool:
        """Whether pool command ``k`` raising ``error`` is the RecursionError
        that over-deep nesting still provokes."""
        return k in self.pool.deep and error[1] == "RecursionError"

    def check(self, run: Run, golden: dict) -> Verdict:
        if golden["pool"] != self.pool.fingerprint():
            raise RuntimeError("command pool differs from the one the golden file records")
        want = golden["outputs"]
        failed = unexpected = 0
        raised: dict[str, int] = {}
        for k, out in zip(self.stream, run.outputs):
            if _is_error(out):
                failed += 1
                raised[out[1]] = raised.get(out[1], 0) + 1
                unexpected += not self.too_deep(k, out)
            elif want[k] is not None and digest(repr(out)) != want[k]:
                failed += 1
                unexpected += 1
        notes = [f"{n} commands raised {name}" for name, n in sorted(raised.items())]
        return Verdict(len(self.stream), failed, unexpected, notes)

    def golden(self, run: Run) -> dict:
        """Outputs of every pool command, from a run over the whole pool in
        pool order.  An over-deep command that raised has no golden output;
        any other command that raised is an error."""
        for k, out in enumerate(run.outputs):
            if _is_error(out) and not self.too_deep(k, out):
                raise RuntimeError(f"pool command {k} raised {out[1]}: {self.pool.commands[k]}")
        return {
            "pool": self.pool.fingerprint(),
            "outputs": [None if _is_error(o) else digest(repr(o)) for o in run.outputs],
        }


WORKLOADS = {w.name: w for w in (Products, VerifyDesk, CliSession)}
