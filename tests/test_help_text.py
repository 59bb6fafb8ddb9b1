"""Help and usage-error text of every parser, pinned byte for byte.

``help_text.txt`` holds, for the top-level parser and each subcommand,
what ``--help``, no arguments and an unknown flag after valid arguments
print and the exit code they end with, all at ``COLUMNS=80``, the width
argparse reads from the environment.  A few more usage errors follow:
an abbreviated or ``=``-joined option, a ``--``, an unknown command and
an extra operand.  Each case starts with a
``$ baxtertrees …`` line, then ``exit N``, then the ``stdout:`` and
``stderr:`` lines, each output line prefixed by ``|``.

Re-record after a deliberate change to the help text with::

    PYTHONPATH=src python tests/test_help_text.py
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import baxtertrees
from baxtertrees.cli import main

FIXTURE = Path(__file__).with_name("help_text.txt")

# Arguments that satisfy argparse for each subcommand; no handler runs,
# because the unknown flag appended to them stops the parse first.
VALID = {
    "product": ["x", "y", "--family", "2,2"],
    "star": ["x", "y", "--family", "2,2"],
    "beta": ["x", "--family", "2,2"],
    "enumerate": ["1", "1", "--family", "2,2"],
    "dims": ["--family", "2,2"],
    "series": ["--family", "2,2"],
    "tree-to-path": ["x"],
    "path-to-tree": ["x"],
    "t-map": ["x"],
    "to-motzkin": ["x"],
    "rotate": ["x"],
    "classify": ["x"],
    "morphism": ["x", "--family", "2,2", "--target", "2,2"],
    "decompose-check": ["x", "--family", "2,2"],
    "pi": ["x", "--family", "2,2"],
    "word": ["normalize", "x"],
    "dendriform": ["x", "y", "--op", "left"],
    "embed": ["x"],
    "verify": [],
}


def cases() -> list[list[str]]:
    out = [["--help"], [], ["--bogus"]]
    for name, valid in VALID.items():
        out.append([name, "--help"])
        # Without arguments ``verify`` runs every suite; a bad choice
        # shows its usage instead.
        out.append([name] if valid else [name, "--format", "bogus"])
        out.append([name, *valid, "--bogus"])
    out += [
        ["product", "x", "y", "--family=2,2", "--bogus"],
        ["product", "x", "y", "--fam", "2,2", "--bogus"],
        ["product", "--", "x", "y", "--family", "2,2"],
        ["prod", "x", "y", "--family", "2,2"],
        ["product", "x", "y", "z", "--family", "2,2"],
    ]
    return out


def capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def head(argv: list[str]) -> str:
    return " ".join(["$ baxtertrees", *map(shlex.quote, argv)])


def _block(text: str) -> list[str]:
    assert text == "" or text.endswith("\n")
    return [f"| {line}" if line else "|" for line in text.split("\n")[:-1]]


def render(argv: list[str], code: int, out: str, err: str) -> str:
    lines = [head(argv), f"exit {code}",
             "stdout:", *_block(out), "stderr:", *_block(err)]
    return "\n".join(lines) + "\n"


def recorded() -> dict[str, str]:
    """The fixture's cases, keyed by their ``$`` line."""
    blocks: dict[str, str] = {}
    for line in FIXTURE.read_text(encoding="utf-8").split("\n")[:-1]:
        if line.startswith("$ "):
            key, blocks[line] = line, ""
        blocks[key] += line + "\n"
    return blocks


def test_fixture_covers_every_case():
    assert list(recorded()) == [head(argv) for argv in cases()]


@pytest.mark.parametrize("argv", cases(), ids=lambda a: " ".join(a) or "(none)")
def test_help_and_usage_text_is_unchanged(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert render(argv, *capture(argv)) == recorded()[head(argv)]


def test_python_dash_m_prints_the_top_level_help():
    src = str(Path(baxtertrees.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = ["--help"]
    done = subprocess.run([sys.executable, "-m", "baxtertrees", *argv],
                          capture_output=True, encoding="utf-8", env=env,
                          timeout=60)
    assert (render(argv, done.returncode, done.stdout, done.stderr)
            == recorded()[head(argv)])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    FIXTURE.write_text("".join(render(a, *capture(a)) for a in cases()),
                       encoding="utf-8")
