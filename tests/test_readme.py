"""Every ``$ baxtertrees …`` example in README.md prints what it shows.

An example runs from its ``$`` line to the next blank line, ``$`` line
or end of its code block.  A ``...`` line in the shown output matches any
number of lines.  The desk ``verify`` example is skipped: its timings
vary and the acceptance tests already run that gate.
"""

import re
import shlex
from pathlib import Path

import pytest

from baxtertrees.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[list[str], str]]:
    found: list[tuple[list[str], list[str]]] = []
    in_block = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ baxtertrees "):
            current = (shlex.split(line[2:], comments=True)[1:], [])
            found.append(current)
        elif in_block and line and current is not None:
            current[1].append(line)
        else:
            current = None
    return [(argv, "".join(re.escape(l + "\n") if l != "..." else "(?:.*\n)*"
                           for l in shown))
            for argv, shown in found if argv[0] != "verify"]


EXAMPLES = examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("argv, pattern", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, pattern):
    assert main(argv) == 0
    assert re.fullmatch(pattern, capsys.readouterr().out)
