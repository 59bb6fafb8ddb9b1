"""Numbers in text are read by one rule, ``scan.Cursor``'s decimal digits.

``str.isdigit`` accepts characters such as ``²`` that ``int`` rejects, so
a parser built on it turns such input into a ValueError traceback
instead of a parse error.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "baxtertrees"


def test_no_isdigit_in_the_package():
    found = [f"{path.name}:{n}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "isdigit(" in line]
    assert found == []
