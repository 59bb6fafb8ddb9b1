"""The cyclic collector is paused in one place, ``baxter_core._collector_paused``.

``verify.run_suite`` and the ``circle``/``star`` memo misses all pause
through it, so every pause puts the collector back as it found it, also
when the paused call raises.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "baxtertrees"


def test_one_place_pauses_the_collector():
    found = [f"{path.name}:{n}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "gc.disable(" in line]
    assert len(found) == 1 and found[0].startswith("baxter_core.py:"), found
