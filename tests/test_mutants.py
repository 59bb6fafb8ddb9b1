"""Named source mutants that the quick verify gate must catch.

Each mutant is one exact text replacement in a temporary copy of
``src/``.  The copy runs ``baxtertrees verify --suite S --budget quick`` in
a subprocess, which must exit 1 and print exactly the listed ``FAIL``
checks, in order.  A check that a mutant fails can fail, so the table
shows that these checks are not vacuous (DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer, 1978).

The check names carry their quick bounds, so changing a quick bound
means editing the names below.  The mutants live only here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PLANAR_EMBEDDING = "planar embedding intertwines all three operations, <= 4 leaves"
_OPERATOR_LAW = "operator law beta(a)beta(b) = beta(a*b) on pairs of total degree <= 2"
_SCHRODER = ("counting.py", "return schroder_large(n - 1) + sum(",
             "return schroder_large(n - 2) + sum(")
_MOTZKIN = (
    "counting.py",
    "return motzkin(n - 1) + sum(motzkin(k) * motzkin(n - 2 - k) for k in range(n - 1))",
    "return motzkin(n - 1) + sum(motzkin(k) * motzkin(n - 2 - k) for k in range(n - 2))",
)

# name -> (module, original text, mutated text, suite, checks that fail)
MUTANTS = {
    "seam_swapped": (
        "dendriform.py",
        "for t, c in _star(variant, a, b).terms.items():",
        "for t, c in _star(variant, b, a).terms.items():",
        "dendriform",
        ("seven axioms hold symbolically on trees with <= 3 leaves",
         "two-operation axioms hold on binary trees with <= 3 leaves",
         _PLANAR_EMBEDDING,
         "binary embedding intertwines both operations at weight 0, <= 4 leaves"),
    ),
    "dot_weight_one": (
        "dendriform.py",
        '_seam(out, variant, "dot", x, y, LAMBDA)',
        '_seam(out, variant, "dot", x, y, ONE)',
        "dendriform",
        ("two-operation structure is the weight-0 specialization",
         _PLANAR_EMBEDDING),
    ),
    "walker_angle": (
        "paths.py",
        'steps += ["D"] * (angle - 1)',
        'steps += ["D"] * (angle - 2)',
        "bijections",
        ("raised trees biject with plus-class paths up to n=5",
         "root-0 trees biject with zero-class paths up to n=4"),
    ),
    "rotation_inverse": (  # _UNROTATE then sends H to X
        "paths.py",
        '_ROTATE = {"H": "U", "V": "D", "D": "H"}',
        '_ROTATE = {"H": "U", "V": "D", "D": "H", "X": "H"}',
        "bijections",
        ("rotation carries paths of total degree k onto Motzkin paths, k <= 5",),
    ),
    "star_weight_negated": (
        "baxter_core.py",
        "addmul(out, circle(family, u, v).terms.items(), LAMBDA)",
        "addmul(out, circle(family, u, v).terms.items(), -LAMBDA)",
        "identities",
        (_OPERATOR_LAW,),
    ),
    "beta_power": (
        "baxter_core.py",
        "_minus_weight_power(t.label)",
        "_minus_weight_power(t.label + 1)",
        "identities",
        (_OPERATOR_LAW,
         "operator is quasi-idempotent in the collapsed-label families up to 4"),
    ),
    "merge_angle": (
        "baxter_core.py",
        "return 1 if family.i == 2 else a + b",
        "return 1 if family.i == 2 else a + b + 1",
        "examples",
        ("corner product adds angle labels",
         "derived product of corners has three terms",
         "raised product in the collapsed-label family",
         "raised product renders verbatim",
         "grafting merges an interior leaf into its flanking angles",
         "induced middle operation on generators adds angles"),
    ),
    "schroder_shift_rows": _SCHRODER + (
        "marginals",
        ("free-angle row sums are the large Schroeder numbers up to n=4",),
    ),
    "schroder_shift_classes": _SCHRODER + (
        "bijections",
        ("plus and zero classes are counted by small Schroeder numbers up to 5",),
    ),
    "motzkin_short_totals": _MOTZKIN + (
        "marginals",
        ("free-angle total-degree counts are the Motzkin numbers up to 4",),
    ),
    "motzkin_short_series": _MOTZKIN + (
        "series",
        ("free-angle series sums to the Motzkin numbers along total degree",),
    ),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_quick_verify_fails_exactly_the_checks_a_mutant_breaks(name, tmp_path):
    module, original, mutated, suite, failing = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "baxtertrees" / module
    text = path.read_text()
    assert text.count(original) == 1, f"{name}: {original!r} is not in {module} once"
    path.write_text(text.replace(original, mutated))
    proc = subprocess.run(
        [sys.executable, "-m", "baxtertrees", "verify",
         "--suite", suite, "--budget", "quick"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    failed = [line[len("  FAIL "):].partition(": ")[0]
              for line in proc.stdout.splitlines() if line.startswith("  FAIL ")]
    assert (proc.returncode, failed) == (1, list(failing)), proc.stdout + proc.stderr
