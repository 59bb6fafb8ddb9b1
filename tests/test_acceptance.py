"""Acceptance gate: the ten top-level claims, one test and one report line each.

Each criterion drives the same suite functions as ``baxtertrees verify``
at the ``desk`` budget, so the command line and this gate cannot drift
apart.  Criteria with a stated runtime budget assert it; all comparisons
are exact (integer or polynomial equality), never approximate.  Each
suite's check names and outcomes must also equal the ones recorded in the
benchmark's verify-desk golden, so a renamed or added check fails here
first.
"""

import json
from pathlib import Path

import baxtertrees.verify as verify

_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench/recorded/verify-desk.json"

_elapsed: dict[str, float] = {}


def _criterion(number, suite, budget_seconds=None):
    result = verify.run_suite(suite, budget="desk")
    _elapsed[suite] = result.elapsed
    status = "PASS" if result.ok else "FAIL"
    print(f"criterion {number}: {status} "
          f"({suite}: {result.passed} passed, {result.failed} failed, "
          f"{result.elapsed:.2f}s)")
    failures = [c for c in result.checks if not c.ok]
    assert result.ok, f"criterion {number} failed: " + "; ".join(
        f"{c.name} [{c.detail}]" for c in failures
    )
    golden = json.loads(_GOLDEN.read_text())["checks"]
    recorded = [(name, ok) for s, name, ok in golden if s == suite]
    assert [(c.name, c.ok) for c in result.checks] == recorded, (
        f"criterion {number}: {suite} checks differ from {_GOLDEN.name}")
    if budget_seconds is not None:
        assert result.elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget: "
            f"{result.elapsed:.2f}s"
        )


def test_criterion_01_dimension_closed_forms():
    """Tree counts equal the closed formulas on the full stated boxes."""
    _criterion(1, "dimensions", budget_seconds=30)


def test_criterion_02_sequence_marginals():
    """Row, diagonal, and column sums hit the classical sequences."""
    _criterion(2, "marginals", budget_seconds=10)


def test_criterion_03_binomial_transforms():
    """The transform identities tie the four dimension tables together."""
    _criterion(3, "transforms")


def test_criterion_04_generating_functions():
    """Series expansions match enumeration; the substitution identity holds."""
    _criterion(4, "series", budget_seconds=5)


def test_criterion_05_operator_identities():
    """Operator law, associativity, quasi-idempotency, generator idempotency."""
    _criterion(5, "identities", budget_seconds=60)


def test_criterion_06_worked_examples():
    """The pinned product and graft/degraft displays reproduce verbatim."""
    _criterion(6, "examples")


def test_criterion_07_path_bijections():
    """Encodings, class trades, colored readings, rotation: all round-trip."""
    _criterion(7, "bijections")


def test_criterion_08_quotient_morphisms():
    """Surjectivity, operator/product compatibility, diamond, factorization."""
    _criterion(8, "morphisms")


def test_criterion_09_monomial_projections():
    """Projection formula vs recursion, kernel relation, word counts."""
    _criterion(9, "monomial")


def test_criterion_10_dendriform_structures():
    """Seven axioms, induced splittings, embeddings, planar dimensions."""
    _criterion(10, "dendriform")


def test_total_runtime_within_budget():
    """The whole desk verification stays inside the summed time budget."""
    assert len(_elapsed) == 10
    total = sum(_elapsed.values())
    print(f"total desk verification: {total:.2f}s")
    assert total < 105
