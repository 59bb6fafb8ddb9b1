"""Self-check driver: suite registry, budgets, and result bookkeeping."""

import gc

from baxtertrees import verify
from baxtertrees.cli import main
from baxtertrees.dendriform import dend_op
from baxtertrees.errors import DomainError
from baxtertrees.trees import binary_trees
from baxtertrees.trees import planar_trees
from baxtertrees.verify import (
    _AXIOMS, BUDGETS, DEFAULT_SEED, SUITES, _axiom_failures, run_suite, run_suites,
)

import pytest


def test_registry_names():
    assert set(SUITES) == {
        "dimensions", "marginals", "transforms", "series", "identities",
        "examples", "bijections", "morphisms", "monomial", "dendriform",
    }
    assert BUDGETS == ("quick", "desk")


def test_unknown_suite_and_budget_rejected():
    with pytest.raises(DomainError):
        run_suite("spectral")
    with pytest.raises(DomainError):
        run_suite("examples", budget="overnight")


def test_quick_bounds_never_exceed_desk():
    quick, desk = verify._BOUNDS["quick"], verify._BOUNDS["desk"]
    assert quick.keys() == desk.keys() and len(quick) == 34
    for key, bound in quick.items():
        if isinstance(bound, tuple):
            assert all(q <= d for q, d in zip(bound, desk[key])), key
        else:
            assert bound <= desk[key], key


def test_quick_examples_suite_passes():
    r = run_suite("examples", budget="quick")
    assert r.ok and r.failed == 0 and r.passed > 0
    assert r.suite == "examples"
    assert all(c.ok for c in r.checks)


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_leaves_no_cyclic_garbage(name):
    # The census behind pausing the collector: with it off, a suite
    # builds no reference cycles, so a collection afterwards finds none.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_suite(name, budget="quick").ok
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_suite_pauses_the_collector_and_puts_it_back(monkeypatch, enabled):
    seen = []

    def suite(bounds, rng):
        seen.append(gc.isenabled())
        yield from ()

    def failing(bounds, rng):
        seen.append(gc.isenabled())
        raise RuntimeError("suite failed")
        yield

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setitem(SUITES, "examples", suite)
        run_suite("examples", budget="quick")
        after_run = gc.isenabled()
        monkeypatch.setitem(SUITES, "examples", failing)
        raised = run_suite("examples", budget="quick")
        after_raise = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]
    assert after_run is enabled and after_raise is enabled
    assert [c.detail.split(" (in ")[0] for c in raised.checks] == [
        "RuntimeError: suite failed"]


def test_each_yielded_check_is_recorded_in_order(monkeypatch):
    def stub(bounds, rng):
        yield "x", []
        yield "y", [3, 4]

    monkeypatch.setitem(SUITES, "examples", stub)
    result = run_suite("examples", budget="quick")
    assert [(c.name, c.ok, c.detail) for c in result.checks] == [
        ("x", True, ""), ("y", False, "2 counterexamples, first: 3")]


def test_a_suite_that_raises_fails_one_check_and_the_run_goes_on(monkeypatch, capsys):
    # A library fault inside a suite is a failed check (exit 1), not bad
    # input (exit 4), and it hides no other suite's results.
    def stub(bounds, rng):
        yield "a check before the fault", []
        raise DomainError("dialgebra basis elements must be binary trees")

    monkeypatch.setattr(verify, "SUITES", {"stub": stub, "examples": SUITES["examples"]})
    code = main(["verify", "--budget", "quick"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("stub: 1 passed, 1 failed (")
    assert lines[1].startswith(
        "  FAIL stub suite runs to the end: DomainError: dialgebra basis elements "
        "must be binary trees (in stub, test_verify.py:")
    assert lines[2].startswith("examples: ") and " 0 failed " in lines[2]
    assert lines[-1].startswith("total: ") and lines[-1].endswith(" passed, 1 failed")


def test_run_suites_subset_order():
    results = run_suites(["marginals", "examples"], budget="quick")
    assert [r.suite for r in results] == ["marginals", "examples"]
    assert all(r.ok for r in results)


def test_seed_changes_only_spot_checks():
    a = run_suite("examples", budget="quick", seed=DEFAULT_SEED)
    b = run_suite("examples", budget="quick", seed=DEFAULT_SEED + 1)
    assert a.ok and b.ok
    assert [c.name for c in a.checks] == [c.name for c in b.checks]


def test_axiom_table_reports_like_the_written_out_checks():
    # left and right swapped, so the dialgebra axioms fail on some triples
    def op(name):
        return lambda x, y: dend_op("dialgebra", name, x, y)

    l_, r_, s_ = op("right"), op("left"), op("star")
    pool = [bt for n in (1, 2) for bt in binary_trees(n)]
    triples = [(x, y, z) for x in pool for y in pool for z in pool]
    expected = []
    for x, y, z in triples:
        for tag, lhs, rhs in (
            ("<<", l_(l_(x, y), z), l_(x, s_(y, z))),
            ("><", l_(r_(x, y), z), r_(x, l_(y, z))),
            (">>", r_(s_(x, y), z), r_(x, r_(y, z))),
        ):
            if lhs != rhs:
                expected.append((tag, str(x), str(y), str(z)))
    assert expected
    assert _axiom_failures((l_, r_, None, s_), iter(triples), _AXIOMS[:3]) == expected


def test_axiom_table_reports_like_the_seven_written_out_checks():
    # dot replaced by left, so some trialgebra axioms fail on some triples
    def op(name):
        return lambda x, y: dend_op("trialgebra", name, x, y)

    l_, r_, d_, s_ = op("left"), op("right"), op("left"), op("star")
    pool = [pt for n in (1, 2) for m in range(1, n + 1) for pt in planar_trees(n, m)]
    triples = [(x, y, z) for x in pool for y in pool for z in pool]
    expected = []
    for x, y, z in triples:
        for tag, lhs, rhs in (
            ("<<", l_(l_(x, y), z), l_(x, s_(y, z))),
            ("><", l_(r_(x, y), z), r_(x, l_(y, z))),
            (">>", r_(s_(x, y), z), r_(x, r_(y, z))),
            (".<", l_(d_(x, y), z), d_(x, l_(y, z))),
            (".>", d_(l_(x, y), z), d_(x, r_(y, z))),
            (">.", d_(r_(x, y), z), r_(x, d_(y, z))),
            ("..", d_(d_(x, y), z), d_(x, d_(y, z))),
        ):
            if lhs != rhs:
                expected.append((tag, str(x), str(y), str(z)))
    assert {f[0] for f in expected} == {".<", ".>", ".."}
    assert _axiom_failures((l_, r_, d_, s_), iter(triples), _AXIOMS) == expected
