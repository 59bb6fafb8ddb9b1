"""Every memo table in the library is one the benchmark can see.

The benchmark empties each table it finds (``Library.memos`` in
``perfbench/workloads.py``) before every iteration.  A table it cannot
find would keep its entries from one iteration to the next, and the later
iterations would run warm without any report saying so.  The tables are
read here, never cleared.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "baxtertrees"


def memoized_functions():
    """``module.function`` for each function under an ``lru_cache``
    decorator, found in the source text."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    yield f"{path.stem}.{node.name}"


def benchmark_memos():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = list(sys.path)
    try:
        return module.Library(ROOT).memos
    finally:
        sys.path[:] = path


def test_every_lru_cache_is_a_benchmark_memo():
    found = sorted(memoized_functions())
    for known in ("baxter_core.circle", "baxter_core.star", "dendriform._star",
                  "scalars._sum", "scalars._product"):
        assert known in found
    memos = benchmark_memos()
    assert [name for name in found if name not in memos] == []
