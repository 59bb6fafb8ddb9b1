"""Every function and method that the benchmark's tracer wraps by name
exists in the library, so a traced run (``perfbench/run.py --trace 1``)
cannot stop on a name the library dropped."""

import importlib
import importlib.util
from pathlib import Path

from baxtertrees import baxter_core
from baxtertrees.baxter_core import LinComb, generator
from baxtertrees.scalars import LambdaPoly
from baxtertrees.trees import FAMILIES, FI2, parse_tree

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tables = tracer_tables()
    named = [(modname, fname)
             for table in (tables.SPANS, tables.COUNTED)
             for modname, funcs in table.items() for fname in funcs]
    assert ("baxter_core", "beta") in named and ("baxter_core", "graft") in named
    missing = [f"{modname}.{fname}" for modname, fname in named
               if not callable(getattr(importlib.import_module(f"baxtertrees.{modname}"),
                                       fname, None))]
    assert missing == []


def test_traced_methods_are_defined_on_their_classes():
    # The tracer reads each method from the class's own namespace.
    tables = tracer_tables()
    assert tables.SCALAR_METHODS and tables.LINCOMB_METHODS
    missing = [f"{cls.__name__}.{name}"
               for cls, methods in ((LambdaPoly, tables.SCALAR_METHODS),
                                    (LinComb, tables.LINCOMB_METHODS))
               for name in methods if name not in vars(cls)]
    assert missing == []


def test_memo_tables_read_by_name_exist():
    # perfbench/run.py reads these entries of its memo-table map by key,
    # and that map keeps only lru_cache-like objects defined in their module.
    run = (TRACING.parent / "run.py").read_text()
    for key in ("baxter_core.circle", "baxter_core.star", "dendriform._star"):
        assert f'"{key}"' in run
        modname, attr = key.split(".")
        module = importlib.import_module(f"baxtertrees.{modname}")
        table = getattr(module, attr, None)
        assert callable(getattr(table, "cache_info", None)), key
        assert callable(getattr(table, "cache_clear", None)), key
        assert table.__module__ == module.__name__, key
    # The harness empties the tables through cache_clear before each
    # iteration; it must empty what the products fill.
    products = (baxter_core.circle, baxter_core.star)
    gen = generator(FAMILIES[0])
    baxter_core.star(FAMILIES[0], gen, gen)
    assert all(f.cache_info().currsize for f in products)
    for f in products:
        f.cache_clear()
    assert [f.cache_info().currsize for f in products] == [0, 0]


def test_a_product_hashes_the_same_when_computed_again():
    """`Products.hashes` in perfbench/workloads.py calls hash() on every
    product to skip re-rendering a run that matched the golden, so the
    ``__hash__`` of `LinComb` and `LambdaPoly` is in use though no library
    code calls it: a census of unrun lines must not count it dead."""
    a, b = parse_tree("1(. 2 .)"), parse_tree("1(. 3 .)")
    first = baxter_core.circle(FI2, a, b)
    assert "l*" in str(first)  # a weighted term, so a LambdaPoly is hashed too
    baxter_core.circle.cache_clear()
    again = baxter_core.circle(FI2, a, b)
    assert again is not first and again == first
    assert hash(again) == hash(first)
