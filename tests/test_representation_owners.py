"""Each representation decision is known by the one module that owns it.

* ``scalars`` owns the dense coefficient tuple of a weight polynomial;
  other modules ask ``LambdaPoly.is_zero`` and ``is_one``.
* ``baxter_core`` owns how an operand reads as terms: a `LinComb` as its
  own terms, a bare basis element as one term with coefficient one
  (``baxter_core._terms``).
* ``trees`` owns the planar-decorated conversion and the decorated image
  each planar tree keeps (``PTree._image``).

The source is read with ``ast``, so prose in docstrings does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "baxtertrees"


def modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def scoped(node, scope=""):
    """Every node under ``node`` with the qualified name of the function
    or class around it ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield child, scope
        yield from scoped(child, inner)


def attribute_readers(attr):
    return sorted({name for name, tree in modules() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == attr})


def test_only_scalars_reads_a_coefficient_tuple():
    # counting.BiSeries has a field of its own named coeffs.
    assert attribute_readers("coeffs") == ["counting", "scalars"]


def test_only_trees_touches_a_planar_trees_image():
    assert attribute_readers("_image") == ["trees"]


def test_dendriform_imports_nothing_from_paths():
    tree = dict(modules())["dendriform"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m and m.split(".")[-1] == "paths"}


def test_only_baxter_core_tells_a_combination_from_a_basis_element():
    sites = set()
    for name, tree in modules():
        for node, scope in scoped(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "LinComb" for k in names):
                    sites.add((name, scope))
    operators = {("baxter_core", f"LinComb.{m}")
                 for m in ("__add__", "__sub__", "__eq__")}
    assert sites - operators == {("baxter_core", "_terms")}
