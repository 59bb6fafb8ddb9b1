"""Every exported name resolves, so a deletion cannot leave a stale
entry in an ``__all__`` list behind."""

import importlib
import pkgutil

import pytest

import baxtertrees

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(baxtertrees.__path__)
                    if not info.name.startswith("_"))


def test_every_submodule_is_checked():
    assert {"trees", "baxter_core", "paths", "monomial", "cli"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", ["baxtertrees"] + [
    f"baxtertrees.{m}" for m in SUBMODULES])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert module.__all__ and not missing, missing
