"""Every name that a kab module lists in __all__ exists in that module.

A stale entry fails only on `from kab.<module> import *`, so it is checked
here for every module of the package.
"""
import importlib
import pkgutil

import pytest

import kab

MODULES = sorted(m.name for m in pkgutil.iter_modules(kab.__path__))


def test_modules_found():
    assert {"specfun", "operators", "exact", "semiclassics", "evolution"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"kab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
