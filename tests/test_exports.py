"""Every name a crlab module lists in __all__ exists in it, and every name
the crlab namespace re-exports is listed there."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import crlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(crlab.__path__, "crlab."))


def test_modules_found():
    assert "crlab.codec" in MODULES and "crlab.rd_solver" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def exported(module):
    """The names `from module import *` binds: its __all__, or without one
    its public names."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


def test_reexports_are_listed_in_their_modules_all():
    """Every name crlab/__init__.py imports from a submodule is in that
    submodule's __all__, so the two cannot drift apart."""
    tree = ast.parse(inspect.getsource(crlab))
    unlisted = [f"{node.module}.{alias.name}"
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
                if alias.name not in exported(importlib.import_module(f"crlab.{node.module}"))]
    assert not unlisted, f"re-exported but missing from __all__: {unlisted}"
