"""Every name a crlab module lists in __all__ exists in it."""

import importlib
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
