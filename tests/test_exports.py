import importlib
import pkgutil

import pytest

import topoinf

MODULES = [info.name for info in pkgutil.iter_modules(topoinf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """A stale `__all__` entry does not fail at import time, only at
    `from module import *`."""
    module = importlib.import_module(f"topoinf.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", ["node_influence", "node_regularizer", "soft_labels"])
def test_removed_names_not_exported(name):
    assert not hasattr(topoinf, name)
    assert name not in topoinf.__all__
