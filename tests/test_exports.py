import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


COLD_PATH = """
import sys
import topoinf, topoinf.cli
from topoinf.csbm import cora_like_params, generate_csbm, write_features
from topoinf.graphs import normalized_adjacency, write_edge_list, write_labels
sample = generate_csbm(cora_like_params(seed=0))
write_edge_list(sample.graph), write_labels(sample.labels), write_features(sample.X)
print("scipy" in sys.modules)
normalized_adjacency(sample.graph)
print("scipy" in sys.modules)
"""


def test_seeded_data_path_leaves_scipy_unloaded():
    """Importing topoinf, drawing a block model and writing it never load
    scipy; building Â does."""
    src = Path(topoinf.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", COLD_PATH], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
