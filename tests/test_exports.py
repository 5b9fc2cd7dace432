import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import topoinf
from topoinf import DeltaWorkspace, Graph, LabelData, NormalizedAdjacency

MODULES = [info.name for info in pkgutil.iter_modules(topoinf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """A stale `__all__` entry does not fail at import time, only at
    `from module import *`."""
    module = importlib.import_module(f"topoinf.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", ["node_influence", "node_regularizer", "soft_labels",
                                  "PolynomialFilter", "expand_preset", "as_filter",
                                  "PseudoLabels", "DropEdgeDistribution",
                                  "SoftLabelMatrix", "RemovalStep", "EdgePartition",
                                  "adaedge_partition"])
def test_removed_names_not_exported(name):
    assert not hasattr(topoinf, name)
    assert name not in topoinf.__all__


@pytest.mark.parametrize("owner, name", [(Graph, "edge_id"), (NormalizedAdjacency, "matrix"),
                                         (LabelData, "one_hot"),
                                         (DeltaWorkspace, "score_edges")])
def test_removed_methods_gone(owner, name):
    assert not hasattr(owner, name)


COLD_PATH = """
import sys
import topoinf, topoinf.cli
from topoinf import (CsbmParams, FilterSpec, compatibility, greedy_refine,
                     score_all_edges)
from topoinf.csbm import cora_like_params, generate_csbm, write_features
from topoinf.graphs import normalized_adjacency, write_edge_list, write_labels
sample = generate_csbm(cora_like_params(seed=0))
write_edge_list(sample.graph), write_labels(sample.labels), write_features(sample.X)
print("scipy" in sys.modules)
small = generate_csbm(CsbmParams(n=120, c=3, p=0.08, q=0.01, d=3, sigma=1.0, seed=0))
g, labels = small.graph, small.labels
compatibility(g, FilterSpec("appnp", 10), labels)
score_all_edges(g, FilterSpec("appnp", 10), labels)   # dense batches
score_all_edges(g, FilterSpec("sgc", 2), labels)      # sparse batches first
greedy_refine(g, FilterSpec("sgc", 2), labels, lam=0.1, max_removals=2)
normalized_adjacency(g)
print("scipy" in sys.modules, "scipy.sparse" in sys.modules)
"""


def test_seeded_data_path_leaves_scipy_unloaded():
    """Importing topoinf, drawing a block model and writing it never load
    scipy, and neither do building Â, a compatibility report, scoring every
    edge in dense and in sparse batches, and greedy rewiring: they load only
    scipy's compiled kernels, and scipy.sparse stays unloaded to the end."""
    src = Path(topoinf.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", COLD_PATH], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]
