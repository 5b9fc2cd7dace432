import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import topoinf
from topoinf import (CsbmParams, DeltaWorkspace, Graph, LabelData, NormalizedAdjacency,
                     generate_csbm, write_edge_list, write_labels)

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



def test_block_model_leaves_engine_unloaded():
    """`import topoinf` and drawing a block model load neither the scoring
    engine nor numpy.ma."""
    script = ("import sys\nfrom topoinf import CsbmParams, generate_csbm\n"
              "generate_csbm(CsbmParams(n=90, c=3, p=0.1, q=0.02, d=3, sigma=1.0, seed=0)).X\n"
              "print([m for m in ('topoinf.influence', 'numpy.ma') if m in sys.modules])\n")
    src = Path(topoinf.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# one command in a fresh process; probes record whether hashlib (and with it
# OpenSSL's libcrypto) is loaded when the scores are computed and when
# `cli._emit` starts, once every data output is computed
COMMAND_PATH = """
import sys
from topoinf import cli
loaded = []
def after(fn):
    def probe(*args, **kwargs):
        out = fn(*args, **kwargs)
        loaded.append("hashlib" in sys.modules)
        return out
    return probe
cli.score_all_edges, cli.greedy_refine = after(cli.score_all_edges), after(cli.greedy_refine)
emit = cli._emit
cli._emit = lambda *args, **kw: loaded.append("hashlib" in sys.modules) or emit(*args, **kw)
assert cli.main(sys.argv[1:]) == 0
print(loaded, "hashlib" in sys.modules,
      [m for m in ("numpy.ma", "topoinf.pseudo", "topoinf.verify") if m in sys.modules])
"""


@pytest.mark.parametrize("argv, loaded", [
    (["rewire", "--strategy", "topoinf", "--greedy", "--lambda", "0.1", "--ratio", "0.02",
      "--output", "{out}/r.edges"], "[False, False]"),
    (["score", "--model", "appnp", "--k", "10", "--output", "{out}/s.tsv"], "[False, False]"),
    # the sampler's first draw imports numpy.random, which loads hashlib
    (["dropedge", "--tau", "0.75", "--lambda", "0", "--emit-epochs", "3",
      "--output-prefix", "{out}/de"], "[False, True]"),
], ids=["rewire-greedy", "score", "dropedge"])
def test_command_loads_what_it_runs(tmp_path, argv, loaded):
    """A bench command never loads numpy.ma, the pseudo-label trainer or the
    verify suites, and loads hashlib only after scoring: for the manifest's
    input digests, or for the dropedge sampler's random draws."""
    sample = generate_csbm(CsbmParams(n=90, c=3, p=0.1, q=0.02, d=3, sigma=1.0, seed=0))
    (tmp_path / "g.edges").write_text(write_edge_list(sample.graph))
    (tmp_path / "g.labels").write_text(write_labels(sample.labels))
    io = ["--graph", str(tmp_path / "g.edges"), "--labels", str(tmp_path / "g.labels")]
    src = Path(topoinf.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", COMMAND_PATH, argv[0], *io,
                           *(a.format(out=tmp_path) for a in argv[1:])],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded} True []\n"
