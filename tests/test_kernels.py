"""The CSR kernel functions of `topoinf.graphs` against scipy.sparse.

`csr_dense_product`, `csr_sparse_product` and `csr_to_csc` call scipy's
compiled kernels without scipy's sparse-matrix objects. Their results must be
bitwise those of scipy's public operators, and a malformed operand must fail
with ValueError before any kernel sees it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import topoinf
from topoinf import Graph, normalized_adjacency
from topoinf import graphs
from topoinf.graphs import csr_dense_product, csr_sparse_product, csr_to_csc


def _arrays(m):
    """CSR arrays of a scipy matrix in the dtypes topoinf uses."""
    return (m.indptr.astype(np.int64), m.indices.astype(np.int64),
            np.ascontiguousarray(m.data, dtype=np.float64), m.shape)


def _random(rows, cols, density, seed):
    return _arrays(sp.random(rows, cols, density=density, format="csr", random_state=seed))


def _adjacency(n, m, seed):
    pairs = np.random.default_rng(seed).integers(0, n, size=(m, 2))
    return normalized_adjacency(Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])).csr


# the normalized adjacency of n = 1, of an all-isolated graph and of graphs
# with and without isolated nodes, a random rectangular matrix, and a matrix
# with no stored entries
OPERANDS = {
    "n-1": lambda: _adjacency(1, 0, 0),
    "all-isolated": lambda: _adjacency(6, 0, 0),
    "sparse-graph": lambda: _adjacency(30, 20, 1),
    "dense-graph": lambda: _adjacency(40, 500, 2),
    "rectangular": lambda: _random(9, 14, 0.3, 3),
    "no-entries": lambda: _arrays(sp.csr_matrix((5, 7))),
}


def _scipy(a):
    indptr, indices, data, shape = a
    return sp.csr_matrix((data, indices, indptr), shape=shape)


@pytest.mark.parametrize("operand", OPERANDS)
@pytest.mark.parametrize("layout", ["columns", "one-column", "non-contiguous", "fortran"])
def test_dense_product_matches_scipy(operand, layout):
    a = OPERANDS[operand]()
    rng = np.random.default_rng(5)
    cols = a[3][1]
    x = {"columns": lambda: rng.random((cols, 4)),
         "one-column": lambda: rng.random((cols, 1)),
         "non-contiguous": lambda: rng.random((cols, 7))[:, ::2],
         "fortran": lambda: np.asfortranarray(rng.random((cols, 3)))}[layout]()
    got, want = csr_dense_product(a, x), _scipy(a) @ x
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("operand", OPERANDS)
def test_sparse_product_matches_scipy(operand):
    """A @ B for B the identity columns of a few rows, as `_SparseLevels`
    starts, and for B a random sparse matrix; only the first indptr[-1]
    indices and values are the product's."""
    a = OPERANDS[operand]()
    rows, cols = a[3]
    rng = np.random.default_rng(8)
    picks = np.unique(rng.integers(0, cols, size=3))
    ptr = np.zeros(cols + 1, dtype=np.int64)
    ptr[picks + 1] = 1
    unit = (np.cumsum(ptr), np.arange(picks.size), np.ones(picks.size), (cols, picks.size))
    for b in (unit, _random(cols, 5, 0.4, 9), _arrays(sp.csr_matrix((cols, 2)))):
        indptr, indices, data, shape = csr_sparse_product(a, b)
        want = _scipy(a) @ _scipy(b)
        nnz = int(indptr[-1])
        assert shape == want.shape and nnz == want.nnz
        assert indptr.tolist() == want.indptr.tolist()
        assert indices[:nnz].tolist() == want.indices[:nnz].tolist()
        assert data[:nnz].tobytes() == want.data[:nnz].tobytes()


@pytest.mark.parametrize("operand", OPERANDS)
def test_csr_to_csc_matches_scipy(operand):
    a = OPERANDS[operand]()
    indptr, indices, data, shape = csr_to_csc(a)
    want = _scipy(a).tocsc()
    assert shape == want.shape
    assert indptr.tolist() == want.indptr.tolist()
    assert indices.tolist() == want.indices.tolist()
    assert data.tobytes() == want.data.tobytes()


def _triangle():
    return normalized_adjacency(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])).csr


def _malformed():
    indptr, indices, data, shape = _triangle()
    return {
        "short-indptr": (indptr[:-1], indices, data, shape),
        "indptr-not-at-zero": (indptr + 1, indices, data, shape),
        "float-indices": (indptr, indices.astype(np.float64), data, shape),
        "int32-indptr": (indptr.astype(np.int32), indices, data, shape),
        "float32-data": (indptr, indices, data.astype(np.float32), shape),
        "lengths-differ": (indptr, indices, data[:-1], shape),
        "indptr-past-indices": (indptr, indices[:-1], data[:-1], shape),
        "non-contiguous": (indptr, np.repeat(indices, 2)[::2], data, shape),
        "list-data": (indptr, indices, data.tolist(), shape),
    }


@pytest.mark.parametrize("case", list(_malformed()))
@pytest.mark.parametrize("op", ["dense", "sparse-left", "sparse-right", "csc"])
def test_malformed_csr_fails_before_any_kernel(monkeypatch, case, op):
    def no_kernels():
        raise AssertionError("a kernel was reached")

    monkeypatch.setattr(graphs, "_kernels", no_kernels)
    bad, good = _malformed()[case], _triangle()
    call = {"dense": lambda: csr_dense_product(bad, np.ones((3, 2))),
            "sparse-left": lambda: csr_sparse_product(bad, good),
            "sparse-right": lambda: csr_sparse_product(good, bad),
            "csc": lambda: csr_to_csc(bad)}[op]
    with pytest.raises(ValueError, match="CSR"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda a: csr_dense_product(a, np.ones((4, 2))), id="dense-rows"),
    pytest.param(lambda a: csr_dense_product(a, np.ones(3)), id="dense-1d"),
    pytest.param(lambda a: csr_sparse_product(a, _adjacency(4, 3, 0)), id="sparse"),
])
def test_disagreeing_shapes_fail_before_any_kernel(monkeypatch, call):
    a = _triangle()
    monkeypatch.setattr(graphs, "_kernels", lambda: pytest.fail("a kernel was reached"))
    with pytest.raises(ValueError):
        call(a)


def test_loader_falls_back_in_process(monkeypatch):
    """Where `find_spec` cannot locate scipy, `_kernels` imports scipy's
    extension module, and every product is bitwise the same."""
    a = OPERANDS["dense-graph"]()
    x = np.random.default_rng(5).normal(size=(a[3][1], 3))

    def products():
        return [csr_dense_product(a, x), *csr_sparse_product(a, a)[:3], *csr_to_csc(a)[:3]]

    want = products()
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    graphs._kernels.cache_clear()
    try:
        assert graphs._kernels() is importlib.import_module("scipy.sparse._sparsetools")
        got = products()
    finally:
        graphs._kernels.cache_clear()
    assert all(w.dtype == g.dtype and w.tobytes() == g.tobytes() for w, g in zip(want, got))


ROUTE = """
import hashlib, importlib.machinery, sys
import numpy as np
from topoinf import FilterSpec, Graph, LabelData, score_all_edges
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES.clear()   # no file to load directly
rng = np.random.default_rng(4)
pairs = rng.integers(0, 60, size=(150, 2))
g = Graph.from_edges(60, pairs[pairs[:, 0] != pairs[:, 1]])
labels = LabelData(3, rng.integers(0, 3, size=60))
digest = hashlib.sha256()
for spec in (FilterSpec("sgc", 2), FilterSpec("appnp", 10)):
    for s in score_all_edges(g, spec, labels).scores:
        digest.update(np.float64(s.value).tobytes() + np.int64(s.affected_nodes).tobytes())
print(digest.hexdigest(), "scipy.sparse" in sys.modules)
"""


def test_loader_falls_back_to_import_with_the_same_scores():
    """Where scipy's extension file cannot be loaded by path, the kernels come
    from importing scipy.sparse._sparsetools, which loads scipy.sparse, and
    every score is bitwise the same."""
    src = Path(topoinf.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for route in ("direct", "fallback"):
        proc = subprocess.run([sys.executable, "-c", ROUTE, route], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out[route] = proc.stdout.split()
    assert out["direct"][0] == out["fallback"][0]
    assert out["direct"][1] == "False" and out["fallback"][1] == "True"
