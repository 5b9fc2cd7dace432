import os

import numpy as np
import pytest

from topoinf import FilterSpec, Graph, LabelData

TRIANGLE_EDGES = [(0, 1), (0, 2), (1, 2)]
TRIANGLE_LABELS = [0, 0, 1]


@pytest.fixture
def triangle():
    return Graph.from_edges(3, TRIANGLE_EDGES)


@pytest.fixture
def triangle_labels():
    return LabelData(2, TRIANGLE_LABELS)


@pytest.fixture
def walk_filter():
    """Pure one-step propagation: f = A_hat."""
    return FilterSpec("sgc", 1)


@pytest.fixture
def identity_filter():
    return FilterSpec("custom", 0, gamma=(1.0,))


@pytest.fixture
def path4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def make_labels(c, hard):
    return LabelData(c, np.asarray(hard, dtype=np.int64))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid: pid {pid})")
