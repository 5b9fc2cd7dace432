import errno
import os
import signal
import tracemalloc

import numpy as np
import pytest

from topoinf import (
    CsbmParams,
    DeltaWorkspace,
    FilterSpec,
    Graph,
    LabelData,
    compatibility,
    cora_like_params,
    generate_csbm,
    greedy_refine,
    khop_set,
    score_all_edges,
    topoinf_oracle,
)
from topoinf import influence
from topoinf.verify import check_edge_scores, random_labeled_graph, run_oracle_suite

from conftest import edge_id
from dense_oracle import dense_rownorm_filter, dense_topoinf, dense_topoinf_rows
from greedy_reference import reference_greedy

INF = float("inf")


def _sign(value):
    return influence.signs([value])[0]

# frozen from the dense recompute in dense_oracle.dense_topoinf
TRIANGLE_GAIN_02 = 0.528792564828473       # remove (0, 2), lam = 0
TRIANGLE_GAIN_02_LAM01 = 0.428792564828473  # same, lam = 0.1
TRIANGLE_LOSS_01 = -0.275748203676387      # remove (0, 1), lam = 0
K22_GAIN = 0.387891283987039               # any edge of K_{2,2}, classes = sides


class TestOracle:
    def test_triangle_remove_cross_edge(self, triangle, triangle_labels, walk_filter):
        s = topoinf_oracle(triangle, walk_filter, triangle_labels, lam=0.0,
                           e=edge_id(triangle, 0, 2))
        assert s.value == pytest.approx(TRIANGLE_GAIN_02, abs=1e-12)
        assert _sign(s.value) == "positive"
        assert s.affected_nodes == 3

    def test_frozen_constant_matches_dense_oracle(self):
        got = dense_topoinf(3, [(0, 1), (0, 2), (1, 2)], [0, 0, 1], 2, (0, 1),
                            0.0, (0, 2))
        assert got == pytest.approx(TRIANGLE_GAIN_02, abs=1e-14)

    def test_triangle_with_regularizer(self, triangle, triangle_labels, walk_filter):
        s = topoinf_oracle(triangle, walk_filter, triangle_labels, lam=0.1,
                           e=edge_id(triangle, 0, 2))
        assert s.value == pytest.approx(TRIANGLE_GAIN_02_LAM01, abs=1e-12)

    def test_identity_filter_scores_zero(self, triangle, triangle_labels, identity_filter):
        for e in range(3):
            s = topoinf_oracle(triangle, identity_filter, triangle_labels, lam=0.0, e=e)
            assert s.value == 0.0
            assert _sign(s.value) == "zero"

    def test_same_class_pair_excluded_under_lambda(self, walk_filter):
        g = Graph.from_edges(2, [(0, 1)])
        labels = LabelData(2, [0, 0])
        s = topoinf_oracle(g, walk_filter, labels, lam=0.1, e=0)
        assert s.value == -INF
        assert _sign(s.value) == "excluded"
        # with lambda = 0 the same removal is merely neutral
        s0 = topoinf_oracle(g, walk_filter, labels, lam=0.0, e=0)
        assert _sign(s0.value) == "zero"

    def test_bad_edge_index(self, triangle, triangle_labels, walk_filter):
        with pytest.raises(IndexError):
            topoinf_oracle(triangle, walk_filter, triangle_labels, e=7)


class TestIncremental:
    def test_matches_oracle_on_triangle(self, triangle, triangle_labels, walk_filter):
        ws = DeltaWorkspace.build(triangle, walk_filter, triangle_labels, lam=0.0)
        for e in range(3):
            (value,), (affected,) = ws.score([e])
            orc = topoinf_oracle(triangle, walk_filter, triangle_labels, lam=0.0, e=e)
            assert value == pytest.approx(orc.value, abs=1e-12)
            assert affected == orc.affected_nodes == 3

    @pytest.mark.parametrize("edges", [[0, 3], [-1], [[0, 1], [2, 7]]])
    def test_out_of_range_edge_rejected(self, triangle, triangle_labels, walk_filter, edges):
        ws = DeltaWorkspace.build(triangle, walk_filter, triangle_labels)
        with pytest.raises(IndexError, match=r"edge index (3|-1|7) out of range \[0, 3\)"):
            ws.score(edges)

    def test_disjoint_component_scores_exact_zero(self, walk_filter):
        # two triangles; target confined to the second component
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        labels = LabelData(2, [0, 0, 1, 0, 0, 1])
        ws = DeltaWorkspace.build(g, walk_filter, labels, target=[3, 4, 5], lam=0.0)
        (value,), (affected,) = ws.score([edge_id(g, 0, 1)])
        assert value == 0.0
        assert affected == 0

    def test_rounding_is_not_a_change(self):
        """A uniform soft label's term cannot change. Rounding leaves it a few
        ulps that depend on the assembly path, which the target set picks, so
        such a node counts as unaffected on every path, and counts add over a
        split of the target set."""
        g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 4)])
        soft = np.array([[0.5, 0.5]] * 4 + [[2 / 3, 1 / 3]])
        labels = LabelData(2, np.zeros(5, dtype=np.int64), soft=soft)
        spec = FilterSpec("sgc", 1)
        whole, part, rest = (
            DeltaWorkspace.build(g, spec, labels, target=t).score(range(3))[1].tolist()
            for t in (range(5), range(4), [4]))
        assert part == [0, 0, 0]
        assert whole == rest == [1, 1, 1]
        assert [topoinf_oracle(g, spec, labels, e=e).affected_nodes for e in range(3)] == whole

    def test_sweep_against_oracle(self):
        for seed, k in ((0, 1), (1, 2), (2, 3)):
            g, labels = random_labeled_graph(50, 5, 3, seed=seed)
            res = check_edge_scores(g, labels, FilterSpec("appnp", k, alpha=0.1))
            assert res.mismatches == 0
            assert res.max_abs_diff <= 1e-10
            assert res.locality_violations == 0

    def test_sweep_with_regularizer_and_low_degrees(self):
        # mean degree ~2 produces degree-1 endpoints, exercising exclusion
        g, labels = random_labeled_graph(40, 2, 3, seed=4)
        res = check_edge_scores(g, labels, FilterSpec("sgc", 2), lam=0.3)
        assert res.mismatches == 0

    def test_locality_check_keeps_nan_rows_unchanged(self):
        # node 29, left out of the target, has a non-normalizable (NaN)
        # filtered row before and after every removal
        g, labels = random_labeled_graph(30, 3, 3, 203)
        spec = FilterSpec("gprgnn", 2, gamma=(0.65, -0.049, -0.46))
        res = check_edge_scores(g, labels, spec, target=np.arange(29))
        assert res.mismatches == 0
        assert res.locality_violations == 0

    def test_gprgnn_negative_coefficients(self):
        g, labels = random_labeled_graph(30, 4, 3, seed=5)
        spec = FilterSpec("gprgnn", 2, gamma=(0.8, -0.1, 0.5))
        res = check_edge_scores(g, labels, spec)
        assert res.mismatches == 0

    @pytest.mark.parametrize("preset, message", [
        pytest.param("sgc", "planted fault", id="sgc"),
        pytest.param("sgc", "planted non-normalizable rows", id="sgc-non-normalizable"),
        pytest.param("gprgnn", "planted fault", id="gprgnn"),
    ])
    def test_oracle_suite_raises_planted_failures(self, monkeypatch, preset, message):
        """The suite redraws only a gprgnn filter whose rows cannot be
        normalized; every other failure propagates."""
        build = DeltaWorkspace.build.__func__

        def faulty(cls, g, spec, *args):
            if spec.preset == preset:
                raise ValueError(message)
            return build(cls, g, spec, *args)

        monkeypatch.setattr(DeltaWorkspace, "build", classmethod(faulty))
        with pytest.raises(ValueError, match=message):
            run_oracle_suite(quick=True)

    def test_restricted_target(self, walk_filter):
        g, labels = random_labeled_graph(40, 5, 3, seed=6)
        target = np.arange(0, 40, 3)
        ws = DeltaWorkspace.build(g, walk_filter, labels, target=target, lam=0.0)
        for e in range(0, g.edge_count, 5):
            (value,), _ = ws.score([e])
            orc = topoinf_oracle(g, walk_filter, labels, target=target, lam=0.0, e=e)
            assert value == pytest.approx(orc.value, abs=1e-10)

    def test_locality_of_affected_nodes(self, walk_filter):
        g, labels = random_labeled_graph(60, 4, 3, seed=7)
        ws = DeltaWorkspace.build(g, walk_filter, labels, lam=0.0)
        for e in range(0, g.edge_count, 4):
            _, (affected,) = ws.score([e])
            hood = set(khop_set(g, g.edges[e], 1).tolist())
            assert affected <= len(hood)

    def test_non_normalizable_rows_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="non-normalizable"):
            DeltaWorkspace.build(g, FilterSpec("custom", 1, gamma=(-1.0, 1.0)),
                                 LabelData(2, [0, 1]))

    def test_soft_influence_mode_matches_oracle(self):
        g, labels = random_labeled_graph(30, 4, 3, seed=13)
        soft = np.random.default_rng(0).dirichlet(np.ones(3), size=30)
        lab2 = LabelData(3, labels.labels, soft=soft)
        spec = FilterSpec("sgc", 2)
        ws = DeltaWorkspace.build(g, spec, lab2)
        for e in range(0, g.edge_count, 3):
            (value,), _ = ws.score([e])
            orc = topoinf_oracle(g, spec, lab2, e=e)
            assert value == pytest.approx(orc.value, abs=1e-10)

    def test_large_graph_completes_and_spot_checks(self):
        # ~10k edges: incremental pass completes; sampled edges match recompute
        g, labels = random_labeled_graph(2000, 10, 4, seed=12)
        assert g.edge_count > 9000
        rep = score_all_edges(g, FilterSpec("sgc", 2), labels, lam=0.0)
        sampled = np.random.default_rng(0).choice(g.edge_count, size=100,
                                                  replace=False)
        for e in sampled:
            exact = topoinf_oracle(g, FilterSpec("sgc", 2), labels, lam=0.0,
                                   e=int(e)).value
            assert rep.values[e] == pytest.approx(exact, abs=1e-10)


class TestBatchIndependence:
    """A score is bitwise the same whatever batch, and whatever level format,
    computes it."""

    CASES = ["appnp10", "sgc2_target_lambda", "sgc2_hundreds", "block_and_tail"]

    @staticmethod
    def _bits(values, affected):
        return np.asarray(values, dtype=np.float64).tobytes(), [int(a) for a in affected]

    @staticmethod
    def _workspace(case):
        if case == "appnp10":
            g, labels = random_labeled_graph(150, 5, 4, seed=21)
            return DeltaWorkspace.build(g, FilterSpec("appnp", 10, alpha=0.1), labels)
        if case == "sgc2_target_lambda":
            g, labels = random_labeled_graph(150, 5, 4, seed=21)
            target = np.arange(0, g.n, 3)
            ws = DeltaWorkspace.build(g, FilterSpec("sgc", 2), labels, target=target,
                                      lam=0.3)
            assert "excluded" in influence.signs(ws.score(range(g.edge_count))[0])
            return ws
        if case == "sgc2_hundreds":
            g, labels = random_labeled_graph(1000, 3, 4, seed=22)
            return DeltaWorkspace.build(g, FilterSpec("sgc", 2), labels)
        # a 200-node path, then a dense 40-node block hanging off its end; the
        # target is the block and every tenth path node, so block edges have
        # wide balls and path edges narrow ones
        rng = np.random.default_rng(23)
        path = [(v, v + 1) for v in range(200)]
        block = [(u, v) for u in range(200, 240) for v in range(u + 1, 240)
                 if rng.random() < 0.8]
        g = Graph.from_edges(240, path + block)
        labels = LabelData(3, rng.integers(0, 3, size=240))
        target = np.concatenate([np.arange(0, 200, 10), np.arange(200, 240)])
        return DeltaWorkspace.build(g, FilterSpec("sgc", 2), labels, target=target)

    @staticmethod
    def _is_wide(ws, e):
        ball = khop_set(ws.g, ws.g.edges[e], ws.spec.k)
        return 2 * np.count_nonzero(ws.target_mask[ball]) > ws.target.size

    @pytest.mark.parametrize("case", CASES)
    def test_batch_size_and_composition(self, case, monkeypatch):
        monkeypatch.setattr(influence, "_workers", lambda: 1)   # every batch in this process
        ws = self._workspace(case)
        m = ws.g.edge_count
        sizes, batches = [], []
        batch = DeltaWorkspace._score_batch

        def recording(ws_, edges, dense):
            sizes.append(edges.size)
            batches.append(edges.copy())
            return batch(ws_, edges, dense)

        monkeypatch.setattr(DeltaWorkspace, "_score_batch", recording)
        default = self._bits(*ws.score(np.arange(m)))
        default_size = sizes[0]
        assert default_size > 4
        if case == "sgc2_hundreds":
            assert max(sizes) >= 200
        if case == "block_and_tail":
            assert any(len({self._is_wide(ws, e) for e in b}) == 2 for b in batches)
        singles = self._bits(*map(np.concatenate, zip(*[ws.score([e]) for e in range(m)])))
        perm = np.random.default_rng(3).permutation(m)
        back = np.argsort(perm)
        unshuffled = self._bits(*(a[back] for a in ws.score(perm)))
        sizes.clear()
        monkeypatch.setattr(influence, "BATCH_BYTES", influence.BATCH_BYTES // 3)
        smaller = self._bits(*ws.score(np.arange(m)))
        assert 1 < sizes[0] < default_size
        assert singles == default
        assert unshuffled == default
        assert smaller == default

    @pytest.mark.parametrize("case", CASES)
    def test_level_formats_agree(self, case, monkeypatch):
        monkeypatch.setattr(influence, "_workers", lambda: 1)   # every batch in this process
        ws = self._workspace(case)
        edges = np.random.default_rng(4).permutation(ws.g.edge_count)
        batch = DeltaWorkspace._score_batch
        got = {}
        for dense in (False, True):
            monkeypatch.setattr(DeltaWorkspace, "_score_batch",
                                lambda ws_, e, _, dense=dense: batch(ws_, e, dense))
            got[dense] = self._bits(*ws.score(edges))
        assert got[False] == got[True]

    def test_level_k_missing_a_lower_level_key(self, monkeypatch):
        """`csr_matmat` drops an entry that sums to exactly 0, so level K can
        lack a key a lower level holds; H and `at` still read every level's
        stored value there. The wrapped product drops the level-K entry of
        the first endpoint's own row; the wide-edge columns keep it too."""
        ws = self._workspace("sgc2_hundreds")
        K, n = ws.spec.k, ws.g.n
        ends = ws.g.edges[:8]
        nodes, col = np.unique(ends, return_inverse=True)
        col = col.reshape(-1, 2)
        v, c = int(ends[0, 0]), int(col[0, 0])
        product, calls = influence.csr_sparse_product, []

        def dropping(a, b):
            indptr, indices, data, shape = product(a, b)
            calls.append(shape)
            if len(calls) == K:
                e = indptr[v] + np.flatnonzero(indices[indptr[v]:indptr[v + 1]] == c)[0]
                indices, data = np.delete(indices[:indptr[-1]], e), np.delete(data[:indptr[-1]], e)
                indptr = indptr.copy()
                indptr[v + 1:] -= 1
            return indptr, indices, data, shape

        monkeypatch.setattr(influence, "csr_sparse_product", dropping)
        sparse = influence._SparseLevels(ws, ends, nodes, col)
        dense = influence._DenseLevels(ws, ends, nodes, col)
        assert len(calls) == K and dense.X[c, K, v] > 0
        # the dropped entry reads 0 at level K and the true value below it
        want_H = dense.H.copy()
        want_H[K][(ends[:, :, None] == v) & (ends[:, None, :] == v)] = 0.0
        assert sparse.H.tobytes() == want_H.tobytes()
        cols, er = (a.ravel() for a in np.meshgrid(np.arange(nodes.size), np.arange(n),
                                                   indexing="ij"))
        want_X = dense.X.copy()
        want_X[c, K, v] = 0.0
        for t in range(K + 1):
            assert sparse.at(t, sparse.find(cols, er)).tobytes() == \
                want_X[cols, t, er].tobytes()
        X, xc = sparse.columns(col)
        assert X[xc].tobytes() == want_X[col].tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_shuffled_repeats_keep_the_given_order(self, case):
        ws = self._workspace(case)
        m = ws.g.edge_count
        rng = np.random.default_rng(5)
        some = rng.choice(m, size=min(m, 150), replace=False)
        edges = rng.permutation(np.concatenate([some, some[:40], some[:10]]))
        got = ws.score(edges)
        assert got[0].shape == got[1].shape == edges.shape
        single = {e: ws.score([e]) for e in some.tolist()}
        assert self._bits(*got) == \
            self._bits(*map(np.concatenate, zip(*[single[e] for e in edges.tolist()])))


def _scores_in_pool_worker(case):
    """`score_all_edges` bits on a TestBatchIndependence case, and the share
    count of each split it made; run in a pool worker, so the patch stays there."""
    ws = TestBatchIndependence._workspace(case)
    splits, split = [], influence._in_shares
    influence._in_shares = lambda *args: splits.append(len(args[1])) or split(*args)
    rep = score_all_edges(ws.g, ws.spec, ws.labels, ws.target, ws.lam)
    return TestBatchIndependence._bits(rep.values, rep.affected), splits


class TestShares:
    """Dense batches split across forked processes give the serial bits, and a
    child's error reaches the caller. `influence._workers` sets the number of
    shares; a smaller BATCH_BYTES makes batches small enough that even the
    small cases fill two per share."""

    @staticmethod
    def _workspace(case):
        if case == "block300":   # one criterion-5 block model
            sample = generate_csbm(CsbmParams(n=300, c=3, p=0.8, q=0.05, d=8,
                                              sigma=1.0, seed=0))
            return DeltaWorkspace.build(sample.graph, FilterSpec("sgc", 2), sample.labels)
        return TestBatchIndependence._workspace(case)

    @staticmethod
    def _split(monkeypatch, workers):
        """Force `workers` shares on a smaller budget; return a list that
        collects the shares of each split that follows."""
        shares = []
        split = influence._in_shares

        def recording(score, parts):
            shares.append([part.tolist() for part in parts])
            return split(score, parts)

        monkeypatch.setattr(influence, "_workers", lambda: workers)
        monkeypatch.setattr(influence, "_in_shares", recording)
        monkeypatch.setattr(influence, "BATCH_BYTES", influence.BATCH_BYTES // 32)
        return shares

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", ["appnp10", "block_and_tail", "block300"])
    def test_split_matches_serial(self, case, workers, monkeypatch):
        ws = self._workspace(case)
        edges = np.arange(ws.g.edge_count)
        monkeypatch.setattr(influence, "_workers", lambda: 1)
        serial = TestBatchIndependence._bits(*ws.score(edges))
        shares = self._split(monkeypatch, workers)
        assert TestBatchIndependence._bits(*ws.score(edges)) == serial
        assert [len(parts) for parts in shares] == [workers]

    def test_child_error_reaches_caller(self, monkeypatch):
        # a hub with 400 leaves, and node 401 between the hub and node 402:
        # without (401, 402), node 401 is one more leaf of the hub and its
        # filter row sums to -0.65 + 0.535 < 0
        g = Graph.from_edges(403, [(0, v) for v in range(1, 402)] + [(401, 402)])
        ws = DeltaWorkspace.build(g, FilterSpec("custom", 1, gamma=(-0.65, 1.0)),
                                  LabelData(2, np.arange(403) % 2), target=[401])
        edges = np.arange(g.edge_count)
        monkeypatch.setattr(influence, "_workers", lambda: 1)
        with pytest.raises(ValueError) as serial:
            ws.score(edges)
        shares = self._split(monkeypatch, 2)
        with pytest.raises(ValueError) as split:
            ws.score(edges)
        assert edge_id(g, 401, 402) in shares[0][1]    # the child's share
        assert type(split.value) is type(serial.value)
        assert str(split.value) == str(serial.value)
        assert "non-normalizable for nodes [401]" in str(split.value)

    @pytest.mark.parametrize("fault", ["fork-fails", "child-killed"])
    def test_unfinished_share_scored_here(self, fault, monkeypatch):
        ws = self._workspace("appnp10")
        edges = np.arange(ws.g.edge_count)
        monkeypatch.setattr(influence, "_workers", lambda: 1)
        serial = TestBatchIndependence._bits(*ws.score(edges))
        shares = self._split(monkeypatch, 2)
        parent, run = os.getpid(), DeltaWorkspace._score_run

        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        def dying(ws_, *args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run(ws_, *args)

        if fault == "fork-fails":
            monkeypatch.setattr(os, "fork", fork)
        else:
            monkeypatch.setattr(DeltaWorkspace, "_score_run", dying)
        assert TestBatchIndependence._bits(*ws.score(edges)) == serial
        assert [len(parts) for parts in shares] == [2]

    def test_inside_a_pool_worker(self, monkeypatch):
        import multiprocessing

        ws = TestBatchIndependence._workspace("appnp10")
        monkeypatch.setattr(influence, "_workers", lambda: 1)
        rep = score_all_edges(ws.g, ws.spec, ws.labels)
        serial = TestBatchIndependence._bits(rep.values, rep.affected)
        monkeypatch.setattr(influence, "_workers", lambda: 2)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            got, splits = pool.apply_async(_scores_in_pool_worker, ("appnp10",)).get(120)
        finally:
            pool.terminate()
            pool.join()
        assert got == serial
        assert splits == [2]


class TestWalkOrder:
    @pytest.mark.parametrize("seed", range(5))
    def test_visits_every_position_once(self, seed):
        rng = np.random.default_rng(seed)
        ends = np.sort(rng.integers(0, 30, size=(200, 2)), axis=1)
        ends = ends[ends[:, 0] != ends[:, 1]]
        ends = np.concatenate([ends, ends[:25]])     # repeated edges
        order = influence._walk_order(ends)
        assert np.array_equal(np.sort(order), np.arange(ends.shape[0]))

    def test_a_shuffled_path_is_walked_end_to_end(self):
        ends = np.array([(v, v + 1) for v in range(50)])
        ends = ends[np.random.default_rng(0).permutation(50)]
        walked = ends[influence._walk_order(ends)]
        shared = [len(set(a) & set(b)) for a, b in zip(walked[:-1], walked[1:])]
        # one break at most: the walk starts mid-path and comes back for the rest
        assert shared.count(0) <= 1

    def test_scoring_peak_memory(self, monkeypatch):
        """tracemalloc peak of scoring every edge of the cora-like preset at
        appnp K=10. Before edges were scored in walk order it read 5,810,143
        and 5,812,796 bytes (5.54 MiB) in two runs, with Python 3.11.7, numpy
        2.4.6 and scipy 1.17.1; walk-ordered dense batches read 5,114,973."""
        sample = generate_csbm(cora_like_params(seed=0))
        ws = DeltaWorkspace.build(sample.graph, FilterSpec("appnp", 10, alpha=0.1),
                                  sample.labels)
        monkeypatch.setattr(influence, "_workers", lambda: 1)   # every batch in this process
        tracemalloc.start()
        try:
            ws.score(np.arange(ws.g.edge_count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_810_143


class TestScoreAllEdges:
    def test_triangle_partition(self, triangle, triangle_labels, walk_filter):
        rep = score_all_edges(triangle, walk_filter, triangle_labels, lam=0.0)
        # (0,1) negative; (0,2) and (1,2) positive; none zero or excluded
        assert rep.signs.tolist() == ["negative", "positive", "positive"]

    def test_ranking_descending_with_index_tiebreak(self, triangle, triangle_labels,
                                                    walk_filter):
        rep = score_all_edges(triangle, walk_filter, triangle_labels, lam=0.0)
        # the two positive edges tie exactly by symmetry; ascending id breaks it
        assert rep.ranking.tolist() == [1, 2, 0]
        vals = rep.values[rep.ranking].tolist()
        assert vals == sorted(vals, reverse=True)

    def test_k22_all_positive(self, walk_filter):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        labels = LabelData(2, [0, 0, 1, 1])
        rep = score_all_edges(g, walk_filter, labels, lam=0.0)
        assert rep.signs.tolist() == ["positive"] * 4
        for value in rep.values:
            assert value == pytest.approx(K22_GAIN, abs=1e-12)

    def test_partition_exhaustive(self):
        g, labels = random_labeled_graph(50, 3, 3, seed=8)
        rep = score_all_edges(g, FilterSpec("sgc", 2), labels, lam=0.2)
        assert rep.signs.size == g.edge_count
        assert set(rep.signs.tolist()) <= {"positive", "negative", "zero", "excluded"}

    def test_modes_agree(self, triangle, triangle_labels, walk_filter):
        inc = score_all_edges(triangle, walk_filter, triangle_labels, mode="incremental")
        exact = score_all_edges(triangle, walk_filter, triangle_labels, mode="exact")
        for a, b in zip(inc.values, exact.values):
            assert a == pytest.approx(b, abs=1e-10)
        assert inc.ranking.tolist() == exact.ranking.tolist()

    def test_tsv_shape(self, triangle, triangle_labels, walk_filter):
        rep = score_all_edges(triangle, walk_filter, triangle_labels)
        lines = rep.to_tsv().strip().split("\n")
        assert lines[0].split("\t") == ["edge_u", "edge_v", "topoinf", "sign",
                                        "affected_nodes"]
        assert len(lines) == 4

    def test_unknown_mode(self, triangle, triangle_labels, walk_filter):
        with pytest.raises(ValueError):
            score_all_edges(triangle, walk_filter, triangle_labels, mode="fast")

    @pytest.mark.parametrize("mode", ["incremental", "exact"])
    def test_nan_lambda_rejected(self, triangle, triangle_labels, walk_filter, mode):
        with pytest.raises(ValueError, match="lambda"):
            score_all_edges(triangle, walk_filter, triangle_labels,
                            lam=float("nan"), mode=mode)
        with pytest.raises(ValueError, match="lambda"):
            DeltaWorkspace.build(triangle, walk_filter, triangle_labels,
                                 lam=float("nan"))

    @pytest.mark.parametrize("values, want", [
        pytest.param([-INF], ["excluded"], id="minus-inf"),
        pytest.param([influence.ZERO_TOL / 2, -influence.ZERO_TOL / 2, -0.0], ["zero"] * 3,
                     id="below-tolerance"),
        pytest.param([influence.ZERO_TOL], ["positive"], id="tolerance"),
        pytest.param([-influence.ZERO_TOL], ["negative"], id="minus-tolerance"),
        pytest.param([float("nan")], None, id="nan"),
        pytest.param([0.5, -INF, float("nan"), 0.0], None, id="nan-anywhere"),
    ])
    def test_sign_rule(self, values, want):
        """One rule signs every score; a NaN anywhere has no sign."""
        if want is None:
            with pytest.raises(ValueError, match="NaN"):
                influence.signs(values)
        else:
            assert influence.signs(values).tolist() == want


class TestGreedyRefine:
    def test_triangle_budget_two(self, triangle, triangle_labels, walk_filter):
        removed, scores, c_after = greedy_refine(triangle, walk_filter, triangle_labels,
                                                 lam=0.0, max_removals=2)
        assert triangle.edges[removed].tolist() == [[0, 2], [1, 2]]
        assert c_after[-1] == pytest.approx(3.0, abs=1e-12)
        assert np.delete(triangle.edges, removed, axis=0).tolist() == [[0, 1]]

    def test_triangle_with_lambda_stops_after_one(self, triangle, triangle_labels,
                                                  walk_filter):
        removed, scores, c_after = greedy_refine(triangle, walk_filter, triangle_labels,
                                                 lam=0.1, max_removals=2)
        assert len(removed) == len(scores) == len(c_after) == 1
        assert triangle.edges[removed].tolist() == [[0, 2]]

    def test_no_positive_edges_means_no_removals(self, identity_filter,
                                                 triangle, triangle_labels):
        removed, scores, c_after = greedy_refine(triangle, identity_filter, triangle_labels,
                                                 lam=0.0, max_removals=5)
        assert removed.size == scores.size == c_after.size == 0
        assert np.delete(triangle.edges, removed, axis=0).shape == (3, 2)

    def test_budget_zero_is_noop(self, triangle, triangle_labels, walk_filter):
        removed, scores, c_after = greedy_refine(triangle, walk_filter, triangle_labels,
                                                 max_removals=0)
        assert removed.size == scores.size == c_after.size == 0
        assert np.delete(triangle.edges, removed, axis=0).shape == (3, 2)

    def test_each_step_gains_its_score(self, walk_filter):
        g, labels = random_labeled_graph(40, 4, 3, seed=9)
        c0 = compatibility(g, walk_filter, labels, lam=0.0).C
        _, scores, c_after = greedy_refine(g, walk_filter, labels, lam=0.0, max_removals=4)
        prev = c0
        for score, c in zip(scores, c_after):
            assert c - prev == pytest.approx(score, abs=1e-10)
            assert c > prev
            prev = c

    def test_rescore_every_two(self, walk_filter):
        g, labels = random_labeled_graph(40, 4, 3, seed=10)
        removed, _, _ = greedy_refine(g, walk_filter, labels, lam=0.0, max_removals=4,
                                      rescore_every=2)
        assert len(removed) <= 4

    @staticmethod
    def _cora_like_target():
        """The cora-like preset with 20 seeded targets of degree >= 1 per class."""
        sample = generate_csbm(cora_like_params(seed=0))
        g, labels = sample.graph, sample.labels
        rng = np.random.default_rng([0, 1])
        target = [rng.choice(np.flatnonzero((labels.labels == c) & (g.degrees > 0)),
                             20, replace=False) for c in range(labels.c)]
        return g, labels, np.sort(np.concatenate(target))

    @pytest.mark.parametrize("case", [
        "cora_like_target", "all_targets", "appnp4", "rescore_every_2",
        "rescore_every_3", "criterion5_0", "criterion5_1", "criterion5_2",
        "criterion5_3"])
    def test_matches_full_rescoring(self, case):
        spec, target, lam, budget, every = FilterSpec("sgc", 2), None, 0.0, 10, 1
        if case == "cora_like_target":
            g, labels, target = self._cora_like_target()
            lam, budget = 0.1, 20
        elif case.startswith("criterion5"):
            params = CsbmParams(n=300, c=3, p=0.8, q=0.05, d=8, sigma=1.0,
                                seed=int(case[-1]))
            sample = generate_csbm(params)
            g, labels, budget = sample.graph, sample.labels, 2
        else:
            g, labels = random_labeled_graph(600, 3, 3, seed=1)
            if case == "appnp4":
                spec = FilterSpec("appnp", 4, alpha=0.1)
            elif case.startswith("rescore_every"):
                target, lam, every = np.arange(0, g.n, 4), 0.1, int(case[-1])
        removed, scores, c_after = greedy_refine(g, spec, labels, target, lam,
                                                 max_removals=budget, rescore_every=every)
        want, want_trace = reference_greedy(g, spec, labels, target, lam,
                                            max_removals=budget, rescore_every=every)
        assert len(removed) == budget
        assert list(zip(*g.edges[removed].T, scores, c_after)) == want_trace
        assert np.array_equal(np.delete(g.edges, removed, axis=0), want.edges)

    def test_stale_candidate_isolating_a_target_skipped(self, monkeypatch):
        """A candidate scored at the last refresh whose removal would now
        isolate a target node (true score -inf under lambda > 0) is skipped,
        as the from-scratch reference skips it."""
        g, labels = random_labeled_graph(9, 2.5, 2, seed=1)
        spec, target, lam, every = FilterSpec("sgc", 1), np.arange(1, 9, 2), 0.1, 3
        want, want_trace = reference_greedy(g, spec, labels, target, lam,
                                            max_removals=g.edge_count, rescore_every=every)
        # greedy_refine reads one node's degree, `degrees[x]` with an int x, only
        # to test a candidate's target endpoints; record those reads
        seen = []

        class Reads(np.ndarray):
            def __getitem__(self, key):
                out = super().__getitem__(key)
                if isinstance(key, int):
                    seen.append(int(out))
                return out

        remove_edge = Graph.remove_edge

        def recording(self, e):
            out = remove_edge(self, e)
            out.degrees = out.degrees.view(Reads)
            return out

        monkeypatch.setattr(Graph, "remove_edge", recording)
        removed, scores, c_after = greedy_refine(g, spec, labels, target, lam,
                                                 max_removals=g.edge_count,
                                                 rescore_every=every)
        assert 1 in seen
        assert list(zip(*g.edges[removed].T, scores, c_after)) == want_trace
        got = Graph.from_edges(g.n, np.delete(g.edges, removed, axis=0))
        assert np.array_equal(got.edges, want.edges)
        assert (got.degrees[target] > 0).all()

    def test_negative_budget_rejected(self, triangle, triangle_labels, walk_filter):
        with pytest.raises(ValueError):
            greedy_refine(triangle, walk_filter, triangle_labels, max_removals=-1)

    @pytest.mark.parametrize("every", [0, -2])
    def test_rescore_interval_below_one_rejected(self, triangle, triangle_labels,
                                                 walk_filter, every):
        with pytest.raises(ValueError, match="rescore_every"):
            greedy_refine(triangle, walk_filter, triangle_labels, rescore_every=every)


def _path_values(path, g, spec, labels):
    """What `path` computes from `labels`: C, every edge's score, or the
    score and C after of the first greedy removal."""
    if path == "compatibility":
        return [compatibility(g, spec, labels).C]
    if path == "topoinf_oracle":
        return [topoinf_oracle(g, spec, labels, e=e).value for e in range(g.edge_count)]
    if path == "DeltaWorkspace":
        ws = DeltaWorkspace.build(g, spec, labels)
        return ws.score(np.arange(g.edge_count))[0].tolist()
    if path == "greedy_refine":
        _, scores, c_after = greedy_refine(g, spec, labels, max_removals=1)
        return [scores[0], c_after[0]]
    mode = path.removeprefix("score_all_edges-")
    return score_all_edges(g, spec, labels, mode=mode).values.tolist()


def _dense_values(path, g, rows, gamma):
    """`_path_values` from the dense reference, with label rows `rows`
    weighing each node's filtered distribution."""
    def compat(edges):
        lbar = dense_rownorm_filter(gamma, g.n, edges) @ rows
        return float(np.einsum("ij,ij->", rows, lbar))

    edges = g.edges.tolist()
    if path == "compatibility":
        return [compat(edges)]
    scores = [dense_topoinf_rows(g.n, edges, rows, gamma, 0.0, e) for e in edges]
    if path == "greedy_refine":
        best = int(np.argmax(scores))
        return [scores[best], compat(edges[:best] + edges[best + 1:])]
    return scores


@pytest.mark.parametrize("path", ["compatibility", "topoinf_oracle",
                                  "score_all_edges-incremental", "score_all_edges-exact",
                                  "DeltaWorkspace", "greedy_refine"])
def test_soft_labels_decide_the_influence(path):
    """Labels that carry soft rows are scored by soft influence on every
    path; the same hard ids without them by hard influence."""
    g, hard = random_labeled_graph(16, 4, 3, seed=5)
    soft = np.random.default_rng(1).dirichlet(np.ones(3), size=g.n)
    spec = FilterSpec("appnp", 2, alpha=0.2)
    gamma = spec.coefficients
    want_soft = _dense_values(path, g, soft, gamma)
    want_hard = _dense_values(path, g, hard.dense_rows(), gamma)
    assert not np.allclose(want_soft, want_hard, atol=1e-6)
    got_soft = _path_values(path, g, spec, LabelData(3, hard.labels, soft=soft))
    got_hard = _path_values(path, g, spec, LabelData(3, hard.labels))
    assert np.allclose(got_soft, want_soft, rtol=0, atol=1e-10)
    assert np.allclose(got_hard, want_hard, rtol=0, atol=1e-10)
