"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`) and
asserts the criterion at its stated tolerance. The edge-score sweep is shared
by criteria 1 and 2 and takes the bulk of the runtime (budgeted under two
minutes on its own); criterion 5's twenty block-model runs are the next
largest item.
"""

import json

import numpy as np
import pytest

from topoinf import (
    CsbmParams,
    FilterSpec,
    compatibility,
    generate_csbm,
    greedy_refine,
    score_all_edges,
    topoinf_oracle,
)
from topoinf.cli import main as cli_main
from topoinf.rewire import dropedge_weights, remove_random, sample_dropedge
from topoinf.verify import (
    run_gradient_suite,
    run_oracle_suite,
    run_theorem2_suite,
)

from conftest import TRIANGLE_EDGES, TRIANGLE_LABELS
from dense_oracle import dense_compat, dense_topoinf


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criteria 1 and 2 share one sweep over 20 seeded random graphs,
    all six presets, K in {1, 2, 3}."""
    return run_oracle_suite()


def test_criterion_1_oracle_equivalence(oracle_sweep):
    ok = ("edge removals checked: 141642" in oracle_sweep.lines
          and "mismatches: 0" in oracle_sweep.lines)
    _report(1, ok, "; ".join(oracle_sweep.lines[:3]))


def test_criterion_2_locality(oracle_sweep):
    _report(2, "locality violations: 0" in oracle_sweep.lines,
            f"influence changes confined to K-hop neighborhoods "
            f"({oracle_sweep.lines[-1]})")


def test_criterion_3_triangle_fixture():
    from topoinf import Graph, LabelData
    g = Graph.from_edges(3, TRIANGLE_EDGES)
    labels = LabelData(2, TRIANGLE_LABELS)
    spec = FilterSpec("sgc", 1)

    # regression constants confirmed against the independent dense recompute
    want_c = dense_compat(3, TRIANGLE_EDGES, TRIANGLE_LABELS, 2, (0, 1), 0.0)
    want_gain = dense_topoinf(3, TRIANGLE_EDGES, TRIANGLE_LABELS, 2, (0, 1),
                              0.0, (0, 2))
    assert want_c == pytest.approx(5 / 3, abs=1e-12)
    assert want_gain == pytest.approx(0.528792564828473, abs=1e-12)

    c = compatibility(g, spec, labels, lam=0.0).C
    e = g.edge_id(0, 2)
    gain = topoinf_oracle(g, spec, labels, lam=0.0, e=e).value
    gain_reg = topoinf_oracle(g, spec, labels, lam=0.1, e=e).value
    ok = (abs(c - 5 / 3) <= 1e-9
          and abs(gain - 0.52879) <= 1e-4
          and abs(gain_reg - 0.42879) <= 1e-4)
    _report(3, ok,
            f"C={c:.9f} (5/3 +- 1e-9), score(0,2)={gain:.6f} (+0.52879 +- 1e-4), "
            f"lam=0.1 variant={gain_reg:.6f} (+0.42879 +- 1e-4)")


def test_criterion_4_low_pass_properties():
    res = run_theorem2_suite()
    ok = res.passed and "sample/filter combinations: 30" in res.lines
    _report(4, ok, "; ".join(res.lines))


def test_criterion_5_directional_behavior():
    spec = FilterSpec("sgc", 2)
    directional_hits = 0
    monotone_runs = 0
    seeds = range(20)
    for seed in seeds:
        params = CsbmParams(n=300, c=3, p=0.8, q=0.05, d=8, sigma=1.0, seed=seed)
        sample = generate_csbm(params)
        labels = sample.labels
        rep = score_all_edges(sample.graph, spec, labels, lam=0.0)
        ids, edges = labels.labels, sample.graph.edges
        cross = ids[edges[:, 0]] != ids[edges[:, 1]]
        if np.mean(rep.values[cross]) > np.mean(rep.values[~cross]):
            directional_hits += 1
        c0 = compatibility(sample.graph, spec, labels, lam=0.0).C
        removed, _, c_after = greedy_refine(sample.graph, spec, labels, lam=0.0,
                                            max_removals=2, rescore_every=1)
        c_vals = [c0] + c_after.tolist()
        if removed.size and all(b > a for a, b in zip(c_vals, c_vals[1:])):
            monotone_runs += 1
    ok = directional_hits >= 19 and monotone_runs == len(list(seeds))
    _report(5, ok,
            f"mean inter > mean intra in {directional_hits}/20 seeds (need >= 19); "
            f"greedy C trace strictly increasing in {monotone_runs}/20 runs")


def test_criterion_6_gradient_check():
    res = run_gradient_suite()
    _report(6, res.passed, "; ".join(res.lines))


def test_criterion_7_sampler_statistics():
    from topoinf import Graph

    # dropedge: two edges with single-draw probabilities (0.9, 0.1)
    dist = dropedge_weights(np.log([0.9, 0.1]), tau=1.0)
    trials = 10_000
    hits = np.zeros(2)
    for t in range(trials):
        hits[sample_dropedge(dist, 0.5, seed=t)] += 1
    drop_err = abs(hits[0] / trials - 0.9)

    # uniform removal over ten edges at ratio 0.3
    chain = Graph.from_edges(11, [(i, i + 1) for i in range(10)])
    freq = np.zeros(10)
    for t in range(trials):
        freq[remove_random(chain, 0.3, seed=t)] += 1
    rand_err = float(np.max(np.abs(freq / trials - 0.3)))

    ok = drop_err <= 0.02 and rand_err <= 0.02
    _report(7, ok,
            f"dropedge single-draw deviation {drop_err:.4f} (<= 0.02); "
            f"uniform-removal deviation {rand_err:.4f} (<= 0.02)")


def _run_cli(argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


def _strip_timestamp(raw):
    doc = json.loads(raw)
    doc.pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_8_determinism(tmp_path):
    graph = tmp_path / "g.edges"
    labels = tmp_path / "g.labels"
    graph.write_text("# nodes=6\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n")
    labels.write_text("# classes=2\n0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
    base = tmp_path / "out"
    base.mkdir()

    def run_everything():
        _run_cli(["gen-csbm", "--n", "40", "--classes", "2", "--p", "0.5",
                  "--q", "0.1", "--dim", "4", "--sigma", "1.0", "--seed", "9",
                  "--output-prefix", base / "ds"])
        _run_cli(["score", "--graph", graph, "--labels", labels,
                  "--output", base / "scores.tsv", "--seed", "1"])
        _run_cli(["rewire", "--graph", graph, "--strategy", "random",
                  "--ratio", "0.4", "--seed", "3", "--output", base / "rw.edges"])
        _run_cli(["dropedge", "--graph", graph, "--labels", labels, "--tau", "0.75", "--lambda", "0",
                  "--drop-rate", "0.4", "--emit-epochs", "2", "--seed", "4",
                  "--output-prefix", base / "de"])
        return {p.relative_to(base): p.read_bytes()
                for p in sorted(base.rglob("*")) if p.is_file()}

    first = run_everything()
    second = run_everything()   # same paths: flags in the manifests also match
    mismatched = []
    for name, blob in first.items():
        other = second[name]
        if str(name).endswith(".manifest.json"):
            same = _strip_timestamp(blob) == _strip_timestamp(other)
        else:
            same = blob == other
        if not same:
            mismatched.append(str(name))
    ok = len(first) > 0 and len(first) == len(second) and not mismatched
    _report(8, ok,
            f"{len(first)} output files byte-identical across reruns "
            f"(manifests compared modulo timestamp)"
            f"{'; differs: ' + str(mismatched) if mismatched else ''}")
