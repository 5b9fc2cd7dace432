import argparse
import hashlib
import json

import numpy as np
import pytest

from topoinf import FilterSpec, LabelData, compatibility, greedy_refine, load_edge_list, \
    load_labels, score_all_edges, write_edge_list, write_labels
from topoinf.cli import MAX_EPOCHS, build_parser, main
from topoinf.csbm import MAX_FEATURE_VALUES, MAX_SBM_NODES
from topoinf.filters import MAX_ORDER
from topoinf.graphs import MAX_NODES
from topoinf.verify import random_labeled_graph

from conftest import edge_id

TRIANGLE = "# nodes=3\n0 1\n0 2\n1 2\n"
TRIANGLE_LABELS = "# classes=2\n0 0\n1 0\n2 1\n"
TRIANGLE_SOFT = "0 0.8 0.2\n1 0.6 0.4\n2 0.1 0.9\n"


@pytest.fixture
def fixture_files(tmp_path):
    graph = tmp_path / "g.edges"
    labels = tmp_path / "g.labels"
    graph.write_text(TRIANGLE)
    labels.write_text(TRIANGLE_LABELS)
    return graph, labels, tmp_path


def run(argv):
    return main([str(a) for a in argv])


class TestAnalyze:
    def test_triangle_compat(self, fixture_files, capsys):
        graph, labels, _ = fixture_files
        code = run(["analyze", "--graph", graph, "--labels", labels,
                    "--model", "custom", "--k", "1", "--gamma", "0,1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["C"] == pytest.approx(5 / 3, abs=1e-9)
        assert len(doc["nodes"]) == 3

    def test_missing_labels_file(self, fixture_files, capsys):
        graph, _, tmp = fixture_files
        code = run(["analyze", "--graph", graph, "--labels", tmp / "absent.labels"])
        assert code == 2

    def test_target_restriction(self, fixture_files, capsys):
        graph, labels, tmp = fixture_files
        tfile = tmp / "target.txt"
        tfile.write_text("0\n")
        code = run(["analyze", "--graph", graph, "--labels", labels,
                    "--model", "custom", "--k", "1", "--gamma", "0,1",
                    "--target", tfile])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["C"] == pytest.approx(2 / 3, abs=1e-9)

    def test_output_file_with_manifest(self, fixture_files):
        graph, labels, tmp = fixture_files
        out = tmp / "report.json"
        code = run(["analyze", "--graph", graph, "--labels", labels,
                    "--output", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "C" in doc
        manifest = json.loads((tmp / "report.json.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert "graph" in manifest["inputs"]

    @pytest.mark.parametrize("flags, alpha", [
        pytest.param([], 0.1, id="default"),
        pytest.param(["--model", "appnp", "--alpha", "0.3"], 0.3, id="appnp"),
    ])
    def test_alpha_recorded(self, fixture_files, flags, alpha):
        """The JSON and the manifest record the alpha of the run, the default
        one when the flag is omitted."""
        graph, labels, tmp = fixture_files
        out = tmp / "a.json"
        assert run(["analyze", "--graph", graph, "--labels", labels, *flags,
                    "--output", out]) == 0
        assert json.loads(out.read_text())["filter"]["alpha"] == alpha
        manifest = json.loads((tmp / "a.json.manifest.json").read_text())
        assert manifest["flags"]["alpha"] == alpha


class TestScore:
    def test_modes_agree(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        outs = []
        for mode in ("exact", "incremental"):
            out = tmp_path / f"{mode}.tsv"
            code = run(["score", "--graph", graph, "--labels", labels,
                        "--model", "custom", "--k", "1", "--gamma", "0,1",
                        "--mode", mode, "--output", out])
            assert code == 0
            outs.append(out.read_text())
        rows0 = [r.split("\t") for r in outs[0].strip().split("\n")[1:]]
        rows1 = [r.split("\t") for r in outs[1].strip().split("\n")[1:]]
        for a, b in zip(rows0, rows1):
            assert a[:2] == b[:2]
            assert float(a[2]) == pytest.approx(float(b[2]), abs=1e-10)

    def test_empty_graph_scores(self, tmp_path, capsys):
        graph = tmp_path / "empty.edges"
        graph.write_text("# nodes=3\n")
        labels = tmp_path / "l.labels"
        labels.write_text(TRIANGLE_LABELS)
        code = run(["score", "--graph", graph, "--labels", labels])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n") == ["edge_u\tedge_v\ttopoinf\tsign\taffected_nodes"]

    def test_json_metadata(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        jout = tmp_path / "scores.json"
        tout = tmp_path / "scores.tsv"
        code = run(["score", "--graph", graph, "--labels", labels,
                    "--json", jout, "--output", tout, "--seed", "5"])
        assert code == 0
        doc = json.loads(jout.read_text())
        assert doc["metadata"]["model"] == "sgc"
        assert doc["metadata"]["seed"] == 5
        assert len(doc["scores"]) == 3


class TestRewire:
    def test_random_seeded_reproducible(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"r{tag}.edges"
            code = run(["rewire", "--graph", graph, "--strategy", "random",
                        "--ratio", "0.34", "--seed", "11", "--output", out])
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_greedy_trace_monotone(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        out = tmp_path / "greedy.edges"
        code = run(["rewire", "--graph", graph, "--labels", labels,
                    "--model", "custom", "--k", "1", "--gamma", "0,1",
                    "--strategy", "topoinf", "--ratio", "0.67", "--greedy", "--lambda", "0",
                    "--output", out])
        assert code == 0
        trace = (tmp_path / "greedy.edges.trace.tsv").read_text().strip().split("\n")
        c_vals = [float(r.split("\t")[3]) for r in trace[1:]]
        assert c_vals == sorted(c_vals)
        assert len(c_vals) == 2

    def test_adaedge_without_labels_fails(self, fixture_files, tmp_path):
        graph, _, _ = fixture_files
        code = run(["rewire", "--graph", graph, "--strategy", "adaedge",
                    "--ratio", "0.3", "--output", tmp_path / "x.edges"])
        assert code == 2
        assert not (tmp_path / "x.edges").exists()

    def test_adaedge_positive_set_removes_cross_label_edges(self, fixture_files,
                                                            tmp_path):
        graph, labels, _ = fixture_files
        out = tmp_path / "ada.edges"
        code = run(["rewire", "--graph", graph, "--labels", labels,
                    "--strategy", "adaedge", "--set", "positive",
                    "--ratio", "0.67", "--seed", "0", "--output", out])
        assert code == 0
        kept = {tuple(map(int, l.split())) for l in out.read_text().splitlines()
                if not l.startswith("#")}
        # both removable cross-label edges are (0,2) and (1,2); (0,1) survives
        assert (0, 1) in kept
        assert len(kept) == 1

    def test_batch_flag_conflicts_with_greedy(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        with pytest.raises(SystemExit) as exc:
            run(["rewire", "--graph", graph, "--labels", labels,
                 "--strategy", "topoinf", "--lambda", "0", "--ratio", "0.3", "--greedy", "--batch",
                 "--output", tmp_path / "x.edges"])
        assert exc.value.code == 2

    def test_batch_topoinf(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        out = tmp_path / "batch.edges"
        code = run(["rewire", "--graph", graph, "--labels", labels,
                    "--model", "custom", "--k", "1", "--gamma", "0,1",
                    "--strategy", "topoinf", "--set", "positive",
                    "--lambda", "0", "--ratio", "0.34", "--output", out])
        assert code == 0
        kept = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(kept) == 2  # one edge removed


@pytest.mark.parametrize("mode", ["random", "adaedge", "topoinf", "greedy"])
def test_rewire_writes_input_minus_trace(tmp_path, mode):
    """Every mode writes the input edges less the trace's (u, v) rows; the
    score column holds the scores the library gives, and greedy's c_after
    column the C after each removal, both at 12 significant digits."""
    g, labels = random_labeled_graph(40, 4, 3, seed=3)
    (tmp_path / "g.edges").write_text(write_edge_list(g))
    (tmp_path / "g.labels").write_text(write_labels(labels))
    argv = ["rewire", "--graph", tmp_path / "g.edges", "--ratio", "0.1",
            "--output", tmp_path / "out.edges"]
    if mode != "random":
        argv += ["--labels", tmp_path / "g.labels"]
    scored = ["--strategy", "topoinf", "--lambda", "0.1", "--model", "appnp", "--k", "2"]
    argv += {"random": ["--strategy", "random"], "adaedge": ["--strategy", "adaedge"],
             "topoinf": scored, "greedy": scored + ["--greedy"]}[mode]
    assert run(argv) == 0
    rows = [r.split("\t") for r in
            (tmp_path / "out.edges.trace.tsv").read_text().splitlines()[1:]]
    gone = [(int(u), int(v)) for u, v, _, _ in rows]
    written = load_edge_list((tmp_path / "out.edges").read_text())
    assert written.n == g.n and len(gone) == int(0.1 * g.edge_count)
    assert [tuple(e) for e in written.edges.tolist()] == \
        [tuple(e) for e in g.edges.tolist() if tuple(e) not in gone]
    spec = FilterSpec("appnp", 2)
    if mode == "greedy":
        removed, scores, c_after = greedy_refine(g, spec, labels, lam=0.1,
                                                 max_removals=len(gone))
        assert gone == [tuple(e) for e in g.edges[removed].tolist()]
        assert [r[2:] for r in rows] == [[f"{x:.12g}", f"{c:.12g}"]
                                         for x, c in zip(scores, c_after)]
    elif mode == "topoinf":
        values = score_all_edges(g, spec, labels, lam=0.1).values
        assert [r[2:] for r in rows] == [[f"{values[edge_id(g, u, v)]:.12g}", ""]
                                         for u, v in gone]
    else:
        assert all(r[2:] == ["", ""] for r in rows)


class TestDropEdge:
    def test_distribution_only(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        prefix = tmp_path / "de"
        code = run(["dropedge", "--graph", graph, "--labels", labels,
                    "--tau", "1.0", "--lambda", "0", "--emit-epochs", "0",
                    "--output-prefix", prefix])
        assert code == 0
        dist = (tmp_path / "de.dist.tsv").read_text().strip().split("\n")
        assert dist[0] == "u\tv\ttopoinf\tprobability"
        assert len(dist) == 4
        assert not list(tmp_path.glob("de.epoch*"))

    def test_equal_scores_uniform(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        prefix = tmp_path / "uni"
        # identity filter: every score is exactly zero
        code = run(["dropedge", "--graph", graph, "--labels", labels,
                    "--model", "custom", "--k", "1", "--gamma", "1,0",
                    "--tau", "0.5", "--lambda", "0", "--output-prefix", prefix])
        assert code == 0
        rows = (tmp_path / "uni.dist.tsv").read_text().strip().split("\n")[1:]
        probs = [float(r.split("\t")[3]) for r in rows]
        assert probs == pytest.approx([1 / 3] * 3, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_tau_puts_all_mass_on_top_scores(self, fixture_files, tmp_path, capsys):
        graph, labels, _ = fixture_files
        code = run(["dropedge", "--graph", graph, "--labels", labels, "--tau", "1e-320",
                    "--lambda", "0", "--emit-epochs", "0", "--output-prefix", tmp_path / "t"])
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "t.dist.tsv").read_text().strip().split("\n")[1:]
        # (0,2) and (1,2) tie for the top score; (0,1) scores below them
        assert [r.split("\t")[3] for r in rows] == ["0", "0.5", "0.5"]

    def test_epochs_seeded(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        texts = {}
        for tag in ("x", "y"):
            prefix = tmp_path / f"ep{tag}"
            code = run(["dropedge", "--graph", graph, "--labels", labels,
                        "--tau", "1.0", "--lambda", "0", "--drop-rate", "0.34",
                        "--emit-epochs", "3", "--seed", "2",
                        "--output-prefix", prefix])
            assert code == 0
            texts[tag] = [p.read_text() for p in sorted(tmp_path.glob(f"ep{tag}.epoch*"))]
        assert texts["x"] == texts["y"]
        assert len(texts["x"]) == 3


class TestGenCsbm:
    def test_two_cliques(self, tmp_path):
        prefix = tmp_path / "cl"
        code = run(["gen-csbm", "--n", "10", "--classes", "2", "--p", "1.0",
                    "--q", "0.0", "--dim", "3", "--sigma", "0.0", "--seed", "3",
                    "--output-prefix", prefix])
        assert code == 0
        labels = {}
        for line in (tmp_path / "cl.labels").read_text().splitlines():
            if not line.startswith("#"):
                v, c = line.split()
                labels[int(v)] = int(c)
        for line in (tmp_path / "cl.edges").read_text().splitlines():
            if not line.startswith("#"):
                u, v = (int(x) for x in line.split())
                assert labels[u] == labels[v]

    def test_sigma_zero_features_are_centers(self, tmp_path):
        prefix = tmp_path / "sz"
        run(["gen-csbm", "--n", "6", "--classes", "2", "--p", "0.5", "--q", "0.1",
             "--dim", "4", "--sigma", "0.0", "--seed", "1", "--output-prefix", prefix])
        feats = np.loadtxt(tmp_path / "sz.features")
        for row in feats:
            assert sorted(np.unique(np.abs(row)).tolist()) in ([0.0, 1.0], [0.0])
        manifest = json.loads((tmp_path / "sz.json").read_text())
        assert manifest["params"]["sigma"] == 0.0

    def test_cora_like_preset(self, tmp_path):
        prefix = tmp_path / "cora"
        code = run(["gen-csbm", "--preset", "cora-like", "--mix", "0.9,0.1",
                    "--sigma", "1.0", "--seed", "0", "--output-prefix", prefix])
        assert code == 0
        manifest = json.loads((tmp_path / "cora.json").read_text())
        assert manifest["params"]["n"] == 2708
        assert manifest["params"]["d"] == 1433
        # realized edge count near the matched expectation
        assert abs(manifest["edges"] - 5278) < 5 * np.sqrt(5278)
        # the data files as the preset wrote them before it rejected the
        # flags it fixes
        pinned = {
            "edges": "f6ea0f7a1e96c2136d8d431744ba33a4b43af2aa4651fb63edbb024317ea8315",
            "labels": "cd016124d3a1b65e5489f4ed85c71f49b0c40e5149d5b0e0f17a7ffd4a75972a",
            "features": "4f4cf5e585dc9505d0abb9cfa40a43ed58adab5f50c4b48d81c9ba3a6a1b5ff6",
        }
        for ext, digest in pinned.items():
            data = (tmp_path / f"cora.{ext}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, ext


class TestPseudoCommand:
    def test_outputs_reingestable(self, tmp_path):
        prefix = tmp_path / "data"
        run(["gen-csbm", "--n", "30", "--classes", "2", "--p", "0.7", "--q", "0.05",
             "--dim", "4", "--sigma", "0.3", "--seed", "5", "--output-prefix", prefix])
        # keep only some labels
        lines = (tmp_path / "data.labels").read_text().splitlines()
        partial = [lines[0]] + [l for i, l in enumerate(lines[1:]) if i % 2 == 0]
        (tmp_path / "partial.labels").write_text("\n".join(partial) + "\n")
        pfx = tmp_path / "ps"
        code = run(["pseudo", "--graph", tmp_path / "data.edges",
                    "--labels", tmp_path / "partial.labels",
                    "--features", tmp_path / "data.features",
                    "--epochs", "150", "--seed", "0", "--output-prefix", pfx])
        assert code == 0
        assert (tmp_path / "ps.soft.tsv").exists()
        code = run(["score", "--graph", tmp_path / "data.edges",
                    "--labels", tmp_path / "ps.labels",
                    "--output", tmp_path / "est.tsv"])
        assert code == 0
        assert (tmp_path / "est.tsv").read_text().count("\n") == \
            len((tmp_path / "data.edges").read_text().strip().splitlines())


class TestVerifyCommand:
    def test_unknown_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_gradient_suite_passes(self, capsys):
        code = run(["verify", "--suite", "gradients", "--quick"])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out

    @pytest.mark.parametrize("suite, line", [
        ("oracle", "mismatches: 0"),
        ("theorem2", "distance-contraction violations: 0"),
    ])
    def test_quick_suites_pass(self, capsys, suite, line):
        code = run(["verify", "--suite", suite, "--quick"])
        assert code == 0
        assert f"  {line}\n" in capsys.readouterr().out


class TestLambdaRequiredForRewiring:
    def test_rewire_topoinf_needs_lambda(self, fixture_files, tmp_path, capsys):
        graph, labels, _ = fixture_files
        code = run(["rewire", "--graph", graph, "--labels", labels,
                    "--strategy", "topoinf", "--ratio", "0.3",
                    "--output", tmp_path / "x.edges"])
        assert code == 2
        assert capsys.readouterr().err == "error: --lambda is required for score-based rewiring\n"

    def test_dropedge_needs_lambda(self, fixture_files, tmp_path, capsys):
        graph, labels, _ = fixture_files
        code = run(["dropedge", "--graph", graph, "--labels", labels,
                    "--tau", "1.0", "--output-prefix", tmp_path / "d"])
        assert code == 2
        assert capsys.readouterr().err == "error: --lambda is required for score-based rewiring\n"

    def test_random_strategy_does_not(self, fixture_files, tmp_path):
        graph, _, _ = fixture_files
        code = run(["rewire", "--graph", graph, "--strategy", "random",
                    "--ratio", "0.3", "--seed", "0",
                    "--output", tmp_path / "r.edges"])
        assert code == 0


@pytest.mark.parametrize("argv, name", [
    (["score", "--lambda", "nan"], "lambda"),
    (["dropedge", "--lambda", "0", "--tau", "nan", "--output-prefix", "{tmp}/d"], "tau"),
    (["analyze", "--model", "custom", "--k", "1", "--gamma", "nan,1"], "gamma"),
])
def test_non_finite_parameter_rejected(fixture_files, capsys, argv, name):
    graph, labels, tmp = fixture_files
    argv = [a.format(tmp=tmp) for a in argv]
    code = run([argv[0], "--graph", graph, "--labels", labels, *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not list(tmp.glob("d*"))


# a star whose two target leaves put C past float64 at lambda 1.7e308; the
# edge (2, 3) touches no target, scores finite and positive, and is removed
STAR = "# nodes=4\n0 3\n1 3\n2 3\n"
STAR_LABELS = "# classes=2\n0 0\n1 0\n2 1\n3 0\n"


@pytest.mark.parametrize("argv, code", [
    pytest.param(["rewire", "--strategy", "topoinf", "--greedy", "--ratio", "1",
                  "--output", "{tmp}/out.edges"], 2, id="greedy"),
    pytest.param(["score", "--output", "{tmp}/out.tsv"], 0, id="incremental"),
    pytest.param(["dropedge", "--tau", "1", "--output-prefix", "{tmp}/out"], 0,
                 id="dropedge"),
])
def test_lambda_overflowing_c(tmp_path, capsys, argv, code):
    """Greedy rewiring forms C after its first removal and exits 2 naming
    lambda, as `analyze` and `score --mode exact` do (see
    test_input_failures_exit_two); incremental scores never form C and stay
    finite where the edge isolates no target."""
    (tmp_path / "g.edges").write_text(STAR)
    (tmp_path / "g.labels").write_text(STAR_LABELS)
    (tmp_path / "t.txt").write_text("0\n1\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run([argv[0], "--graph", tmp_path / "g.edges", "--labels", tmp_path / "g.labels",
                "--target", tmp_path / "t.txt", "--lambda", "1.7e308", *argv[1:]]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == "error: lambda 1.7e+308: C overflows float64\n"
        assert not list(tmp_path.glob("out*"))
    else:   # the score TSV and the dist TSV both hold the score in column 3
        out = tmp_path / ("out.tsv" if argv[0] == "score" else "out.dist.tsv")
        rows = out.read_text().split("\n")[1:-1]
        assert sorted(r.split("\t")[2] for r in rows) == ["-inf", "-inf", "0.28084679575"]


@pytest.mark.parametrize("flags, name", [
    (["--tau", "nan"], "tau"),
    (["--tau", "0"], "tau"),
    (["--tau", "inf"], "tau"),
    (["--tau", "1", "--drop-rate", "nan"], "drop rate"),
    (["--tau", "1", "--drop-rate", "1.5"], "drop rate"),
    (["--tau", "1", "--drop-rate", "-0.1"], "drop rate"),
])
def test_dropedge_parameters_checked_before_scoring(fixture_files, capsys, monkeypatch,
                                                    flags, name):
    def no_scoring(*args, **kwargs):
        raise AssertionError("edges scored before the parameters were checked")

    monkeypatch.setattr("topoinf.cli.score_all_edges", no_scoring)
    graph, labels, tmp = fixture_files
    code = run(["dropedge", "--graph", graph, "--labels", labels, "--lambda", "0",
                *flags, "--output-prefix", tmp / "d"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not list(tmp.glob("d*"))


FEATURES = "1 0\n0 1\n1 1\n"
PSEUDO = ["pseudo", "--features", "{tmp}/g.input", "--output-prefix", "{tmp}/out"]
SCORE = ["score", "--output", "{tmp}/out.tsv"]
ANALYZE = ["analyze", "--output", "{tmp}/out.json"]
SOFT = ["analyze", "--soft-labels", "{tmp}/g.input", "--output", "{tmp}/out.json"]
GEN = ["gen-csbm", "--n", "10", "--classes", "2", "--p", "0.5", "--q", "0.1", "--dim", "2",
       "--output-prefix", "{tmp}/out"]
DROPEDGE = ["dropedge", "--lambda", "0", "--tau", "1", "--output-prefix", "{tmp}/out"]
PRESET = ["gen-csbm", "--preset", "cora-like", "--output-prefix", "{tmp}/out"]
REWIRE = ["rewire", "--ratio", "0.5", "--output", "{tmp}/out.edges"]
TOPOINF = REWIRE + ["--strategy", "topoinf", "--lambda", "0"]
# a flag the chosen mode never reads exits 2 naming it, before any file is read
UNREAD = [
    pytest.param(TOPOINF + ["--seed", "1"], "--seed", id="topoinf-seed"),
    pytest.param(REWIRE + ["--strategy", "random", "--set", "positive"], "--set",
                 id="random-set"),
    pytest.param(TOPOINF + ["--greedy", "--set", "positive"], "--set", id="greedy-set"),
    pytest.param(TOPOINF + ["--rescore-every", "2"], "--rescore-every",
                 id="batch-rescore-every"),
    pytest.param(REWIRE + ["--strategy", "random", "--rescore-every", "1"],
                 "--rescore-every", id="random-rescore-every"),
    pytest.param(REWIRE + ["--strategy", "random", "--lambda", "0"], "--lambda",
                 id="random-lambda"),
    pytest.param(REWIRE + ["--strategy", "adaedge", "--lambda", "0.1"], "--lambda",
                 id="adaedge-lambda"),
    pytest.param(GEN + ["--mix", "0.9,0.1"], "--mix", id="mix-without-preset"),
    *(pytest.param(REWIRE + ["--strategy", strategy, flag, value], flag,
                   id=f"{strategy}{flag}")
      for strategy in ("random", "adaedge")
      for flag, value in (("--target", "{tmp}/g.input"), ("--model", "appnp"),
                          ("--k", "3"), ("--alpha", "0.2"), ("--gamma", "0,1"))),
    pytest.param(REWIRE + ["--strategy", "random"], "--labels", id="random--labels"),
    pytest.param(REWIRE + ["--strategy", "random", "--greedy"], "--greedy",
                 id="random-greedy"),
    # --alpha is read only by the s2gc, appnp and gcnii coefficients
    pytest.param(ANALYZE + ["--alpha", "0.2"], "--alpha", id="analyze-sgc-alpha"),
    pytest.param(SCORE + ["--model", "gcn", "--alpha", "0.2"], "--alpha",
                 id="score-gcn-alpha"),
    pytest.param(TOPOINF + ["--model", "custom", "--gamma", "0,1,1", "--alpha", "0.2"],
                 "--alpha", id="rewire-custom-alpha"),
    pytest.param(TOPOINF + ["--greedy", "--alpha", "0.2"], "--alpha",
                 id="greedy-sgc-alpha"),
    pytest.param(DROPEDGE + ["--model", "gprgnn", "--gamma", "1,0.5,0.5", "--alpha", "0.2"],
                 "--alpha", id="dropedge-gprgnn-alpha"),
    pytest.param(PSEUDO + ["--alpha", "0.1"], "--alpha", id="pseudo-sgc-alpha"),
]
# a custom filter whose coefficients overflow float64 on every filtered row
OVERFLOW = [
    pytest.param(argv + ["--model", "custom", "--k", "2", "--gamma", "1e308,1e308,1e308"],
                 "filter coefficients overflow", id=f"overflow-{name}")
    for name, argv in (("analyze", ANALYZE), ("score", SCORE),
                       ("greedy", TOPOINF + ["--greedy"]), ("dropedge", DROPEDGE))
]
# every rewire mode checks --ratio, also before any file is read
BAD_RATIO = [
    pytest.param(TOPOINF + ["--greedy", "--ratio", "7"], "--ratio", id="greedy-ratio-7"),
    pytest.param(TOPOINF + ["--greedy", "--ratio", "-1"], "--ratio", id="greedy-ratio-neg"),
    pytest.param(TOPOINF + ["--ratio", "nan"], "--ratio", id="batch-ratio-nan"),
]


@pytest.mark.parametrize("graph_text, input_text, argv, name", [
    pytest.param(TRIANGLE, "1 0\nnan 1\n1 1\n", PSEUDO, "--features", id="nan-feature"),
    pytest.param(TRIANGLE, "1 0\n0 1\n1 inf\n", PSEUDO, "--features", id="inf-feature"),
    pytest.param(TRIANGLE, "1 0\n0 x\n1 1\n", PSEUDO, "--features",
                 id="non-numeric-feature"),
    pytest.param(TRIANGLE, FEATURES, ANALYZE + ["--model", "custom", "--k", "1",
                                                "--gamma", "a,b"], "--gamma",
                 id="non-numeric-gamma"),
    pytest.param(TRIANGLE, "7\n", ANALYZE + ["--target", "{tmp}/g.input"], "--target",
                 id="out-of-range-target"),
    pytest.param(TRIANGLE, "0\n-1\n", ANALYZE + ["--target", "{tmp}/g.input"],
                 "g.input: line 2: node -1 outside [0, 3)", id="negative-target"),
    pytest.param(TRIANGLE, "0\nx\n", ANALYZE + ["--target", "{tmp}/g.input"],
                 "g.input: line 2: not a node id", id="non-integer-target"),
    pytest.param("# nodes=x\n0 1\n", FEATURES, SCORE, "line 1: bad nodes header",
                 id="non-integer-node-header"),
    pytest.param(TRIANGLE, "1 0\n0 1\n", PSEUDO, "g.input: 2 rows, graph has 3 nodes",
                 id="short-features"),
    # numpy's "input contained no data" warning must not reach stderr
    *(pytest.param(TRIANGLE, text, PSEUDO, "g.input: 0 rows, graph has 3 nodes", id=name,
                   marks=pytest.mark.filterwarnings("error::UserWarning"))
      for name, text in (("empty-features", ""), ("comment-only-features", "# none\n"))),
    pytest.param(TRIANGLE, FEATURES, PRESET + ["--mix", "1,2,3"], "--mix must be",
                 id="three-value-mix"),
    pytest.param(TRIANGLE, FEATURES, [a for a in GEN if a not in ("--n", "10")],
                 "--n is required", id="gen-without-n"),
    pytest.param(TRIANGLE, FEATURES, PRESET + ["--mix", "1,nan"], "--mix", id="nan-mix"),
    pytest.param(TRIANGLE, FEATURES, PSEUDO + ["--lr", "1e6"], "--lr", id="diverging-lr",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param(f"# nodes={MAX_NODES + 1}\n0 1\n", FEATURES, SCORE, "nodes=",
                 id="oversized-header"),
    pytest.param(f"0 {MAX_NODES}\n", FEATURES, SCORE, "nodes=", id="oversized-node-id"),
    pytest.param("# nodes=-3\n0 1\n", FEATURES, SCORE, "line 1: nodes=-3",
                 id="negative-node-header"),
    pytest.param(TRIANGLE, "0 1 0\n1 1.5 -0.5\n2 0 1\n", SOFT, "--soft-labels",
                 id="negative-soft-label"),
    pytest.param(TRIANGLE, "0 1 0\n1 1 0\n1 0 1\n2 0 1\n", SOFT, "--soft-labels",
                 id="duplicate-soft-label-node"),
    pytest.param(TRIANGLE, "0 1 0\n1 nan 1\n2 0 1\n", SOFT, "--soft-labels",
                 id="nan-soft-label"),
    pytest.param(TRIANGLE, "0 1 0\nx 1 0\n2 0 1\n", SOFT,
                 "g.input: line 2: non-integer node id", id="non-integer-soft-node"),
    pytest.param(TRIANGLE, "0 1 0\n1 a 0\n2 0 1\n", SOFT,
                 "g.input: line 2: non-numeric probability", id="non-numeric-soft-label"),
    pytest.param(TRIANGLE, "0 1 0\n1 1\n2 0 1\n", SOFT,
                 "g.input: line 2: expected node + 2 probabilities", id="short-soft-row"),
    pytest.param(TRIANGLE, "0 1 0\n3 1 0\n2 0 1\n", SOFT,
                 "g.input: line 2: node 3 outside [0, 3)", id="out-of-range-soft-node"),
    pytest.param(TRIANGLE, "0 1 0\n2 0 1\n", SOFT, "soft label rows missing (first: node 1)",
                 id="missing-soft-row"),
    pytest.param(TRIANGLE, FEATURES, SCORE + ["--k", str(MAX_ORDER + 1)], "--k",
                 id="oversized-order"),
    pytest.param(TRIANGLE, FEATURES, GEN + ["--sigma", "nan"], "sigma", id="nan-sigma"),
    # each bad value fails naming its flag, before the library's own check
    pytest.param(TRIANGLE, FEATURES, GEN + ["--mu-scale", "inf"], "--mu-scale inf",
                 id="inf-mu-scale"),
    *(pytest.param(TRIANGLE, FEATURES, argv + extra, name, id=argv[0] + "".join(extra))
      for argv, extra, name in (
          (PSEUDO, ["--lr", "-1"], "--lr -1.0"),
          (PSEUDO, ["--l2", "nan"], "--l2 nan"),
          (PSEUDO, ["--epochs", "0"], "error: --epochs 0: must be at least 1"),
          (GEN, ["--p", "2.0"], "error: --p 2.0: must lie in [0, 1]"),
          (GEN, ["--q", "-0.5"], "error: --q -0.5: must lie in [0, 1]"),
          (GEN, ["--q", "nan"], "error: --q nan: must lie in [0, 1]"),
          (GEN, ["--sigma", "-1"], "error: --sigma -1.0: must be finite and non-negative"),
          (PRESET, ["--sigma", "inf"], "error: --sigma inf: must be finite and non-negative"),
          (GEN, ["--classes", "1"], "--classes 1"),
          (GEN, ["--dim", "0"], "--dim 0"),
          (GEN, ["--classes", "3"], "--dim 2: --mu-scheme orthogonal_scaled"),
          (TOPOINF, ["--greedy", "--rescore-every", "0"], "--rescore-every 0"))),
    pytest.param(TRIANGLE, "", ["analyze", "--target", "{tmp}/g.input", "--output",
                                "{tmp}/out.json"], "--target", id="empty-target"),
    pytest.param(TRIANGLE, FEATURES, DROPEDGE + ["--emit-epochs", "-1"], "--emit-epochs",
                 id="negative-epochs"),
    pytest.param(TRIANGLE, FEATURES, DROPEDGE + ["--emit-epochs", str(MAX_EPOCHS + 1)],
                 "--emit-epochs", id="oversized-epochs"),
    pytest.param(TRIANGLE, FEATURES, GEN + ["--n", str(MAX_SBM_NODES + 1)], "--n",
                 id="oversized-sbm"),
    *(pytest.param(TRIANGLE, FEATURES, PRESET + [flag, value], flag, id=f"preset{flag}")
      for flag, value in (("--n", "10"), ("--classes", "2"), ("--p", "0.5"),
                          ("--q", "0.1"), ("--dim", "2"),
                          ("--mu-scheme", "orthogonal_scaled"), ("--mu-scale", "1"))),
    pytest.param(TRIANGLE, FEATURES, GEN + ["--dim", str(MAX_FEATURE_VALUES // 10 + 1)],
                 "--dim", id="oversized-features"),
    *(pytest.param(TRIANGLE, FEATURES, *p.values, id=p.id)
      for p in UNREAD + BAD_RATIO + OVERFLOW),
    # C sums three terms of -0.75e308 on the triangle
    *(pytest.param(TRIANGLE, FEATURES, argv + ["--lambda", "1.5e308"],
                   "lambda 1.5e+308: C overflows float64", id=f"overflowing-C-{name}")
      for name, argv in (("analyze", ANALYZE), ("exact", SCORE + ["--mode", "exact"]))),
    # an empty path is a path, not an absent flag
    *(pytest.param(TRIANGLE, FEATURES, argv + [flag, ""], f"error: {flag} : Is a directory",
                   id=f"empty-path{flag}-{argv[0]}")
      for argv in (ANALYZE, SCORE, DROPEDGE, PSEUDO)
      for flag in ("--labels", "--target") if argv is not PSEUDO or flag == "--labels"),
    pytest.param(TRIANGLE, FEATURES, REWIRE + ["--strategy", "adaedge", "--trace", ""],
                 "error: .: is a directory", id="empty-path--trace-rewire"),
    pytest.param(TRIANGLE, FEATURES, ANALYZE + ["--gamma", ""],
                 "error: --gamma : expected comma-separated finite numbers", id="empty-gamma"),
    *(pytest.param(TRIANGLE, FEATURES, argv + ["--seed", "-1"],
                   "--seed -1: must be a non-negative integer", id=f"negative-seed-{argv[0]}")
      for argv in (GEN, DROPEDGE, REWIRE + ["--strategy", "random"], PSEUDO, SCORE)),
])
def test_input_failures_exit_two(tmp_path, capsys, graph_text, input_text, argv, name):
    """Each bad input exits 2 with a message naming it and writes nothing.

    `input_text` is the features, soft-label or target file the command
    reads. The oversized counts sit just above MAX_NODES, MAX_ORDER,
    MAX_EPOCHS, MAX_SBM_NODES and MAX_FEATURE_VALUES (n = 10), so the test
    never asks for more memory or more loop iterations than an input at the
    limit would need. gen-csbm reads no graph."""
    (tmp_path / "g.edges").write_text(graph_text)
    (tmp_path / "g.labels").write_text(TRIANGLE_LABELS)
    (tmp_path / "g.input").write_text(input_text)
    argv = [a.format(tmp=tmp_path) for a in argv]
    io = [] if argv[0] == "gen-csbm" else \
        ["--graph", tmp_path / "g.edges", "--labels", tmp_path / "g.labels"]
    code = run([argv[0], *io, *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_epochs_checked_before_any_file_is_read(tmp_path, capsys):
    """`pseudo --epochs 0` names the flag even though no input file exists."""
    missing = [str(tmp_path / name) for name in ("g.edges", "g.labels", "g.features")]
    assert run(["pseudo", "--graph", missing[0], "--labels", missing[1], "--features",
                missing[2], "--epochs", "0", "--output-prefix", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "error: --epochs 0: must be at least 1\n"


# each input-file flag, a command that reads `{f}` as that file, and a file
# whose second line is bad
IO = ["--graph", "{tmp}/g.edges", "--labels", "{tmp}/g.labels"]
FILE_FLAGS = {
    "--graph": (ANALYZE + ["--graph", "{f}", "--labels", "{tmp}/g.labels"], "0 1\n1 x\n"),
    "--labels": (ANALYZE + ["--graph", "{tmp}/g.edges", "--labels", "{f}"], "0 0\n1 -1\n"),
    "--soft-labels": (ANALYZE + IO + ["--soft-labels", "{f}"], "0 1 0\n1 1\n2 0 1\n"),
    "--target": (ANALYZE + IO + ["--target", "{f}"], "0\nx\n"),
    "--features": (["pseudo", *IO, "--features", "{f}", "--output-prefix", "{tmp}/out"],
                   "1 0\n0 x\n1 1\n"),
}


@pytest.mark.parametrize("case", ["bad-line", "missing", "directory", "undecodable"])
@pytest.mark.parametrize("flag", FILE_FLAGS)
def test_input_file_errors_name_flag_and_file(tmp_path, capsys, flag, case):
    """Every error reading or parsing an input file exits 2 with a message
    that starts with the file's flag and path, and writes nothing."""
    (tmp_path / "g.edges").write_text(TRIANGLE)
    (tmp_path / "g.labels").write_text(TRIANGLE_LABELS)
    argv, bad_line = FILE_FLAGS[flag]
    path = tmp_path / "in"
    if case == "bad-line":
        path.write_text(bad_line)
    elif case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(b"0 1\n\xff\xfe\x80\n")
    assert run([a.format(tmp=tmp_path, f=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {path}: ")
    if case == "bad-line":
        assert "line 2" in err or "row 1" in err   # numpy counts rows from 0
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("flag, text, line", [
    pytest.param("--graph", "# nodes=3\n0 1\n# nodes=4\n1 2\n",
                 "line 3: repeated nodes header", id="graph"),
    pytest.param("--labels", "# classes=2\n0 0\n# classes=3\n",
                 "line 3: repeated classes header", id="labels"),
])
def test_repeated_header_names_flag_and_file(tmp_path, capsys, flag, text, line):
    """A second `# nodes=`/`# classes=` header exits 2, naming the flag, the
    file and the line, and writes nothing."""
    (tmp_path / "g.edges").write_text(TRIANGLE)
    (tmp_path / "g.labels").write_text(TRIANGLE_LABELS)
    path = tmp_path / "in"
    path.write_text(text)
    files = {"--graph": tmp_path / "g.edges", "--labels": tmp_path / "g.labels", flag: path}
    assert run(["analyze", *(a for pair in files.items() for a in pair),
                "--output", tmp_path / "out.json"]) == 2
    assert capsys.readouterr().err == f"error: {flag} {path}: {line}\n"
    assert not list(tmp_path.glob("out*"))


class TestValidationBeforeWrite:
    def test_no_partial_artifacts(self, tmp_path):
        graph = tmp_path / "bad.edges"
        graph.write_text("0 0\n")  # self-loop
        out = tmp_path / "never.tsv"
        labels = tmp_path / "l.labels"
        labels.write_text(TRIANGLE_LABELS)
        code = run(["score", "--graph", graph, "--labels", labels,
                    "--output", out])
        assert code == 2
        assert not out.exists()

    def test_directory_destination_writes_nothing(self, fixture_files):
        graph, _, tmp = fixture_files
        (tmp / "adir").mkdir()
        code = run(["rewire", "--graph", graph, "--strategy", "random", "--ratio", "0.5",
                    "--output", tmp / "r.edges", "--trace", tmp / "adir"])
        assert code == 2
        assert sorted(p.name for p in tmp.iterdir()) == ["adir", "g.edges", "g.labels"]
        assert not list((tmp / "adir").iterdir())

    @pytest.mark.parametrize("argv, path", [
        pytest.param(["rewire", "--strategy", "adaedge", "--ratio", "0.5",
                      "--output", "{tmp}/p", "--trace", "{tmp}/p"], "p", id="rewire-trace"),
        pytest.param(["score", "--json", "{tmp}/p", "--output", "{tmp}/./p"], "p",
                     id="score-json"),
        pytest.param(["score", "--json", "{tmp}/x.manifest.json", "--output", "{tmp}/x"],
                     "x.manifest.json", id="score-json-manifest"),
    ])
    def test_colliding_outputs_write_nothing(self, fixture_files, capsys, argv, path):
        """Two outputs that name one file, the manifest sidecar included,
        exit 2 naming it, where one would silently overwrite the other."""
        graph, labels, tmp = fixture_files
        argv = [a.format(tmp=tmp) for a in argv]
        assert run([argv[0], "--graph", graph, "--labels", labels, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {tmp / path}: two outputs name this file\n"
        assert sorted(p.name for p in tmp.iterdir()) == ["g.edges", "g.labels"]

    @pytest.mark.parametrize("argv, path, flag", [
        pytest.param(["analyze", *IO, "--output", "{tmp}/g.labels"], "g.labels", "--labels",
                     id="analyze-output-labels"),
        pytest.param(["rewire", "--graph", "{tmp}/g.edges", "--strategy", "random",
                      "--ratio", "0.34", "--output", "{tmp}/g.edges"], "g.edges", "--graph",
                     id="rewire-output-graph"),
        pytest.param(["rewire", *IO, "--strategy", "topoinf", "--lambda", "0", "--ratio", "0.34",
                      "--target", "{tmp}/t.txt", "--output", "{tmp}/out.edges",
                      "--trace", "{tmp}/t.txt"], "t.txt", "--target", id="rewire-trace-target"),
        pytest.param(["score", *IO, "--target", "{tmp}/out.manifest.json", "--output", "{tmp}/out"],
                     "out.manifest.json", "--target", id="score-manifest-target"),
    ])
    def test_output_naming_an_input_writes_nothing(self, fixture_files, capsys, argv, path, flag):
        """An output that resolves to an input file of the run, the manifest
        sidecar included, exits 2 naming it, and every input keeps its bytes."""
        _, _, tmp = fixture_files
        (tmp / "t.txt").write_text("0\n1\n")
        (tmp / "out.manifest.json").write_text("0\n")
        before = {p.name: p.read_bytes() for p in tmp.iterdir()}
        assert run([a.format(tmp=tmp) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {tmp / path}: is the {flag} input of this run\n"
        assert {p.name: p.read_bytes() for p in tmp.iterdir()} == before

    def test_unwritable_destination_writes_nothing(self, fixture_files):
        graph, labels, tmp = fixture_files
        code = run(["score", "--graph", graph, "--labels", labels,
                    "--json", tmp / "s.json", "--output", tmp / "absent" / "s.tsv"])
        assert code == 2
        assert sorted(p.name for p in tmp.iterdir()) == ["g.edges", "g.labels"]


# the flags a run with no optional flag records: every default the parser
# holds, and the paths as given
FILTER_FLAGS = {"alpha": 0.1, "k": 2, "lam": 0.0, "model": "sgc"}
IO_FLAGS = {"graph": "{tmp}/g.edges", "labels": "{tmp}/g.labels", **FILTER_FLAGS}
REWIRE_FLAGS = {**IO_FLAGS, "greedy": False, "output": "{tmp}/out.edges", "ratio": 0.5,
                "rescore_every": 1, "seed": 0, "set": "positive", "subcommand": "rewire"}
GEN_FLAGS = {"mix": "0.9,0.1", "mu_scale": 1.0, "mu_scheme": "orthogonal_scaled",
             "output_prefix": "{tmp}/out", "seed": 0, "sigma": 1.0, "subcommand": "gen-csbm"}


@pytest.mark.parametrize("argv, flags", [
    pytest.param(["analyze", *IO], {**IO_FLAGS, "subcommand": "analyze"}, id="analyze"),
    pytest.param(["score", *IO], {**IO_FLAGS, "mode": "incremental", "seed": 0,
                                  "subcommand": "score"}, id="score"),
    pytest.param(["rewire", "--graph", "{tmp}/g.edges", "--strategy", "random", "--ratio", "0.5",
                  "--output", "{tmp}/out.edges"],
                 {**{k: v for k, v in REWIRE_FLAGS.items() if k != "labels"},
                  "strategy": "random"}, id="rewire-random"),
    pytest.param(["rewire", *IO, "--strategy", "adaedge", "--ratio", "0.5",
                  "--output", "{tmp}/out.edges"], {**REWIRE_FLAGS, "strategy": "adaedge"},
                 id="rewire-adaedge"),
    pytest.param(TOPOINF + IO, {**REWIRE_FLAGS, "strategy": "topoinf"}, id="rewire-topoinf"),
    pytest.param(TOPOINF + IO + ["--greedy"], {**REWIRE_FLAGS, "strategy": "topoinf",
                                               "greedy": True}, id="rewire-greedy"),
    pytest.param(DROPEDGE + IO, {**IO_FLAGS, "drop_rate": 0.5, "emit_epochs": 0, "seed": 0,
                                 "tau": 1.0, "output_prefix": "{tmp}/out",
                                 "subcommand": "dropedge"}, id="dropedge"),
    pytest.param(GEN, {**GEN_FLAGS, "n": 10, "classes": 2, "p": 0.5, "q": 0.1, "dim": 2},
                 id="gen-csbm"),
    pytest.param(PRESET, {**GEN_FLAGS, "preset": "cora-like"}, id="gen-csbm-preset"),
    pytest.param(PSEUDO + IO, {**{k: v for k, v in IO_FLAGS.items() if k != "lam"},
                               "epochs": 200, "features": "{tmp}/g.input", "l2": 1e-4,
                               "lr": 0.5, "output_prefix": "{tmp}/out", "seed": 0,
                               "subcommand": "pseudo"}, id="pseudo"),
])
def test_manifest_records_the_defaults(tmp_path, capsys, argv, flags):
    """A run that gives no optional flag records the default of every flag it
    has; a run that writes to stdout writes its manifest to stderr."""
    (tmp_path / "g.edges").write_text(TRIANGLE)
    (tmp_path / "g.labels").write_text(TRIANGLE_LABELS)
    (tmp_path / "g.input").write_text(FEATURES)
    assert run([a.format(tmp=tmp_path) for a in argv]) == 0
    sidecars = list(tmp_path.glob("out*.manifest.json"))
    err = capsys.readouterr().err
    assert len(sidecars) == (argv[0] not in ("analyze", "score"))
    manifest = json.loads(sidecars[0].read_text() if sidecars else err)
    assert manifest["flags"] == {k: v.format(tmp=tmp_path) if isinstance(v, str) else v
                                 for k, v in flags.items()}


@pytest.mark.parametrize("cmd", ["analyze", "score", "rewire", "dropedge", "gen-csbm",
                                 "pseudo", "verify"])
def test_help_shows_every_default(capsys, cmd):
    """`topoinf <cmd> --help` exits 0 and shows the default of every flag that
    has one, as the parser holds it."""
    with pytest.raises(SystemExit) as exc:
        run([cmd, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    for action in commands.choices[cmd]._actions:
        if action.default in (None, argparse.SUPPRESS) or isinstance(action.default, bool):
            continue
        assert "%(default)s" in action.help, action.option_strings
        assert f"default {action.default}" in text, action.option_strings


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv, name", UNREAD + BAD_RATIO)
def test_unread_flags_rejected_before_reading(tmp_path, capsys, monkeypatch, argv, name):
    def no_reading(*args, **kwargs):
        raise AssertionError("the graph was read before the flags were checked")

    monkeypatch.setattr("topoinf.cli.load_edge_list", no_reading)
    argv = [a.format(tmp=tmp_path) for a in argv]
    io = [] if argv[0] == "gen-csbm" else \
        ["--graph", tmp_path / "absent.edges", "--labels", tmp_path / "absent.labels"]
    assert run([argv[0], *io, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + name)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    pytest.param(["rewire", "--strategy", "topoinf", "--lambda", "0", "--ratio", "0.5",
                  "--output", "{tmp}/out.edges", *flag], id=f"rewire{flag[0]}")
    for flag in (["--soft"], ["--soft-labels", "{tmp}/g.soft"], ["--batch"])
] + [
    pytest.param(["dropedge", "--lambda", "0", "--tau", "1", "--output-prefix", "{tmp}/out",
                  *flag], id=f"dropedge{flag[0]}")
    for flag in (["--soft"], ["--soft-labels", "{tmp}/g.soft"])
] + [
    pytest.param([cmd, "--soft-labels", "{tmp}/g.soft", "--soft", "--output", "{tmp}/out"],
                 id=f"{cmd}--soft")
    for cmd in ("analyze", "score")
] + [
    # no abbreviations: a removed flag that prefixes a kept one, and a prefix
    pytest.param(["analyze", "--soft", "{tmp}/g.soft", "--output", "{tmp}/out"],
                 id="analyze--soft-prefix"),
    pytest.param(["rewire", "--strategy", "topoinf", "--lambda", "0", "--ratio", "0.5",
                  "--greedy", "--resc", "2", "--output", "{tmp}/out.edges"],
                 id="rewire--resc"),
])
def test_removed_flags_exit_two(fixture_files, argv):
    graph, labels, tmp = fixture_files
    (tmp / "g.soft").write_text(TRIANGLE_SOFT)
    argv = [a.format(tmp=tmp) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run([argv[0], "--graph", graph, "--labels", labels, *argv[1:]])
    assert exc.value.code == 2
    assert not list(tmp.glob("out*"))



def _soft_triangle():
    labels = load_labels(TRIANGLE_LABELS, 3)
    soft = np.array([[0.8, 0.2], [0.6, 0.4], [0.1, 0.9]])
    return load_edge_list(TRIANGLE), labels, LabelData(2, labels.labels, soft=soft)


def test_soft_labels_flag_selects_soft_influence(fixture_files):
    graph, labels, tmp = fixture_files
    (tmp / "g.soft").write_text(TRIANGLE_SOFT)
    g, hard_labels, soft_labels = _soft_triangle()
    spec = FilterSpec("sgc", 2)
    out = tmp / "analyze.json"
    assert run(["analyze", "--graph", graph, "--labels", labels,
                "--soft-labels", tmp / "g.soft", "--output", out]) == 0
    doc = json.loads(out.read_text())
    doc.pop("filter")
    want = compatibility(g, spec, soft_labels)
    assert json.dumps(doc) == json.dumps(want.to_json_dict())
    assert want.C != compatibility(g, spec, hard_labels).C
    for mode in ("exact", "incremental"):
        out = tmp / f"{mode}.tsv"
        assert run(["score", "--graph", graph, "--labels", labels, "--mode", mode,
                    "--soft-labels", tmp / "g.soft", "--output", out]) == 0
        want = score_all_edges(g, spec, soft_labels, mode=mode)
        assert out.read_text() == want.to_tsv()
        assert out.read_text() != score_all_edges(g, spec, hard_labels, mode=mode).to_tsv()
