import json

import numpy as np
import pytest

from topoinf.cli import main
from topoinf.graphs import MAX_NODES

TRIANGLE = "# nodes=3\n0 1\n0 2\n1 2\n"
TRIANGLE_LABELS = "# classes=2\n0 0\n1 0\n2 1\n"


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


class TestLambdaRequiredForRewiring:
    def test_rewire_topoinf_needs_lambda(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        code = run(["rewire", "--graph", graph, "--labels", labels,
                    "--strategy", "topoinf", "--ratio", "0.3",
                    "--output", tmp_path / "x.edges"])
        assert code == 2

    def test_dropedge_needs_lambda(self, fixture_files, tmp_path):
        graph, labels, _ = fixture_files
        code = run(["dropedge", "--graph", graph, "--labels", labels,
                    "--tau", "1.0", "--output-prefix", tmp_path / "d"])
        assert code == 2

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
SOFT = ["analyze", "--soft-labels", "{tmp}/g.input", "--soft", "--output", "{tmp}/out.json"]


@pytest.mark.parametrize("graph_text, input_text, argv, name", [
    pytest.param(TRIANGLE, "1 0\nnan 1\n1 1\n", PSEUDO, "--features", id="nan-feature"),
    pytest.param(TRIANGLE, "1 0\n0 1\n1 inf\n", PSEUDO, "--features", id="inf-feature"),
    pytest.param(TRIANGLE, FEATURES, PSEUDO + ["--lr", "1e6"], "--lr", id="diverging-lr",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param(f"# nodes={MAX_NODES + 1}\n0 1\n", FEATURES, SCORE, "nodes=",
                 id="oversized-header"),
    pytest.param(f"0 {MAX_NODES}\n", FEATURES, SCORE, "nodes=", id="oversized-node-id"),
    pytest.param(TRIANGLE, "0 1 0\n1 1.5 -0.5\n2 0 1\n", SOFT, "--soft-labels",
                 id="negative-soft-label"),
    pytest.param(TRIANGLE, "0 1 0\n1 1 0\n1 0 1\n2 0 1\n", SOFT, "--soft-labels",
                 id="duplicate-soft-label-node"),
    pytest.param(TRIANGLE, "0 1 0\n1 nan 1\n2 0 1\n", SOFT, "--soft-labels",
                 id="nan-soft-label"),
])
def test_input_failures_exit_two(tmp_path, capsys, graph_text, input_text, argv, name):
    """Each bad input exits 2 with a message naming it and writes nothing.

    `input_text` is the features or soft-label file the command reads. The
    oversized counts sit just above MAX_NODES, so the test never asks for
    more memory than a graph at the limit would need."""
    (tmp_path / "g.edges").write_text(graph_text)
    (tmp_path / "g.labels").write_text(TRIANGLE_LABELS)
    (tmp_path / "g.input").write_text(input_text)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = run([argv[0], "--graph", tmp_path / "g.edges", "--labels", tmp_path / "g.labels",
                *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
