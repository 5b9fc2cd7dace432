"""Tests of the benchmark itself: smoke runs, output checks and failure counting.

Each workload's command runs on the 90-node smoke inputs; the checks must pass
on its outputs and fail once a single planted error is introduced.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import make_inputs  # noqa: E402
import run  # noqa: E402
from topoinf.cli import main as topoinf_main  # noqa: E402
from workloads import WORKLOADS, command_args  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Smoke inputs plus one output directory per workload."""
    root = tmp_path_factory.mktemp("bench")
    inputs = root / "inputs"
    make_inputs.make_inputs(SEED, inputs, smoke=True)
    outs = {}
    for workload in WORKLOADS:
        out = root / workload
        out.mkdir()
        assert topoinf_main(command_args(workload, inputs, out, SEED, smoke=True)) == 0
        outs[workload] = out
    return inputs, outs


@pytest.fixture
def copy_of(outputs, tmp_path):
    """A writable copy of one workload's outputs."""
    inputs, outs = outputs

    def copy(workload):
        dst = tmp_path / workload
        shutil.copytree(outs[workload], dst)
        return inputs, dst

    return copy


def failures(workload, inputs, out):
    return checks.check_outputs(workload, inputs, out, SEED, smoke=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_outputs_pass(outputs, workload):
    inputs, outs = outputs
    assert failures(workload, inputs, outs[workload]) == []


def test_target_avoids_isolated_nodes(outputs):
    from topoinf.graphs import load_edge_list

    inputs, _ = outputs
    g = load_edge_list((inputs / "graph.edges").read_text())
    target = [int(x) for x in (inputs / "target.txt").read_text().split()]
    assert target and all(g.degree(v) > 0 for v in target)


def test_perturbed_score_fails(copy_of):
    inputs, out = copy_of("cora-dropedge")
    path = out / "de.dist.tsv"
    lines = path.read_text().splitlines()
    e = int(checks.oracle_sample(len(lines) - 1, SEED)[0])
    row = lines[1 + e].split("\t")
    row[2] = repr(float(row[2]) + 1e-8)
    lines[1 + e] = "\t".join(row)
    path.write_text("\n".join(lines) + "\n")
    found = failures("cora-dropedge", inputs, out)
    assert len(found) == 1 and "oracle" in found[0]


def test_unsorted_scores_fail(copy_of):
    inputs, out = copy_of("cora-appnp10")
    path = out / "scores.tsv"
    lines = path.read_text().splitlines()
    lines[1], lines[-1] = lines[-1], lines[1]
    path.write_text("\n".join(lines) + "\n")
    assert any("increase" in f for f in failures("cora-appnp10", inputs, out))


def test_dropped_greedy_edge_fails(copy_of):
    inputs, out = copy_of("cora-greedy")
    path = out / "rewired.edges"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")   # one more edge gone than traced
    assert failures("cora-greedy", inputs, out) == [
        "written graph is not the input minus the trace edges"]


def test_missing_greedy_step_fails(copy_of):
    inputs, out = copy_of("cora-greedy")
    path = out / "rewired.edges.trace.tsv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert any("trace has" in f for f in failures("cora-greedy", inputs, out))


def test_wrong_epoch_size_fails(copy_of):
    inputs, out = copy_of("cora-dropedge")
    path = out / "de.epoch0003.edges"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    found = failures("cora-dropedge", inputs, out)
    assert len(found) == 1 and found[0].startswith("de.epoch0003.edges: does not drop")


def test_printed_error_bounds_rounding():
    for x in (1234.56789012345, -3.3e-7, 0.1):
        assert abs(float(f"{x:.12g}") - x) <= checks.printed_error(x)
    assert checks.printed_error(0.0) == 0.0 and checks.printed_error(-math.inf) == 0.0


def test_failures_counted_in_error_rate():
    # a failed output check fails every command (they all wrote the same bytes)
    assert run.count_failed([0, 0, 0], ["a", "a", "a"], ["edge (1, 2): ..."]) == 3
    # a command that exits nonzero, or writes different bytes, fails alone
    assert run.count_failed([0, 2, 0], ["a", "", "a"], []) == 1
    assert run.count_failed([0, 0, 0], ["a", "b", "a"], []) == 1
    assert run.count_failed([1, 0], ["", "a"], []) == 1


def test_benchmark_json_matches_runner():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert doc["paths"] == ["bench"]


def _runner(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(trace):
    proc = _runner("--workload", "cora-greedy", "--seed", str(SEED), "--seconds", "0.1",
                   "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    if trace == "1":
        assert last["metrics"]["influence.build_calls"]["value"] == \
            last["metrics"]["compat.compatibility_calls"]["value"] > 0
        assert last["metrics"]["trace.coverage_pct"]["value"] >= 95.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _runner("--workload", "cora-greedy", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
