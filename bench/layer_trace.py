"""Traced in-process run: per-layer spans, self times and counters.

    python3 bench/layer_trace.py --workload W --seed N --work DIR --spans FILE [--smoke]

Makes the seeded inputs in-process, then runs the workload's command twice
through `topoinf.cli.main`: once untraced and once with the public functions
of each module wrapped from here. A wrapper replaces the name in every loaded
module that imported it (e.g. `topoinf.cli.score_all_edges`,
`topoinf.compat.normalized_adjacency`) and methods on their class
(`DeltaWorkspace.score`), and records a span (name, start, end, parent,
iteration). Spans stay in memory and are written to FILE when the run ends.
The traced minus the untraced wall time is the tracing overhead. Prints one
JSON line: per-layer metrics plus the output directories of both passes.
"""

from __future__ import annotations

import argparse
from array import array
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import topoinf.cli
from topoinf import compat, csbm, filters, graphs, influence, rewire

import make_inputs
from workloads import command_args

# (span name, owner, attribute): owner is a module, whose name is patched in
# every loaded module holding the same object, or a class, patched in place
TRACED = [
    ("graphs.load_edge_list", graphs, "load_edge_list"),
    ("graphs.load_labels", graphs, "load_labels"),
    ("graphs.from_edges", graphs.Graph, "from_edges"),
    ("graphs.remove_edge", graphs.Graph, "remove_edge"),
    ("graphs.normalized_adjacency", graphs, "normalized_adjacency"),
    ("graphs.write_edge_list", graphs, "write_edge_list"),
    ("graphs.write_labels", graphs, "write_labels"),
    ("filters.apply_filter", filters, "apply_filter"),
    ("compat.compatibility", compat, "compatibility"),
    ("influence.build", influence.DeltaWorkspace, "build"),
    ("influence.score", influence.DeltaWorkspace, "score"),
    ("influence.score_all_edges", influence, "score_all_edges"),
    ("influence.greedy_refine", influence, "greedy_refine"),
    ("rewire.dropedge_weights", rewire, "dropedge_weights"),
    ("rewire.sample_dropedge", rewire, "sample_dropedge"),
    ("csbm.generate_csbm", csbm, "generate_csbm"),
]


class Tracer:
    """Span recorder.

    Spans live in flat arrays (name id, start, end, parent index, iteration
    id), which the garbage collector does not scan, so tens of thousands of
    spans add no collection work to the traced program.
    """

    def __init__(self):
        self.names: list[str] = []
        self.iterations: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iteration_id = array("i")
        self._stack: list[int] = []
        self._restore: list = []

    def set_iteration(self, label: str):
        self.iterations.append(label)

    def wrap(self, name, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        ids, starts, ends, parents, its = (self.name_id, self.start, self.end,
                                           self.parent, self.iteration_id)
        stack, iterations, clock = self._stack, self.iterations, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            its.append(len(iterations) - 1)
            stack.append(idx)
            starts.append(clock())
            ends.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        for name, owner, attr in TRACED:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self.wrap(name, orig.__func__))
                else:
                    new = self.wrap(name, orig)
                self._patch(owner, attr, orig, new)
                continue
            orig = getattr(owner, attr)
            new = self.wrap(name, orig)
            for mod in list(sys.modules.values()):
                # read the module dict: getattr could run a lazy-import hook
                if getattr(mod, "__dict__", {}).get(attr) is orig:
                    self._patch(mod, attr, orig, new)

    def _patch(self, holder, attr, orig, new):
        setattr(holder, attr, new)
        self._restore.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def spans(self) -> list[tuple]:
        """(name, start, end, parent index, iteration) per span, in call order."""
        return [(self.names[n], s, e, p, self.iterations[i]) for n, s, e, p, i in
                zip(self.name_id, self.start, self.end, self.parent, self.iteration_id)]

    def write(self, path: Path, origin: float):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, it in self.spans():
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "iteration": it}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nearest_rank(sorted_vals, q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def layer_metrics(spans, iteration: str) -> dict[str, float]:
    """Per-layer totals, counts and self times of one iteration's spans."""
    selfs = self_times(spans)
    total, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
    durations = defaultdict(list)
    for (name, start, end, _, it), own in zip(spans, selfs):
        if it != iteration:
            continue
        total[name] += end - start
        calls[name] += 1
        self_s[name] += own
        durations[name].append(end - start)
    score_us = sorted(1e6 * d for d in durations["influence.score"]) or [0.0]
    removals = calls["graphs.remove_edge"]
    return {
        "graphs.load_s": total["graphs.load_edge_list"] + total["graphs.load_labels"],
        "graphs.write_s": total["graphs.write_edge_list"] + total["graphs.write_labels"],
        "graphs.write_calls": calls["graphs.write_edge_list"] + calls["graphs.write_labels"],
        "graphs.from_edges_s": total["graphs.from_edges"],
        "graphs.remove_edge_calls": removals,
        "graphs.normalized_adjacency_s": total["graphs.normalized_adjacency"],
        "graphs.normalized_adjacency_calls": calls["graphs.normalized_adjacency"],
        "filters.apply_filter_s": total["filters.apply_filter"],
        "filters.apply_filter_calls": calls["filters.apply_filter"],
        "compat.compatibility_s": total["compat.compatibility"],
        "compat.compatibility_calls": calls["compat.compatibility"],
        "influence.build_s": total["influence.build"],
        "influence.build_calls": calls["influence.build"],
        "influence.score_calls": calls["influence.score"],
        "influence.score_s": total["influence.score"],
        "influence.score_us.p50": statistics.median(score_us),
        "influence.score_us.p99": nearest_rank(score_us, 0.99),
        "influence.score_all_self_s": self_s["influence.score_all_edges"],
        "influence.greedy_s_per_removal":
            total["influence.greedy_refine"] / removals if removals else 0.0,
        "rewire.weights_s": total["rewire.dropedge_weights"],
        "rewire.sample_s": total["rewire.sample_dropedge"],
        "rewire.sample_calls": calls["rewire.sample_dropedge"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "csbm.generate_s": total["csbm.generate_csbm"],
    }


def run_trace(workload: str, seed: int, work: Path, spans_file: Path,
              smoke: bool = False) -> dict:
    inputs, plain, traced = work / "inputs", work / "untraced", work / "traced"
    for d in (plain, traced):
        d.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    origin = time.perf_counter()
    tracer.set_iteration("setup")
    tracer.install()
    try:
        make_inputs.make_inputs(seed, inputs, smoke)
    finally:
        tracer.uninstall()

    t0 = time.perf_counter()
    code_plain = topoinf.cli.main(command_args(workload, inputs, plain, seed, smoke))
    untraced_s = time.perf_counter() - t0

    main = tracer.wrap("cli.main", topoinf.cli.main)
    tracer.set_iteration("command")
    tracer.install()
    try:
        t0 = time.perf_counter()
        code_traced = main(command_args(workload, inputs, traced, seed, smoke))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write(spans_file, origin)

    spans = tracer.spans()
    metrics = layer_metrics(spans, "command")
    metrics["csbm.generate_s"] = layer_metrics(spans, "setup")["csbm.generate_s"]
    metrics["trace.coverage_pct"] = 100.0 * metrics["cli.main_s"] / traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {"metrics": metrics, "untraced_s": untraced_s, "traced_s": traced_s,
            "exit_codes": [code_plain, code_traced], "spans": len(spans),
            "outputs": [str(plain), str(traced)], "inputs": str(inputs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(run_trace(args.workload, args.seed, Path(args.work),
                               Path(args.spans), args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
