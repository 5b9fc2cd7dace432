"""Workload table shared by the runner, the traced run and the checks.

Standard library only: the runner imports this module and must stay free of
numpy and topoinf so that the peak RSS of the commands it launches is their
own (on Linux a forked child inherits its parent's RSS high-water mark).

Every workload runs one `topoinf` subcommand on the same seeded cora-like
input (graph, labels and a target file), so the graph and I/O cost is shared
and only the exercised layer changes:

* cora-dropedge: sgc K=2 scoring takes the localized `_propagate` path; the
  sequential sampler and ten edge-list writes carry the rest.
* cora-appnp10: appnp K=10 spans cover almost every node, so every edge takes
  `_propagate_full`, the target of the batched delta engine.
* cora-greedy: greedy rewiring with lambda > 0 over a target set rebuilds the
  workspace, rescores every edge and recomputes C once per removal.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("cora-dropedge", "cora-appnp10", "cora-greedy")

# input files written by make_inputs.py, relative to the inputs directory
GRAPH, LABELS, TARGET, META = "graph.edges", "graph.labels", "target.txt", "inputs.json"

DROPEDGE = {"tau": 0.75, "lam": 0.0, "drop_rate": 0.5, "epochs": 10}
APPNP = {"k": 10, "alpha": 0.1}
# the smoke graph has ~200 edges; its greedy ratio keeps a budget of 2 removals
GREEDY = {"lam": 0.1, "ratio": 0.001, "smoke_ratio": 0.01}


def greedy_ratio(smoke: bool) -> float:
    return GREEDY["smoke_ratio"] if smoke else GREEDY["ratio"]


def command_args(workload: str, inputs: Path, out: Path, seed: int,
                 smoke: bool = False) -> list[str]:
    """`topoinf` argv (without the program name) writing into directory `out`."""
    io = ["--graph", str(inputs / GRAPH), "--labels", str(inputs / LABELS)]
    if workload == "cora-dropedge":
        d = DROPEDGE
        return ["dropedge", *io, "--model", "sgc", "--k", "2",
                "--tau", str(d["tau"]), "--lambda", str(d["lam"]),
                "--drop-rate", str(d["drop_rate"]), "--emit-epochs", str(d["epochs"]),
                "--seed", str(seed), "--output-prefix", str(out / "de")]
    if workload == "cora-appnp10":
        return ["score", *io, "--model", "appnp", "--k", str(APPNP["k"]),
                "--alpha", str(APPNP["alpha"]), "--output", str(out / "scores.tsv")]
    if workload == "cora-greedy":
        return ["rewire", *io, "--target", str(inputs / TARGET), "--model", "sgc",
                "--k", "2", "--strategy", "topoinf", "--greedy",
                "--lambda", str(GREEDY["lam"]), "--ratio", str(greedy_ratio(smoke)),
                "--output", str(out / "rewired.edges")]
    raise ValueError(f"unknown workload {workload!r}")


def data_outputs(out: Path) -> list[Path]:
    """Data files a command wrote, sorted; manifests carry a timestamp and are skipped."""
    return sorted(p for p in out.iterdir()
                  if p.is_file() and not p.name.endswith(".manifest.json"))
