"""Output checks for each workload, run outside the timed region.

    python3 bench/checks.py --workload W --inputs DIR --out DIR --seed N [--smoke]

Prints {"failures": [...]} as one JSON line; an empty list means the outputs
in DIR are correct. Scores are re-derived with the full-recompute oracle
(`topoinf_oracle`) or with `compatibility()`, never with the incremental code
under test. Written values carry 12 significant digits, so every comparison
allows 1e-10 plus the rounding of each printed number it reads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from topoinf.compat import compatibility
from topoinf.filters import FilterSpec
from topoinf.graphs import load_edge_list, load_labels
from topoinf.influence import topoinf_oracle

from workloads import APPNP, DROPEDGE, GRAPH, GREEDY, LABELS, TARGET, greedy_ratio

TOL = 1e-10
ORACLE_SAMPLE = 24      # edges re-scored per run


def printed_error(x: float) -> float:
    """Largest error of `x` written with 12 significant digits."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def _value(text: str) -> float:
    return -math.inf if text == "-inf" else float(text)


def _tsv_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: bad header {lines[:1]}")
    return [ln.split("\t") for ln in lines[1:]]


def _edge_rows(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """Declared node count and raw (u, v) rows, duplicates kept."""
    lines = path.read_text().splitlines()
    n = load_edge_list("\n".join(lines)).n
    rows = [tuple(int(x) for x in ln.split()) for ln in lines if not ln.startswith("#")]
    return n, rows


def _edge_set(g) -> set[tuple[int, int]]:
    return set(map(tuple, g.edges.tolist()))


def _load(inputs: Path):
    g = load_edge_list((inputs / GRAPH).read_text())
    labels = load_labels((inputs / LABELS).read_text(), g.n)
    return g, labels


def oracle_sample(m: int, seed: int) -> np.ndarray:
    """Sorted ids of the edges re-scored with the oracle."""
    rng = np.random.default_rng([seed, 2])
    return np.sort(rng.choice(m, size=min(ORACLE_SAMPLE, m), replace=False))


def _oracle_check(g, labels, spec, lam, seed, target, values: dict, failures: list):
    """Re-score the sampled edges and compare with the written values."""
    for e in oracle_sample(g.edge_count, seed):
        u, v = (int(x) for x in g.edges[e])
        want = topoinf_oracle(g, spec, labels, target, lam, int(e)).value
        got = values[(u, v)]
        if math.isinf(want) or math.isinf(got):
            ok = want == got
        else:
            ok = abs(got - want) <= TOL + printed_error(got)
        if not ok:
            failures.append(f"edge ({u}, {v}): written {got!r}, oracle {want!r}")


def check_dropedge(inputs: Path, out: Path, seed: int, smoke: bool) -> list[str]:
    g, labels = _load(inputs)
    m = g.edge_count
    failures = []
    rows = _tsv_rows(out / "de.dist.tsv", "u\tv\ttopoinf\tprobability")
    edges = [(int(r[0]), int(r[1])) for r in rows]
    if edges != [tuple(x) for x in g.edges.tolist()]:
        failures.append("dist.tsv rows are not the input edges in edge order")
        return failures
    values = {e: _value(r[2]) for e, r in zip(edges, rows)}
    probs = np.array([float(r[3]) for r in rows])
    if np.any(probs < 0) or abs(math.fsum(probs) - 1.0) > 1e-9:
        failures.append(f"probabilities do not form a distribution (sum {math.fsum(probs)!r})")
    if any(p != 0.0 for e, p in zip(edges, probs) if math.isinf(values[e])):
        failures.append("an excluded edge has nonzero probability")
    _oracle_check(g, labels, FilterSpec("sgc", 2), DROPEDGE["lam"], seed, None,
                  values, failures)

    original = _edge_set(g)
    want_kept = m - int(DROPEDGE["drop_rate"] * m)
    epochs = sorted(out.glob("de.epoch*.edges"))
    if len(epochs) != DROPEDGE["epochs"]:
        failures.append(f"{len(epochs)} epoch files, expected {DROPEDGE['epochs']}")
    for path in epochs:
        n, kept = _edge_rows(path)
        if n != g.n or len(kept) != want_kept or len(set(kept)) != len(kept) \
                or not set(kept) <= original:
            failures.append(f"{path.name}: does not drop exactly {m - want_kept} "
                            "distinct input edges")
    return failures


def check_score(inputs: Path, out: Path, seed: int, smoke: bool) -> list[str]:
    g, labels = _load(inputs)
    failures = []
    rows = _tsv_rows(out / "scores.tsv", "edge_u\tedge_v\ttopoinf\tsign\taffected_nodes")
    values = {(int(r[0]), int(r[1])): _value(r[2]) for r in rows}
    if len(rows) != g.edge_count or set(values) != _edge_set(g):
        failures.append("scores.tsv does not list every input edge once")
        return failures
    column = [_value(r[2]) for r in rows]
    if any(b > a for a, b in zip(column, column[1:])):
        failures.append("scores.tsv values increase down the file")
    _oracle_check(g, labels, FilterSpec("appnp", APPNP["k"], alpha=APPNP["alpha"]),
                  0.0, seed, None, values, failures)
    return failures


def check_greedy(inputs: Path, out: Path, seed: int, smoke: bool) -> list[str]:
    g, labels = _load(inputs)
    target = np.array([int(x) for x in (inputs / TARGET).read_text().split()])
    spec, lam = FilterSpec("sgc", 2), GREEDY["lam"]
    failures = []
    rows = _tsv_rows(out / "rewired.edges.trace.tsv", "u\tv\tscore\tc_after")
    want_rows = int(greedy_ratio(smoke) * g.edge_count)
    if len(rows) != want_rows:
        failures.append(f"trace has {len(rows)} rows, expected {want_rows}")

    prev = compatibility(g, spec, labels, target, lam).C
    prev_err = 0.0
    if not math.isfinite(prev):
        failures.append(f"input compatibility is {prev!r}")
    for k, r in enumerate(rows):
        score, c_after = float(r[2]), float(r[3])
        if not (math.isfinite(score) and math.isfinite(c_after) and score > 0):
            failures.append(f"step {k}: score {score!r}, c_after {c_after!r}")
        elif abs(c_after - (prev + score)) > \
                TOL + prev_err + printed_error(score) + printed_error(c_after):
            failures.append(f"step {k}: c_after {c_after!r} != previous C {prev!r} "
                            f"+ score {score!r}")
        prev, prev_err = c_after, printed_error(c_after)

    removed = [(min(int(r[0]), int(r[1])), max(int(r[0]), int(r[1]))) for r in rows]
    n, kept = _edge_rows(out / "rewired.edges")
    original = _edge_set(g)
    if n != g.n or len(set(removed)) != len(removed) or not set(removed) <= original \
            or len(kept) != len(set(kept)) or set(kept) != original - set(removed):
        failures.append("written graph is not the input minus the trace edges")
        return failures
    written = load_edge_list((out / "rewired.edges").read_text())
    final = compatibility(written, spec, labels, target, lam).C
    if rows and not abs(final - prev) <= TOL + prev_err:
        failures.append(f"last c_after {prev!r} != C of the written graph {final!r}")
    return failures


CHECKS = {"cora-dropedge": check_dropedge, "cora-appnp10": check_score,
          "cora-greedy": check_greedy}


def check_outputs(workload: str, inputs: Path, out: Path, seed: int,
                  smoke: bool = False) -> list[str]:
    """Failure messages for one command's outputs; empty when all checks pass."""
    try:
        return CHECKS[workload](inputs, out, seed, smoke)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(CHECKS), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    failures = check_outputs(args.workload, Path(args.inputs), Path(args.out),
                             args.seed, args.smoke)
    print(json.dumps({"failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
