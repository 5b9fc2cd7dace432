"""Command-line frontend.

Subcommands: analyze, score, rewire, dropedge, gen-csbm, pseudo, verify.
Exit codes: 0 success, 1 internal error, 2 input validation. Every run
computes its outputs fully before writing any file, so no partial artifacts
are left behind. Data outputs are deterministic for a fixed seed; the run
manifest (which carries a wall-clock timestamp) goes to a `.manifest.json`
sidecar, or to stderr when the primary output goes to stdout.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compat import compatibility
from .csbm import CsbmParams, cora_like_params, generate_csbm, write_features
from .filters import PRESETS, FilterSpec
from .graphs import (
    GraphFormatError,
    LabelData,
    load_edge_list,
    load_labels,
    node_set,
    write_edge_list,
    write_labels,
)
from .influence import greedy_refine, score_all_edges
from .pseudo import (
    TrainConfig,
    TrainingDiverged,
    load_soft_tsv,
    predict_pseudo,
    train_linear_sgc,
)
from .rewire import (
    RemovalPlan,
    adaedge_partition,
    check_drop_fraction,
    check_tau,
    dropedge_weights,
    epoch_seed,
    remove_by_topoinf,
    remove_random,
    sample_dropedge,
)
from .verify import run_all_suites, run_gradient_suite, run_oracle_suite, run_theorem2_suite


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _filter_spec(args) -> FilterSpec:
    gamma = None
    if args.gamma:
        gamma = tuple(float(x) for x in args.gamma.split(","))
    return FilterSpec(args.model, args.k, alpha=args.alpha, gamma=gamma)


def _add_filter_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=PRESETS, default="sgc")
    p.add_argument("--k", type=int, default=2, help="filter order K")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--gamma", default=None,
                   help="comma-separated K+1 coefficients (gprgnn/custom)")


def _load_graph_labels(args):
    if getattr(args, "soft", False) and not getattr(args, "soft_labels", None):
        raise ValueError("--soft requires --soft-labels")
    graph_path = Path(args.graph)
    g = load_edge_list(graph_path.read_text())
    labels = None
    label_path = None
    if getattr(args, "labels", None):
        label_path = Path(args.labels)
        labels = load_labels(label_path.read_text(), g.n)
        if getattr(args, "soft_labels", None):
            text = Path(args.soft_labels).read_text()
            try:
                soft = load_soft_tsv(text, g.n, labels.c)
                labels = LabelData(labels.c, labels.labels, mask=labels.mask, soft=soft)
            except ValueError as exc:
                raise ValueError(f"--soft-labels {args.soft_labels}: {exc}") from None
    return g, labels, graph_path, label_path


def _load_target(args, n):
    if not getattr(args, "target", None):
        return None
    ids = []
    for ln, raw in enumerate(Path(args.target).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids.append(int(line.split()[0]))
        except ValueError:
            raise GraphFormatError(f"target file line {ln}: not a node id") from None
    return node_set(ids, n)


def _manifest(args, command: str, inputs: dict, seed=None) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("handler",) and v is not None}
    return {
        "command": command,
        "flags": flags,
        "inputs": {name: _sha256(Path(p)) for name, p in inputs.items() if p},
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(outputs: dict, manifest: dict, manifest_base: str | None,
          stdout_text: str | None = None):
    """Write all outputs at once (everything is already computed)."""
    for path, text in outputs.items():
        Path(path).write_text(text)
    if stdout_text is not None:
        sys.stdout.write(stdout_text)
        sys.stderr.write(json.dumps(manifest) + "\n")
    elif manifest_base is not None:
        Path(manifest_base + ".manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    g, labels, gp, lp = _load_graph_labels(args)
    target = _load_target(args, g.n)
    spec = _filter_spec(args)
    report = compatibility(g, spec, labels, target, args.lam,
                           soft_influence=bool(args.soft_labels) and args.soft)
    doc = report.to_json_dict()
    doc["filter"] = {"model": spec.preset, "k": spec.k, "alpha": spec.alpha,
                     "gamma": list(spec.gamma) if spec.gamma else None}
    text = json.dumps(doc, indent=2) + "\n"
    manifest = _manifest(args, "analyze",
                         {"graph": gp, "labels": lp, "target": args.target})
    if args.output:
        _emit({args.output: text}, manifest, args.output)
    else:
        _emit({}, manifest, None, stdout_text=text)
    return 0


# ---------------------------------------------------------------- score


def _target_hash(target, n) -> str:
    arr = np.arange(n, dtype=np.int64) if target is None else target
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def cmd_score(args) -> int:
    g, labels, gp, lp = _load_graph_labels(args)
    target = _load_target(args, g.n)
    spec = _filter_spec(args)
    report = score_all_edges(g, spec, labels, target, args.lam,
                             mode=args.mode,
                             soft_influence=bool(args.soft_labels) and args.soft)
    tsv = report.to_tsv()
    manifest = _manifest(args, "score",
                         {"graph": gp, "labels": lp, "target": args.target},
                         seed=args.seed)
    outputs = {}
    if args.json:
        doc = {
            "metadata": {
                "model": spec.preset, "k": spec.k, "alpha": spec.alpha,
                "gamma": list(spec.gamma) if spec.gamma else None,
                "lambda": args.lam, "mode": args.mode,
                "target_hash": _target_hash(target, g.n), "seed": args.seed,
            },
            "scores": [
                {"u": s.u, "v": s.v,
                 "topoinf": "-inf" if math.isinf(s.value) else float(_fmt(s.value)),
                 "sign": s.sign, "affected_nodes": s.affected_nodes}
                for s in report.ranked()
            ],
        }
        outputs[args.json] = json.dumps(doc, indent=2) + "\n"
    if args.output:
        outputs[args.output] = tsv
        _emit(outputs, manifest, args.output)
    else:
        _emit(outputs, manifest, args.json if args.json else None, stdout_text=tsv)
    return 0


# ---------------------------------------------------------------- rewire


def cmd_rewire(args) -> int:
    g, labels, gp, lp = _load_graph_labels(args)
    target = _load_target(args, g.n)
    spec = _filter_spec(args)
    if args.strategy in ("topoinf", "adaedge") and labels is None:
        raise ValueError(f"--strategy {args.strategy} requires --labels")
    if args.strategy == "topoinf" and args.lam is None:
        raise ValueError("--lambda is required for score-based rewiring")
    if args.lam is None:
        args.lam = 0.0
    trace_rows = []

    if args.greedy:
        if args.strategy != "topoinf":
            raise ValueError("--greedy applies only to --strategy topoinf")
        budget = int(args.ratio * g.edge_count)
        new_graph, trace = greedy_refine(g, spec, labels, target, args.lam,
                                         max_removals=budget,
                                         rescore_every=args.rescore_every)
        trace_rows = [(s.u, s.v, _fmt(s.score), _fmt(s.c_after)) for s in trace]
    else:
        if args.strategy == "random":
            removed = remove_random(g, args.ratio, args.seed)
            trace_rows = [(int(g.edges[e, 0]), int(g.edges[e, 1]), "", "") for e in removed]
        elif args.strategy == "adaedge":
            if labels is None:
                raise ValueError("--strategy adaedge requires --labels")
            # different-label edges form the positive set (their removal helps)
            part = adaedge_partition(g, labels)
            pool = part.diff_label if args.set == "positive" else part.same_label
            count = min(int(args.ratio * g.edge_count), pool.size)
            rng = np.random.default_rng(args.seed)
            removed = np.sort(rng.choice(pool, size=count, replace=False)) if count else \
                np.empty(0, dtype=np.int64)
            trace_rows = [(int(g.edges[e, 0]), int(g.edges[e, 1]), "", "") for e in removed]
        else:
            report = score_all_edges(g, spec, labels, target, args.lam)
            plan = RemovalPlan(strategy="topoinf", ratio=args.ratio,
                               seed=args.seed, set=args.set)
            removed = remove_by_topoinf(report, plan)
            trace_rows = [(report.scores[e].u, report.scores[e].v,
                           _fmt(report.scores[e].value), "") for e in removed]
        keep = np.setdiff1d(np.arange(g.edge_count, dtype=np.int64), removed)
        new_graph = type(g).from_edges(g.n, g.edges[keep])

    edge_text = write_edge_list(new_graph)
    trace_text = "u\tv\tscore\tc_after\n" + \
        "".join(f"{u}\t{v}\t{s}\t{c}\n" for u, v, s, c in trace_rows)
    manifest = _manifest(args, "rewire",
                         {"graph": gp, "labels": lp, "target": args.target},
                         seed=args.seed)
    outputs = {args.output: edge_text,
               (args.trace or args.output + ".trace.tsv"): trace_text}
    _emit(outputs, manifest, args.output)
    return 0


# ---------------------------------------------------------------- dropedge


def cmd_dropedge(args) -> int:
    if args.lam is None:
        raise ValueError("--lambda is required for score-based rewiring")
    check_tau(args.tau)
    check_drop_fraction(args.drop_rate)
    g, labels, gp, lp = _load_graph_labels(args)
    target = _load_target(args, g.n)
    spec = _filter_spec(args)
    report = score_all_edges(g, spec, labels, target, args.lam)
    dist = dropedge_weights(report, args.tau)

    dist_lines = ["u\tv\ttopoinf\tprobability"]
    for row, val, prob in zip(dist.edges, dist.values, dist.probabilities):
        v_txt = "-inf" if math.isinf(val) else _fmt(val)
        dist_lines.append(f"{int(row[0])}\t{int(row[1])}\t{v_txt}\t{_fmt(prob)}")
    outputs = {args.output_prefix + ".dist.tsv": "\n".join(dist_lines) + "\n"}

    for epoch in range(args.emit_epochs):
        dropped = sample_dropedge(dist, args.drop_rate, epoch_seed(args.seed, epoch))
        keep = np.setdiff1d(np.arange(g.edge_count, dtype=np.int64), dropped)
        epoch_graph = type(g).from_edges(g.n, g.edges[keep])
        outputs[f"{args.output_prefix}.epoch{epoch:04d}.edges"] = write_edge_list(epoch_graph)

    manifest = _manifest(args, "dropedge",
                         {"graph": gp, "labels": lp, "target": args.target},
                         seed=args.seed)
    _emit(outputs, manifest, args.output_prefix)
    return 0


# ---------------------------------------------------------------- gen-csbm


def cmd_gen_csbm(args) -> int:
    if args.preset == "cora-like":
        mix = tuple(float(x) for x in args.mix.split(","))
        if len(mix) != 2:
            raise ValueError("--mix must be 'intra,inter'")
        params = cora_like_params(mix=mix, sigma=args.sigma, seed=args.seed)
    else:
        for name in ("n", "classes", "p", "q", "dim"):
            if getattr(args, name) is None:
                raise ValueError(f"--{name} is required without --preset")
        params = CsbmParams(n=args.n, c=args.classes, p=args.p, q=args.q,
                            d=args.dim, sigma=args.sigma,
                            mu_scheme=args.mu_scheme, mu_scale=args.mu_scale,
                            seed=args.seed)
    sample = generate_csbm(params)
    dataset_manifest = {
        "params": params.to_dict(),
        "nodes": sample.graph.n,
        "edges": sample.graph.edge_count,
        "version": __version__,
    }
    outputs = {
        args.output_prefix + ".edges": write_edge_list(sample.graph),
        args.output_prefix + ".labels": write_labels(sample.labels),
        args.output_prefix + ".features": write_features(sample.X),
        args.output_prefix + ".json": json.dumps(dataset_manifest, indent=2) + "\n",
    }
    manifest = _manifest(args, "gen-csbm", {}, seed=args.seed)
    _emit(outputs, manifest, args.output_prefix)
    return 0


# ---------------------------------------------------------------- pseudo


def cmd_pseudo(args) -> int:
    g, labels, gp, lp = _load_graph_labels(args)
    if labels is None:
        raise ValueError("--labels is required")
    features = np.loadtxt(args.features, ndmin=2)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"--features {args.features}: row {bad[0]} (node {bad[0]}) "
                         "holds NaN or inf")
    if features.shape[0] != g.n:
        raise ValueError(f"feature file has {features.shape[0]} rows, graph has {g.n} nodes")
    spec = _filter_spec(args)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                      l2_penalty=args.l2, seed=args.seed)
    try:
        model = train_linear_sgc(g, spec, features, labels, cfg)
    except TrainingDiverged as exc:
        raise ValueError(f"--lr {args.lr}: {exc}") from None
    pseudo = predict_pseudo(model, g, spec, features, labels)
    outputs = {
        args.output_prefix + ".labels": pseudo.to_label_text(),
        args.output_prefix + ".soft.tsv": pseudo.to_soft_tsv(),
    }
    manifest = _manifest(args, "pseudo",
                         {"graph": gp, "labels": lp, "features": args.features},
                         seed=args.seed)
    manifest["final_loss"] = float(model.loss_trace[-1])
    _emit(outputs, manifest, args.output_prefix)
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    runners = {
        "oracle": lambda: [run_oracle_suite(quick=args.quick)],
        "theorem2": lambda: [run_theorem2_suite(quick=args.quick)],
        "gradients": lambda: [run_gradient_suite(quick=args.quick)],
        "all": lambda: run_all_suites(quick=args.quick),
    }
    results = runners[args.suite]()
    for res in results:
        print(res.report())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoinf",
        description="Score topology/task compatibility, rank edge influence, rewire graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    def common_io(p, labels_required=True, lam_required=False):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--labels", required=labels_required, help="label file")
        p.add_argument("--target", default=None, help="file of target node ids")
        # analysis commands default lambda to 0; rewiring commands must state it
        p.add_argument("--lambda", dest="lam", type=float,
                       default=None if lam_required else 0.0,
                       help="regularizer weight" + (" (required)" if lam_required else ""))
        p.add_argument("--soft-labels", default=None,
                       help="soft-label TSV (enables --soft mode)")
        p.add_argument("--soft", action="store_true",
                       help="use soft inner-product influence (extension, non-default)")
        _add_filter_flags(p)

    p = sub.add_parser("analyze", help="compatibility report (JSON)")
    common_io(p)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("score", help="per-edge influence scores (TSV/JSON)")
    common_io(p)
    p.add_argument("--mode", choices=("exact", "incremental"), default="incremental")
    p.add_argument("--output", default=None, help="TSV path (default stdout)")
    p.add_argument("--json", default=None, help="also write JSON with run metadata")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("rewire", help="remove edges by strategy; emit new edge list")
    common_io(p, labels_required=False, lam_required=True)
    p.add_argument("--strategy", choices=("topoinf", "random", "adaedge"), required=True)
    p.add_argument("--set", choices=("positive", "negative"), default="positive")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true",
                      help="sequential re-scored removal (topoinf only)")
    mode.add_argument("--batch", action="store_false", dest="greedy",
                      help="score once, remove the chosen subset (default)")
    p.add_argument("--rescore-every", type=int, default=1)
    p.add_argument("--output", required=True)
    p.add_argument("--trace", default=None, help="trace TSV (default <output>.trace.tsv)")
    p.set_defaults(handler=cmd_rewire)

    p = sub.add_parser("dropedge", help="influence-biased edge-dropping distribution")
    common_io(p, lam_required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--drop-rate", type=float, default=0.5)
    p.add_argument("--emit-epochs", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(handler=cmd_dropedge)

    p = sub.add_parser("gen-csbm", help="generate a block-model dataset")
    p.add_argument("--preset", choices=("cora-like",), default=None)
    p.add_argument("--mix", default="0.9,0.1", help="intra,inter mix for --preset")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--mu-scheme", choices=("orthogonal_scaled", "gaussian_random"),
                   default="orthogonal_scaled")
    p.add_argument("--mu-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(handler=cmd_gen_csbm)

    p = sub.add_parser("pseudo", help="train pseudo labels from features")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True)
    _add_filter_flags(p)
    p.set_defaults(handler=cmd_pseudo)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", choices=("oracle", "theorem2", "gradients", "all"),
                   default="all")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (GraphFormatError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
