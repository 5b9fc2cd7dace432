"""Command-line frontend.

Subcommands: analyze, score, rewire, dropedge, gen-csbm, pseudo, verify.
Exit codes: 0 success, 1 internal error, 2 input validation. Every run
computes its outputs fully before writing any file, and writes all of them or
none, so no partial artifacts are left behind. Data outputs are deterministic
for a fixed seed; the run manifest (which carries a wall-clock timestamp) goes
to a `.manifest.json` sidecar, or to stderr when the primary output goes to
stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .compat import compatibility
from .csbm import (MAX_FEATURE_VALUES, MAX_SBM_NODES, CsbmParams, cora_like_params,
                   generate_csbm, write_features)
from .filters import MAX_ORDER, PRESETS, FilterSpec
from .graphs import (
    LabelData,
    load_edge_list,
    load_labels,
    load_target,
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
    write_soft_tsv,
)
from .rewire import (
    check_drop_fraction,
    check_tau,
    dropedge_weights,
    epoch_seed,
    remove_adaedge,
    remove_by_topoinf,
    remove_random,
    sample_dropedge,
)
from .verify import SUITES


# Most epoch files one `dropedge` run may emit. Every epoch's edge list is
# held until all outputs are computed, so the bound caps that memory at 1000
# edge lists; DropEdge training schedules run a few hundred epochs.
MAX_EPOCHS = 1000

# the argument names of the input files a run may read, in manifest order
INPUTS = ("graph", "labels", "soft_labels", "target", "features")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _floats(flag: str, text: str) -> tuple:
    """The comma-separated finite numbers given to `flag`."""
    try:
        values = tuple(float(x) for x in text.split(","))
        if all(math.isfinite(x) for x in values):
            return values
    except ValueError:
        pass
    raise ValueError(f"{flag} {text}: expected comma-separated finite numbers")


def _filter_spec(args) -> FilterSpec:
    if not 1 <= args.k <= MAX_ORDER:
        raise ValueError(f"--k {args.k}: the filter order must lie in [1, {MAX_ORDER}]")
    gamma = _floats("--gamma", args.gamma) if args.gamma else None
    return FilterSpec(args.model, args.k, alpha=args.alpha, gamma=gamma)


def _add_filter_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=PRESETS, default="sgc")
    p.add_argument("--k", type=int, default=2, help="filter order K")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--gamma", default=None,
                   help="comma-separated K+1 coefficients (gprgnn/custom)")


def _read(flag: str, path: str, parse, *args):
    """parse(text of the file at `path`, *args): the one place an input file
    is read and parsed. Any error doing so is raised as a ValueError that
    names the flag and the file."""
    try:
        return parse(Path(path).read_text(), *args)
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"{flag} {path}: {exc}") from None


def _with_soft(text: str, labels: LabelData) -> LabelData:
    return LabelData(labels.c, labels.labels, soft=load_soft_tsv(text, labels.n, labels.c))


def _features(text: str, n: int) -> np.ndarray:
    with warnings.catch_warnings():
        # an input without data rows fails below as "0 rows"
        warnings.simplefilter("ignore", UserWarning)
        features = np.loadtxt(text.splitlines(), ndmin=2)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} (node {bad[0]}) holds NaN or inf")
    if features.shape[0] != n:
        raise ValueError(f"{features.shape[0]} rows, graph has {n} nodes")
    return features


def _load_inputs(args):
    """The graph, labels and target node set of a run; None where the run
    names no such file."""
    g = _read("--graph", args.graph, load_edge_list)
    labels = target = None
    if getattr(args, "labels", None) is not None:
        labels = _read("--labels", args.labels, load_labels, g.n)
        if getattr(args, "soft_labels", None) is not None:
            labels = _read("--soft-labels", args.soft_labels, _with_soft, labels)
    if getattr(args, "target", None) is not None:
        target = _read("--target", args.target, load_target, g.n)
    return g, labels, target


def _manifest(args) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("handler",) and v is not None}
    return {
        "command": args.subcommand,
        "flags": flags,
        "inputs": {name: _sha256(Path(getattr(args, name))) for name in INPUTS
                   if getattr(args, name, None) is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(outputs: dict, manifest: dict, manifest_base: str | None,
          stdout_text: str | None = None):
    """Write every output, the manifest sidecar included, or none of them.

    Each file is first written next to its destination under a temporary
    name, and the files are moved into place only once all are written; a
    destination that is a directory fails before anything is written."""
    files = {Path(path): text for path, text in outputs.items()}
    if stdout_text is None and manifest_base is not None:
        files[Path(manifest_base + ".manifest.json")] = json.dumps(manifest, indent=2) + "\n"
    for path in files:
        if path.is_dir():
            raise ValueError(f"{path}: is a directory")
    staged = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    try:
        for path, tmp in staged.items():
            try:
                tmp.write_text(files[path])
            except OSError as exc:
                raise ValueError(f"{path}: cannot write: {exc.strerror}") from None
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
    if stdout_text is not None:
        sys.stdout.write(stdout_text)
        sys.stderr.write(json.dumps(manifest) + "\n")


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    g, labels, target = _load_inputs(args)
    spec = _filter_spec(args)
    report = compatibility(g, spec, labels, target, args.lam)
    doc = report.to_json_dict()
    doc["filter"] = {"model": spec.preset, "k": spec.k, "alpha": spec.alpha,
                     "gamma": list(spec.gamma) if spec.gamma else None}
    text = json.dumps(doc, indent=2) + "\n"
    manifest = _manifest(args)
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
    g, labels, target = _load_inputs(args)
    spec = _filter_spec(args)
    report = score_all_edges(g, spec, labels, target, args.lam, mode=args.mode)
    tsv = report.to_tsv()
    manifest = _manifest(args)
    outputs = {}
    if args.json:
        r = report.ranking
        doc = {
            "metadata": {
                "model": spec.preset, "k": spec.k, "alpha": spec.alpha,
                "gamma": list(spec.gamma) if spec.gamma else None,
                "lambda": args.lam, "mode": args.mode,
                "target_hash": _target_hash(target, g.n), "seed": args.seed,
            },
            "scores": [
                {"u": u, "v": v, "topoinf": "-inf" if math.isinf(x) else float(_fmt(x)),
                 "sign": s, "affected_nodes": a}
                for (u, v), x, s, a in zip(
                    report.edges[r].tolist(), report.values[r].tolist(),
                    report.signs[r].tolist(), report.affected[r].tolist())
            ],
        }
        outputs[args.json] = json.dumps(doc, indent=2) + "\n"
    if args.output:
        outputs[args.output] = tsv
        _emit(outputs, manifest, args.output)
    else:
        _emit(outputs, manifest, None, stdout_text=tsv)
    return 0


# ---------------------------------------------------------------- rewire


def cmd_rewire(args) -> int:
    topoinf = args.strategy == "topoinf"
    if not 0 <= args.ratio <= 1:
        raise ValueError(f"--ratio {args.ratio}: must lie in [0, 1]")
    if args.greedy and not topoinf:
        raise ValueError("--greedy applies only to --strategy topoinf")
    if args.strategy != "random" and args.labels is None:
        raise ValueError(f"--strategy {args.strategy} requires --labels")
    if topoinf and args.lam is None:
        raise ValueError("--lambda is required for score-based rewiring")
    for flag, dest, read, readers in (
            ("--seed", "seed", not topoinf, "--strategy random and adaedge read"),
            ("--set", "set", args.strategy == "adaedge" or topoinf and not args.greedy,
             "--strategy adaedge and topoinf without --greedy read"),
            ("--rescore-every", "rescore_every", args.greedy, "--greedy reads"),
            *((flag, dest, topoinf, "--strategy topoinf reads") for flag, dest in
              (("--lambda", "lam"), ("--target", "target"), ("--model", "model"),
               ("--k", "k"), ("--alpha", "alpha"), ("--gamma", "gamma"))),
            ("--labels", "labels", args.strategy != "random",
             "--strategy topoinf and adaedge read")):
        if not read and getattr(args, dest) is not None:
            raise ValueError(f"{flag}: only {readers} it; drop the flag")
    # the manifest records the defaults of the flags a run omits
    for dest, default in (("seed", 0), ("set", "positive"), ("rescore_every", 1),
                          ("lam", 0.0), ("model", "sgc"), ("k", 2), ("alpha", 0.1)):
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    g, labels, target = _load_inputs(args)
    spec = _filter_spec(args)

    if args.greedy:
        budget = int(args.ratio * g.edge_count)
        new_graph, trace = greedy_refine(g, spec, labels, target, args.lam,
                                         max_removals=budget,
                                         rescore_every=args.rescore_every)
        trace_rows = [(s.u, s.v, _fmt(s.score), _fmt(s.c_after)) for s in trace]
        edge_text = write_edge_list(new_graph)
    else:
        if topoinf:
            report = score_all_edges(g, spec, labels, target, args.lam)
            removed = remove_by_topoinf(report, args.ratio, args.set)
            trace_rows = [(u, v, _fmt(x), "") for (u, v), x in
                          zip(report.edges[removed].tolist(), report.values[removed].tolist())]
        else:
            removed = remove_random(g, args.ratio, args.seed) if args.strategy == "random" \
                else remove_adaedge(g, labels, args.ratio, args.set, args.seed)
            trace_rows = [(int(g.edges[e, 0]), int(g.edges[e, 1]), "", "") for e in removed]
        keep = np.setdiff1d(np.arange(g.edge_count, dtype=np.int64), removed)
        edge_text = write_edge_list(g, keep)
    trace_text = "u\tv\tscore\tc_after\n" + \
        "".join(f"{u}\t{v}\t{s}\t{c}\n" for u, v, s, c in trace_rows)
    manifest = _manifest(args)
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
    if not 0 <= args.emit_epochs <= MAX_EPOCHS:
        raise ValueError(f"--emit-epochs {args.emit_epochs}: must lie in [0, {MAX_EPOCHS}]")
    g, labels, target = _load_inputs(args)
    spec = _filter_spec(args)
    report = score_all_edges(g, spec, labels, target, args.lam)
    probabilities = dropedge_weights(report.values, args.tau)

    dist_lines = ["u\tv\ttopoinf\tprobability"]
    for (u, v), x, prob in zip(report.edges.tolist(), report.values.tolist(),
                               probabilities.tolist()):
        dist_lines.append(f"{u}\t{v}\t{_fmt(x)}\t{_fmt(prob)}")
    outputs = {args.output_prefix + ".dist.tsv": "\n".join(dist_lines) + "\n"}

    for epoch in range(args.emit_epochs):
        dropped = sample_dropedge(probabilities, args.drop_rate, epoch_seed(args.seed, epoch))
        keep = np.setdiff1d(np.arange(g.edge_count, dtype=np.int64), dropped)
        outputs[f"{args.output_prefix}.epoch{epoch:04d}.edges"] = write_edge_list(g, keep)

    manifest = _manifest(args)
    _emit(outputs, manifest, args.output_prefix)
    return 0


# ---------------------------------------------------------------- gen-csbm


def cmd_gen_csbm(args) -> int:
    if args.preset is None and args.mix is not None:
        raise ValueError("--mix: only --preset reads it; drop the flag")
    # the manifest records the mix default as well
    if args.mix is None:
        args.mix = "0.9,0.1"
    if args.preset == "cora-like":
        for name in ("n", "classes", "p", "q", "dim", "mu_scheme", "mu_scale"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')}: --preset cora-like "
                                 "fixes it; drop the flag or the preset")
        mix = _floats("--mix", args.mix)
        if len(mix) != 2:
            raise ValueError("--mix must be 'intra,inter'")
        params = cora_like_params(mix=mix, sigma=args.sigma, seed=args.seed)
    else:
        for name in ("n", "classes", "p", "q", "dim"):
            if getattr(args, name) is None:
                raise ValueError(f"--{name} is required without --preset")
        if args.n > MAX_SBM_NODES:
            raise ValueError(f"--n {args.n}: at most {MAX_SBM_NODES} nodes")
        if args.n * args.dim > MAX_FEATURE_VALUES:
            raise ValueError(f"--dim {args.dim}: n * d = {args.n * args.dim} exceeds "
                             f"{MAX_FEATURE_VALUES} feature values")
        centers = {name: getattr(args, name) for name in ("mu_scheme", "mu_scale")
                   if getattr(args, name) is not None}
        params = CsbmParams(n=args.n, c=args.classes, p=args.p, q=args.q,
                            d=args.dim, sigma=args.sigma, seed=args.seed, **centers)
    # the manifest records the centers the run used
    args.mu_scheme, args.mu_scale = params.mu_scheme, params.mu_scale
    sample = generate_csbm(params)
    dataset_manifest = {
        "params": dataclasses.asdict(params),
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
    manifest = _manifest(args)
    _emit(outputs, manifest, args.output_prefix)
    return 0


# ---------------------------------------------------------------- pseudo


def cmd_pseudo(args) -> int:
    g, labels, _ = _load_inputs(args)
    features = _read("--features", args.features, _features, g.n)
    spec = _filter_spec(args)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                      l2_penalty=args.l2, seed=args.seed)
    try:
        model = train_linear_sgc(g, spec, features, labels, cfg)
    except TrainingDiverged as exc:
        raise ValueError(f"--lr {args.lr}: {exc}") from None
    pseudo = predict_pseudo(model, g, spec, features, labels)
    outputs = {
        args.output_prefix + ".labels": write_labels(pseudo),
        args.output_prefix + ".soft.tsv": write_soft_tsv(pseudo),
    }
    manifest = _manifest(args)
    manifest["final_loss"] = float(model.loss_trace[-1])
    _emit(outputs, manifest, args.output_prefix)
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else [args.suite]
    results = [SUITES[name](quick=args.quick) for name in names]
    for res in results:
        print(res.report())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoinf", allow_abbrev=False,
        description="Score topology/task compatibility, rank edge influence, rewire graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    def command(name, help):
        # no prefix matching, so a removed flag cannot parse as a kept one
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common_io(p, labels_required=True, lam_required=False, soft_labels=False):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--labels", required=labels_required, help="label file")
        p.add_argument("--target", default=None, help="file of target node ids")
        # analysis commands default lambda to 0; rewiring commands must state it
        p.add_argument("--lambda", dest="lam", type=float,
                       default=None if lam_required else 0.0,
                       help="regularizer weight" + (" (required by score-based rewiring)"
                                                  if lam_required else ""))
        if soft_labels:
            p.add_argument("--soft-labels", default=None, help="soft-label TSV: use "
                           "soft inner-product influence (extension, non-default)")
        _add_filter_flags(p)

    p = command("analyze", "compatibility report (JSON)")
    common_io(p, soft_labels=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_analyze)

    p = command("score", "per-edge influence scores (TSV/JSON)")
    common_io(p, soft_labels=True)
    p.add_argument("--mode", choices=("exact", "incremental"), default="incremental")
    p.add_argument("--output", default=None, help="TSV path (default stdout)")
    p.add_argument("--json", default=None, help="also write JSON with run metadata")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_score)

    p = command("rewire", "remove edges by strategy; emit new edge list")
    common_io(p, labels_required=False, lam_required=True)
    # topoinf only; cmd_rewire writes the defaults back for the manifest
    p.set_defaults(model=None, k=None, alpha=None)
    p.add_argument("--strategy", choices=("topoinf", "random", "adaedge"), required=True)
    p.add_argument("--set", choices=("positive", "negative"), default=None,
                   help="edge set to draw from (adaedge, batch topoinf); default positive")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help="random and adaedge; default 0")
    p.add_argument("--greedy", action="store_true",
                   help="sequential re-scored removal (topoinf only; default: score once)")
    p.add_argument("--rescore-every", type=int, default=None,
                   help="removals between rescorings (--greedy only); default 1")
    p.add_argument("--output", required=True)
    p.add_argument("--trace", default=None, help="trace TSV (default <output>.trace.tsv)")
    p.set_defaults(handler=cmd_rewire)

    p = command("dropedge", "influence-biased edge-dropping distribution")
    common_io(p, lam_required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--drop-rate", type=float, default=0.5)
    p.add_argument("--emit-epochs", type=int, default=0,
                   help=f"epoch files to sample, at most {MAX_EPOCHS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(handler=cmd_dropedge)

    p = command("gen-csbm", "generate a block-model dataset")
    p.add_argument("--preset", choices=("cora-like",), default=None)
    p.add_argument("--mix", default=None,
                   help="intra,inter mix (--preset only); default 0.9,0.1")
    p.add_argument("--n", type=int, default=None,
                   help=f"node count, at most {MAX_SBM_NODES}")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--dim", type=int, default=None,
                   help=f"feature dimension d, n * d at most {MAX_FEATURE_VALUES}")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--mu-scheme", choices=("orthogonal_scaled", "gaussian_random"),
                   default=None, help="default orthogonal_scaled")
    p.add_argument("--mu-scale", type=float, default=None, help="default 1.0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(handler=cmd_gen_csbm)

    p = command("pseudo", "train pseudo labels from features")
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

    p = command("verify", "run self-check suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed {args.seed}: must be a non-negative integer")
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
