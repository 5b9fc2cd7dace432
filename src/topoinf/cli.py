"""Command-line frontend.

Subcommands: analyze, score, rewire, dropedge, gen-csbm, pseudo, verify.
Exit codes: 0 success, 1 internal error, 2 input validation. Every run
computes its outputs fully before writing any file, and writes all of them or
none, so no partial artifacts are left behind. Data outputs are deterministic
for a fixed seed; the run manifest (which carries a wall-clock timestamp) goes
to a `.manifest.json` sidecar, or to stderr when the primary output goes to
stdout. No output may name an input file of the run. A bad flag value fails
as one line, `error: <flag> <value>: <rule>`; a rule on a library parameter is
stated there alone, and `FLAGS` maps the names whose flag is not `--<name>`.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .compat import compatibility, json_number
from .csbm import (MAX_FEATURE_VALUES, MAX_SBM_NODES, CsbmParams, cora_like_params,
                   generate_csbm, write_features)
from .filters import PRESETS, FilterSpec
from .graphs import (
    LabelData,
    ParameterError,
    load_edge_list,
    load_labels,
    load_target,
    write_edge_list,
    write_labels,
)
from .influence import greedy_refine, score_all_edges
from .rewire import (
    check_drop_fraction,
    check_ratio,
    check_tau,
    dropedge_weights,
    epoch_seed,
    remove_adaedge,
    remove_by_topoinf,
    remove_random,
    sample_dropedge,
)


# Most epoch files one `dropedge` run may emit. Every epoch's edge list is
# held until all outputs are computed, so the bound caps that memory at 1000
# edge lists; DropEdge training schedules run a few hundred epochs.
MAX_EPOCHS = 1000

# the argument names of the input files a run may read, in manifest order
INPUTS = ("graph", "labels", "soft_labels", "target", "features")

# the suites of `verify.SUITES`, named here so that a run of another command
# never imports the verify module
VERIFY_SUITES = ("oracle", "theorem2", "gradients")

FLAGS = {"c": "--classes", "d": "--dim", "learning_rate": "--lr", "l2_penalty": "--l2",
         "drop_fraction": "--drop-rate"}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sha256(data: bytes) -> str:
    # hashlib maps OpenSSL's libcrypto (about 3.5 MiB), so it loads only here, after scoring
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _floats(name: str, text: str) -> tuple:
    """The comma-separated numbers given to the flag of parameter `name`."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ParameterError(name, text, "expected comma-separated numbers") from None


class _Given(argparse.Action):
    """Store a flag's value and add the flag to `args.given`, the one record
    of which flags a run gave."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {option_string}


def _reject_unread(args, flag: str, read: bool, readers: str):
    """Fail on `flag` when the run gave it but its mode does not read it;
    `readers` names the modes that do."""
    if flag in args.given and not read:
        raise ValueError(f"{flag}: only {readers} it; drop the flag")


def _require_lambda(args):
    if "--lambda" not in args.given:
        raise ValueError("--lambda is required for score-based rewiring")


def _filter_spec(args) -> FilterSpec:
    if args.k < 1:   # the library also takes K = 0 with supplied coefficients
        raise ParameterError("k", args.k, "must be at least 1")
    _reject_unread(args, "--alpha", args.model in ("s2gc", "appnp", "gcnii"),
                   "--model s2gc, appnp and gcnii read")
    gamma = None if args.gamma is None else _floats("gamma", args.gamma)
    return FilterSpec(args.model, args.k, alpha=args.alpha, gamma=gamma)


def _add_filter_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=PRESETS, default="sgc", help="default %(default)s")
    p.add_argument("--k", type=int, default=2, help="filter order K, default %(default)s")
    p.add_argument("--alpha", type=float, default=0.1,
                   help="s2gc, appnp and gcnii only; default %(default)s")
    p.add_argument("--gamma", help="comma-separated K+1 coefficients (gprgnn/custom)")


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
    from .pseudo import load_soft_tsv
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
             if k not in ("handler", "given") and v is not None}
    return {
        "command": args.subcommand,
        "flags": flags,
        "inputs": {name: _sha256(Path(getattr(args, name)).read_bytes()) for name in INPUTS
                   if getattr(args, name, None) is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(args, outputs: list, base: str | None, **notes) -> int:
    """Write every (path, text) output and the run manifest, or none, and
    return the exit code 0.

    The manifest records the run and its `notes`. An output whose path is
    None goes to stdout, and the manifest then to stderr; otherwise the
    manifest goes to the sidecar `<base>.manifest.json`. Each file is first
    written next to its destination under a temporary name, and the files are
    moved into place only once all are written; a destination that is a
    directory or an input file of the run, or two outputs that resolve to one
    file, fail before anything is written."""
    manifest = {**_manifest(args), **notes}
    stdout = [text for path, text in outputs if path is None]
    files = [(Path(path), text) for path, text in outputs if path is not None]
    if not stdout:
        files.append((Path(base + ".manifest.json"), json.dumps(manifest, indent=2) + "\n"))
    inputs = {Path(getattr(args, name)).resolve(): "--" + name.replace("_", "-")
              for name in INPUTS if getattr(args, name, None) is not None}
    resolved = set()
    for path, _ in files:
        if path.is_dir():
            raise ValueError(f"{path}: is a directory")
        if path.resolve() in inputs:
            raise ValueError(f"{path}: is the {inputs[path.resolve()]} input of this run")
        if path.resolve() in resolved:
            raise ValueError(f"{path}: two outputs name this file")
        resolved.add(path.resolve())
    staged = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files}
    try:
        for path, text in files:
            try:
                staged[path].write_text(text)
            except OSError as exc:
                raise ValueError(f"{path}: cannot write: {exc.strerror}") from None
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
    if stdout:
        sys.stdout.write("".join(stdout))
        sys.stderr.write(json.dumps(manifest) + "\n")
    return 0


# ---------------------------------------------------------------- analyze


def _filter_doc(spec: FilterSpec) -> dict:
    """The filter of a run, as the analyze and score JSON record it."""
    return {"model": spec.preset, "k": spec.k, "alpha": spec.alpha,
            "gamma": list(spec.gamma) if spec.gamma else None}


def cmd_analyze(args) -> int:
    spec = _filter_spec(args)
    g, labels, target = _load_inputs(args)
    report = compatibility(g, spec, labels, target, args.lam)
    doc = report.to_json_dict()
    doc["filter"] = _filter_doc(spec)
    return _emit(args, [(args.output, json.dumps(doc, indent=2) + "\n")], args.output)


# ---------------------------------------------------------------- score


def _target_hash(target, n) -> str:
    arr = np.arange(n, dtype=np.int64) if target is None else target
    return _sha256(arr.tobytes())[:16]


def cmd_score(args) -> int:
    spec = _filter_spec(args)
    g, labels, target = _load_inputs(args)
    report = score_all_edges(g, spec, labels, target, args.lam, mode=args.mode)
    outputs = []
    if args.json is not None:
        r = report.ranking
        doc = {
            "metadata": {
                **_filter_doc(spec), "lambda": args.lam, "mode": args.mode,
                "target_hash": _target_hash(target, g.n), "seed": args.seed,
            },
            "scores": [
                {"u": u, "v": v, "topoinf": json_number(x),
                 "sign": s, "affected_nodes": a}
                for (u, v), x, s, a in zip(
                    report.edges[r].tolist(), report.values[r].tolist(),
                    report.signs[r].tolist(), report.affected[r].tolist())
            ],
        }
        outputs.append((args.json, json.dumps(doc, indent=2) + "\n"))
    return _emit(args, [*outputs, (args.output, report.to_tsv())], args.output)


# ---------------------------------------------------------------- rewire


def cmd_rewire(args) -> int:
    topoinf = args.strategy == "topoinf"
    check_ratio(args.ratio)
    if args.greedy and not topoinf:
        raise ValueError("--greedy applies only to --strategy topoinf")
    if args.strategy != "random" and args.labels is None:
        raise ValueError(f"--strategy {args.strategy} requires --labels")
    if topoinf:
        _require_lambda(args)
    for flag, read, readers in (
            ("--seed", not topoinf, "--strategy random and adaedge read"),
            ("--set", args.strategy == "adaedge" or topoinf and not args.greedy,
             "--strategy adaedge and topoinf without --greedy read"),
            ("--rescore-every", args.greedy, "--greedy reads"),
            *((flag, topoinf, "--strategy topoinf reads") for flag in
              ("--lambda", "--target", "--model", "--k", "--alpha", "--gamma")),
            ("--labels", args.strategy != "random", "--strategy topoinf and adaedge read")):
        _reject_unread(args, flag, read, readers)
    spec = _filter_spec(args)
    g, labels, target = _load_inputs(args)

    # the removed edge ids of g, with the score and C-after columns where known
    score = c_after = None
    if args.greedy:
        removed, score, c_after = greedy_refine(g, spec, labels, target, args.lam,
                                                max_removals=int(args.ratio * g.edge_count),
                                                rescore_every=args.rescore_every)
    elif topoinf:
        report = score_all_edges(g, spec, labels, target, args.lam)
        removed = remove_by_topoinf(report, args.ratio, args.set)
        score = report.values[removed]
    else:
        removed = remove_random(g, args.ratio, args.seed) if args.strategy == "random" \
            else remove_adaedge(g, labels, args.ratio, args.set, args.seed)
    columns = [[""] * len(removed) if x is None else [_fmt(v) for v in x.tolist()]
               for x in (score, c_after)]
    trace_text = "u\tv\tscore\tc_after\n" + "".join(
        f"{u}\t{v}\t{s}\t{c}\n" for (u, v), s, c in zip(g.edges[removed].tolist(), *columns))
    outputs = [(args.output, write_edge_list(g, drop=removed)),
               (args.output + ".trace.tsv" if args.trace is None else args.trace, trace_text)]
    return _emit(args, outputs, args.output)


# ---------------------------------------------------------------- dropedge


def cmd_dropedge(args) -> int:
    _require_lambda(args)
    check_tau(args.tau)
    check_drop_fraction(args.drop_rate)
    if not 0 <= args.emit_epochs <= MAX_EPOCHS:
        raise ParameterError("emit_epochs", args.emit_epochs, f"must lie in [0, {MAX_EPOCHS}]")
    spec = _filter_spec(args)
    g, labels, target = _load_inputs(args)
    report = score_all_edges(g, spec, labels, target, args.lam)
    probabilities = dropedge_weights(report.values, args.tau)

    dist_lines = ["u\tv\ttopoinf\tprobability"]
    for (u, v), x, prob in zip(report.edges.tolist(), report.values.tolist(),
                               probabilities.tolist()):
        dist_lines.append(f"{u}\t{v}\t{_fmt(x)}\t{_fmt(prob)}")
    outputs = [(args.output_prefix + ".dist.tsv", "\n".join(dist_lines) + "\n")]

    for epoch in range(args.emit_epochs):
        dropped = sample_dropedge(probabilities, args.drop_rate, epoch_seed(args.seed, epoch))
        outputs.append((f"{args.output_prefix}.epoch{epoch:04d}.edges",
                        write_edge_list(g, drop=dropped)))
    return _emit(args, outputs, args.output_prefix)


# ---------------------------------------------------------------- gen-csbm


def cmd_gen_csbm(args) -> int:
    _reject_unread(args, "--mix", args.preset is not None, "--preset reads")
    sizes = ("--n", "--classes", "--p", "--q", "--dim")
    if args.preset == "cora-like":
        for flag in (*sizes, "--mu-scheme", "--mu-scale"):
            if flag in args.given:
                raise ValueError(f"{flag}: --preset cora-like fixes it; "
                                 "drop the flag or the preset")
        mix = _floats("mix", args.mix)
        if len(mix) != 2:
            raise ParameterError("mix", mix, "expected two numbers, intra,inter")
        params = cora_like_params(mix=mix, sigma=args.sigma, seed=args.seed)
    else:
        for flag in sizes:
            if flag not in args.given:
                raise ValueError(f"{flag} is required without --preset")
        params = CsbmParams(n=args.n, c=args.classes, p=args.p, q=args.q, d=args.dim,
                            sigma=args.sigma, seed=args.seed, mu_scheme=args.mu_scheme,
                            mu_scale=args.mu_scale)
    sample = generate_csbm(params)
    dataset_manifest = {
        "params": dataclasses.asdict(params),
        "nodes": sample.graph.n,
        "edges": sample.graph.edge_count,
        "version": __version__,
    }
    outputs = [
        (args.output_prefix + ".edges", write_edge_list(sample.graph)),
        (args.output_prefix + ".labels", write_labels(sample.labels)),
        (args.output_prefix + ".features", write_features(sample.X)),
        (args.output_prefix + ".json", json.dumps(dataset_manifest, indent=2) + "\n"),
    ]
    return _emit(args, outputs, args.output_prefix)


# ---------------------------------------------------------------- pseudo


def cmd_pseudo(args) -> int:
    from .pseudo import (TrainConfig, TrainingDiverged, predict_pseudo, train_linear_sgc,
                         write_soft_tsv)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                      l2_penalty=args.l2, seed=args.seed)
    spec = _filter_spec(args)
    g, labels, _ = _load_inputs(args)
    features = _read("--features", args.features, _features, g.n)
    try:
        model = train_linear_sgc(g, spec, features, labels, cfg)
    except TrainingDiverged as exc:
        raise ParameterError("learning_rate", args.lr, str(exc)) from None
    pseudo = predict_pseudo(model, g, spec, features, labels)
    outputs = [
        (args.output_prefix + ".labels", write_labels(pseudo)),
        (args.output_prefix + ".soft.tsv", write_soft_tsv(pseudo)),
    ]
    return _emit(args, outputs, args.output_prefix, final_loss=float(model.loss_trace[-1]))


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    from .verify import SUITES
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

    def command(name, help, handler):
        # no prefix matching, so a removed flag cannot parse as a kept one
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        # every flag that stores a value adds itself to args.given
        p.register("action", None, _Given)
        p.set_defaults(handler=handler, given=frozenset())
        return p

    def common_io(p, labels_required=True, soft_labels=False):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--labels", required=labels_required, help="label file")
        p.add_argument("--target", help="file of target node ids")
        p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                       help="regularizer weight, default %(default)s; score-based rewiring "
                            "(rewire --strategy topoinf, dropedge) requires the flag")
        if soft_labels:
            p.add_argument("--soft-labels", help="soft-label TSV: use "
                           "soft inner-product influence (extension, non-default)")
        _add_filter_flags(p)

    p = command("analyze", "compatibility report (JSON)", cmd_analyze)
    common_io(p, soft_labels=True)
    p.add_argument("--output", help="JSON path (default stdout)")

    p = command("score", "per-edge influence scores (TSV/JSON)", cmd_score)
    common_io(p, soft_labels=True)
    p.add_argument("--mode", choices=("exact", "incremental"), default="incremental",
                   help="default %(default)s")
    p.add_argument("--output", help="TSV path (default stdout)")
    p.add_argument("--json", help="also write JSON with run metadata")
    p.add_argument("--seed", type=int, default=0, help="default %(default)s")

    p = command("rewire", "remove edges by strategy; emit new edge list", cmd_rewire)
    common_io(p, labels_required=False)
    p.add_argument("--strategy", choices=("topoinf", "random", "adaedge"), required=True)
    p.add_argument("--set", choices=("positive", "negative"), default="positive",
                   help="edge set to draw from (adaedge, batch topoinf); default %(default)s")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="random and adaedge; default %(default)s")
    p.add_argument("--greedy", action="store_true",
                   help="sequential re-scored removal (topoinf only; default: score once)")
    p.add_argument("--rescore-every", type=int, default=1,
                   help="removals between rescorings (--greedy only); default %(default)s")
    p.add_argument("--output", required=True)
    p.add_argument("--trace", help="trace TSV (default <output>.trace.tsv)")

    p = command("dropedge", "influence-biased edge-dropping distribution", cmd_dropedge)
    common_io(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--drop-rate", type=float, default=0.5, help="default %(default)s")
    p.add_argument("--emit-epochs", type=int, default=0,
                   help=f"epoch files to sample, at most {MAX_EPOCHS}; default %(default)s")
    p.add_argument("--seed", type=int, default=0, help="default %(default)s")
    p.add_argument("--output-prefix", required=True)

    p = command("gen-csbm", "generate a block-model dataset", cmd_gen_csbm)
    p.add_argument("--preset", choices=("cora-like",))
    p.add_argument("--mix", default="0.9,0.1",
                   help="intra,inter mix (--preset only); default %(default)s")
    p.add_argument("--n", type=int, help=f"node count, at most {MAX_SBM_NODES}")
    p.add_argument("--classes", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--dim", type=int,
                   help=f"feature dimension d, n * d at most {MAX_FEATURE_VALUES}")
    p.add_argument("--sigma", type=float, default=1.0, help="default %(default)s")
    p.add_argument("--mu-scheme", choices=("orthogonal_scaled", "gaussian_random"),
                   default="orthogonal_scaled", help="default %(default)s")
    p.add_argument("--mu-scale", type=float, default=1.0, help="default %(default)s")
    p.add_argument("--seed", type=int, default=0, help="default %(default)s")
    p.add_argument("--output-prefix", required=True)

    p = command("pseudo", "train pseudo labels from features", cmd_pseudo)
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--lr", type=float, default=0.5, help="default %(default)s")
    p.add_argument("--epochs", type=int, default=200, help="default %(default)s")
    p.add_argument("--l2", type=float, default=1e-4, help="default %(default)s")
    p.add_argument("--seed", type=int, default=0, help="default %(default)s")
    p.add_argument("--output-prefix", required=True)
    _add_filter_flags(p)

    p = command("verify", "run self-check suites", cmd_verify)
    p.add_argument("--suite", choices=(*VERIFY_SUITES, "all"), default="all",
                   help="default %(default)s")
    p.add_argument("--quick", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 2
    try:
        if getattr(args, "seed", 0) < 0:
            raise ParameterError("seed", args.seed, "must be a non-negative integer")
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        if isinstance(exc, ParameterError):   # named by its flag
            exc = f"{FLAGS.get(exc.name, '--' + exc.name.replace('_', '-'))} {exc.detail}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
