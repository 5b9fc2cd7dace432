"""Check that the working tree's outputs are byte-identical to a revision's.

    python3 tools/compare_outputs.py REV

REV's `src/`, `bench/` and `demos/` are extracted with `git archive` into a
temporary directory, and REV's `bench/make_inputs.py` writes the benchmark
inputs of seeds 0 and 1 there; REV's `src` also writes the block model and
pseudo labels of `csbm_commands`, and `write_messy` a hand-edited layout of
each seed's graph and labels. Each command of `FIXED_COMMANDS`,
`csbm_commands` and `input_commands` then runs twice in one output
directory, once on REV's `src` and once on the working tree's, and the two
runs are compared on every file written, stdout, stderr and the exit code.
The "timestamp" of a run manifest (a `.manifest.json` file, or a JSON line
on stderr) is removed first; nothing else is. Each demo, and each tree's
`bench/make_inputs.py` for every seed of SEEDS, runs from its own tree on
its own `src`. One line is printed per difference; the exit code is 1 on any
difference and 0 when there is none. Standard library only; everything is
written under the temporary directory, which is removed at exit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)


def extract(rev: str, dest: Path):
    """REV's src/, bench/ and demos/ under `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "bench", "demos"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def input_commands(bench: Path, inputs: Path) -> list:
    """(name, topoinf argv) of every command run on one seed's bench inputs,
    the bench's own commands taken from `bench`/workloads.py, and on their
    `write_messy` copies, written here; "{out}" in an argument stands for the
    output directory."""
    sys.path.insert(0, str(bench))
    from workloads import GRAPH, LABELS, TARGET, WORKLOADS, command_args
    sys.path.pop(0)
    graph, labels, target = (str(inputs / f) for f in (GRAPH, LABELS, TARGET))
    io_flags = ["--graph", graph, "--labels", labels]
    messy = ["--graph", str(inputs / "messy.edges"), "--labels", str(inputs / "messy.labels")]
    write_messy(inputs / GRAPH, inputs / LABELS, inputs)
    rewire = ["rewire", "--graph", graph, "--ratio", "0.05", "--output", "{out}/r.edges"]
    adaedge = rewire + ["--labels", labels, "--strategy", "adaedge"]
    topoinf = rewire + ["--labels", labels, "--strategy", "topoinf", "--lambda", "0.1"]
    return [
        *((w, command_args(w, inputs, Path("{out}"), seed=0)) for w in WORKLOADS),
        ("rewire-random", rewire + ["--strategy", "random", "--seed", "3"]),
        ("rewire-adaedge-positive", adaedge + ["--set", "positive"]),
        ("rewire-adaedge-negative", adaedge + ["--set", "negative"]),
        ("rewire-topoinf-negative", topoinf + ["--set", "negative",
                                               "--trace", "{out}/r.trace"]),
        ("rewire-greedy", topoinf + ["--ratio", "0.002", "--greedy", "--rescore-every", "2"]),
        ("score-target-json", ["score", *io_flags, "--target", target, "--lambda", "0.1",
                               "--json", "{out}/s.json", "--output", "{out}/s.tsv"]),
        ("analyze-appnp10", ["analyze", *io_flags, "--model", "appnp", "--k", "10"]),
        ("score-sgc3", ["score", *io_flags, "--model", "sgc", "--k", "3",
                        "--output", "{out}/s.tsv"]),
        ("score-messy", ["score", *messy, "--output", "{out}/s.tsv"]),
        ("rewire-random-messy", ["rewire", *messy[:2], "--strategy", "random",
                                 "--ratio", "0.05", "--output", "{out}/r.edges"]),
    ]


def write_messy(graph: Path, labels: Path, dest: Path):
    """`messy.edges` and `messy.labels` in `dest`: the graph and labels as a
    hand-edited file may hold them, in a layout the bench never writes. The
    edge rows come in reverse order, every fifth one followed by its reversed
    duplicate, with comment and blank lines among them and CRLF line ends;
    the labels keep their order, with comment lines among them."""
    header, *rows = graph.read_text().splitlines()
    lines = [header, "# rows in reverse order, some repeated reversed", ""]
    for i, row in enumerate(reversed(rows)):
        u, v = row.split()
        lines += [f"  {row}"] + ([f"{v}\t{u}"] if i % 5 == 0 else []) + \
            (["", "# a comment"] if i % 97 == 0 else [])
    (dest / "messy.edges").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    header, *rows = labels.read_text().splitlines()
    lines = [header] + [line for i, row in enumerate(rows)
                        for line in ([row, "# a comment"] if i % 50 == 0 else [row])]
    (dest / "messy.labels").write_text("\n".join(lines) + "\n")


def csbm_commands(src: Path, inputs: Path) -> list:
    """(name, topoinf argv) of the soft-label, pseudo-label and exact-mode
    commands. Their inputs are written first with `src`: a 300-node block
    model, a labels file that keeps every fifth node, and that file's pseudo
    labels (hard and soft)."""
    def topoinf(*argv):
        subprocess.run([sys.executable, "-m", "topoinf.cli", *argv], check=True,
                       env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)

    graph, labels, few, features, pseudo, soft = (
        str(inputs / f) for f in ("g.edges", "g.labels", "few.labels", "g.features",
                                  "p.labels", "p.soft.tsv"))
    inputs.mkdir(parents=True)
    topoinf("gen-csbm", "--n", "300", "--classes", "3", "--p", "0.03", "--q", "0.005",
            "--dim", "8", "--seed", "2", "--output-prefix", str(inputs / "g"))
    lines = Path(labels).read_text().splitlines()
    Path(few).write_text("\n".join(lines[:1] + lines[1::5]) + "\n")
    train = ["--graph", graph, "--labels", few, "--features", features]
    topoinf("pseudo", *train, "--output-prefix", str(inputs / "p"))
    with_soft = ["--graph", graph, "--labels", pseudo, "--soft-labels", soft]
    exact = ["score", "--mode", "exact", "--output", "{out}/s.tsv"]
    return [
        ("pseudo", ["pseudo", *train, "--output-prefix", "{out}/p"]),
        ("score-soft", ["score", *with_soft, "--output", "{out}/s.tsv"]),
        ("score-soft-appnp10", ["score", *with_soft, "--model", "appnp", "--k", "10",
                                "--output", "{out}/s.tsv"]),
        ("analyze-soft", ["analyze", *with_soft]),
        ("score-exact", [*exact, "--graph", graph, "--labels", labels]),
        ("score-exact-soft", [*exact, *with_soft]),
    ]


FIXED_COMMANDS = [
    ("gen-csbm", ["gen-csbm", "--n", "200", "--classes", "3", "--p", "0.1", "--q", "0.02",
                  "--dim", "5", "--seed", "4", "--output-prefix", "{out}/g"]),
    ("gen-csbm-cora-like", ["gen-csbm", "--preset", "cora-like", "--seed", "1",
                            "--output-prefix", "{out}/g"]),
    # centers drawn between the edges and the noise
    ("gen-csbm-gaussian", ["gen-csbm", "--n", "120", "--classes", "3", "--p", "0.1",
                           "--q", "0.02", "--dim", "6", "--mu-scheme", "gaussian_random",
                           "--sigma", "0.5", "--seed", "5", "--output-prefix", "{out}/g"]),
    ("verify-quick", ["verify", "--quick"]),
]


def run(argv: list, src: Path, out: Path) -> dict:
    """Everything one run leaves: each file in `out`, stdout, stderr and the
    exit code, with manifest timestamps removed."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *(a.replace("{out}", str(out)) for a in argv)],
                          cwd=out, env=env, capture_output=True)
    result = {"exit code": proc.returncode, "stdout": proc.stdout,
              "stderr": [untimed(line) for line in proc.stderr.splitlines()]}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        result[path.relative_to(out).as_posix()] = \
            untimed(data) if path.name.endswith(".manifest.json") else data
    return result


def untimed(data: bytes):
    """A JSON object without its "timestamp", or `data` as it is."""
    try:
        doc = json.loads(data)
    except ValueError:
        return data
    if isinstance(doc, dict):
        doc.pop("timestamp", None)
    return doc


def compare(name: str, argv_old: list, argv_new: list, src_old: Path, src_new: Path,
            out: Path) -> list:
    """One line per difference between the two runs of command `name`, and
    one if REV's run fails: two runs that fail alike compare nothing."""
    old = run(argv_old, src_old, out)
    shutil.rmtree(out)
    new = run(argv_new, src_new, out)
    shutil.rmtree(out)
    failed = [f"{name}: exit code {old['exit code']} at REV"] if old["exit code"] else []
    return failed + [
        f"{name}: {key} differs" if key in old and key in new else
        f"{name}: {key} written only by {'REV' if key in old else 'the working tree'}"
        for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        rev = tmp / "rev"
        extract(args.rev, rev)
        src_old, src_new = rev / "src", ROOT / "src"
        commands = FIXED_COMMANDS + csbm_commands(src_old, tmp / "inputs" / "csbm")
        for seed in SEEDS:
            inputs = tmp / "inputs" / f"seed{seed}"
            subprocess.run([sys.executable, str(rev / "bench" / "make_inputs.py"),
                            "--seed", str(seed), "--out", str(inputs)], check=True,
                           env=dict(os.environ, PYTHONPATH=str(src_old)), capture_output=True)
            commands += [(f"{name}@seed{seed}", a)
                         for name, a in input_commands(rev / "bench", inputs)]
        cases = [(name, ["-m", "topoinf.cli", *a], ["-m", "topoinf.cli", *a])
                 for name, a in commands]
        cases += [(f"make_inputs@seed{seed}",
                   *([str(tree / "bench" / "make_inputs.py"), "--seed", str(seed),
                      "--out", "{out}/inputs"] for tree in (rev, ROOT)))
                  for seed in SEEDS]
        demos = sorted({p.name for tree in (rev, ROOT) for p in (tree / "demos").glob("*.py")})
        cases += [(f"demo {d}", [str(rev / "demos" / d)], [str(ROOT / "demos" / d)])
                  for d in demos]
        differences = []
        for name, argv_old, argv_new in cases:
            differences += compare(name, argv_old, argv_new, src_old, src_new, tmp / "out")
        for line in differences:
            print(line)
        print(f"{len(cases)} commands compared, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
