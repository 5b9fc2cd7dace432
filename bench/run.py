"""topoinf benchmark runner.

    python3 bench/run.py --workload cora-greedy --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Run from the root of a source checkout (the one holding `src/topoinf`). With
`--trace 0` the runner writes the seeded inputs (set-up, repeated and timed),
then launches the workload's command as a fresh `python3 -m topoinf.cli`
process, one at a time and single-threaded, until the next one would end after
`--seconds`. Each command's wall time and peak RSS come from `os.wait4`. The
outputs are checked once, outside the timed region (`checks.py`), and every
later command must write byte-identical outputs. With `--trace 1` a separate
traced run (`layer_trace.py`) reports per-layer metrics instead. `--workload
all` runs both kinds for every workload.

The runner imports neither numpy nor topoinf, and holds no data, so the peak
RSS of a child is its own. It prints the environment, every metric by name
with its unit, and as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Scratch files go to `.bench_work/` in the
checkout; span files stay in `.bench_work/spans/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import META, WORKLOADS, command_args, data_outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PY = sys.executable or "python3"

SETUP_REPEATS = 5       # set-up runs per end-to-end run; setup_s is their median
IMPORT_REPEATS = 3      # fresh-process `import topoinf.cli` probes per traced run

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# reported by --trace 1; a layer's time is left out when some workload never
# calls that layer (it would read 0.0 on every run), but its call count stays
PER_LAYER = {
    "graphs.load_s": "s",
    "graphs.from_edges_s": "s",
    "graphs.write_calls": "count",
    "graphs.remove_edge_calls": "count",
    "graphs.normalized_adjacency_s": "s",
    "graphs.normalized_adjacency_calls": "count",
    "filters.apply_filter_calls": "count",
    "compat.compatibility_calls": "count",
    "influence.build_s": "s",
    "influence.build_calls": "count",
    "influence.score_calls": "count",
    "influence.score_s": "s",
    "influence.score_us.p50": "us",
    "influence.score_us.p99": "us",
    "influence.score_all_self_s": "s",
    "rewire.sample_calls": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "csbm.generate_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_s": "s",
}
# printed with the per-layer metrics, but zero on the workloads that skip them
PRINTED_ONLY = {
    "graphs.write_s": "s",
    "filters.apply_filter_s": "s",
    "compat.compatibility_s": "s",
    "influence.greedy_s_per_removal": "s",
    "rewire.weights_s": "s",
    "rewire.sample_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], capture: bool = False):
    """Run one process to completion: (exit code, wall s, rusage, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    out = proc.stdout.read().decode() if capture else ""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if capture:
        proc.stdout.close()
    return proc.returncode, wall, usage, out


def run_script(name: str, *args, what: str) -> tuple[dict, float]:
    """Run a helper script of the benchmark: (its last stdout line as JSON, wall s)."""
    code, wall, _, out = run_child([PY, str(BENCH / name), *map(str, args)], capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{what} failed (exit code {code})")
    return json.loads(lines[-1]), wall


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in data_outputs(out):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def count_failed(codes: list[int], digests: list[str], check_failures: list[str]) -> int:
    """Commands that failed, wrote wrong outputs, or differ from the first good one.

    The outputs of the first command that exited 0 were checked; a later
    command passes only with byte-identical outputs, so a failed check fails
    every command.
    """
    ref = next((d for c, d in zip(codes, digests) if c == 0), None)
    return sum(1 for c, d in zip(codes, digests)
               if c != 0 or d != ref or check_failures)


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"git_sha": sha, "python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads_per_child": 1, "machine": platform.machine()}


def new_work_dir(workload: str, seed: int, kind: str) -> Path:
    work = WORK / f"{workload}-seed{seed}-{kind}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def check(workload: str, inputs: Path, out: Path, seed: int, smoke: bool) -> list[str]:
    flags = ["--smoke"] if smoke else []
    doc, _ = run_script("checks.py", "--workload", workload, "--inputs", inputs,
                        "--out", out, "--seed", seed, *flags, what="output check")
    return doc["failures"]


def run_end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    work = new_work_dir(workload, seed, "e2e")
    try:
        inputs = work / "inputs"
        flags = ["--smoke"] if smoke else []
        setups = [run_script("make_inputs.py", "--seed", seed, "--out", inputs, *flags,
                             what="input set-up")[1]
                  for _ in range(SETUP_REPEATS)]

        codes, digests, walls, cpus, rss_kib, ref_out = [], [], [], [], [], None
        window = time.perf_counter()
        while True:
            out = work / f"run{len(codes):03d}"
            out.mkdir()
            argv = [PY, "-m", "topoinf.cli", *command_args(workload, inputs, out, seed, smoke)]
            code, wall, usage, _ = run_child(argv)
            codes.append(code)
            walls.append(wall)
            cpus.append(usage.ru_utime + usage.ru_stime)
            rss_kib.append(usage.ru_maxrss)
            digests.append(digest(out) if code == 0 else "")
            if ref_out is None and code == 0:
                ref_out = out
            else:
                shutil.rmtree(out)
            if time.perf_counter() - window + statistics.median(walls) > seconds:
                break

        failures = (check(workload, inputs, ref_out, seed, smoke) if ref_out
                    else ["every command failed"])
        failed = count_failed(codes, digests, failures)
        return {
            "metrics": {"setup_s": statistics.median(setups),
                        "wall_s": statistics.median(walls),
                        "peak_rss_mb": statistics.median(rss_kib) / 1024.0},
            "units": END_TO_END,
            "attempted": len(codes), "failed": failed, "failures": failures,
            "info": {"commands": len(codes), "walls_s": walls, "cpu_s": cpus,
                     "setups_s": setups,
                     "error_rate": failed / len(codes),
                     "inputs": json.loads((inputs / META).read_text())},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_traced(workload: str, seed: int, smoke: bool) -> dict:
    work = new_work_dir(workload, seed, "trace")
    try:
        probe = "import time; t = time.perf_counter(); import topoinf.cli; " \
                "print(time.perf_counter() - t)"
        imports = []
        for _ in range(IMPORT_REPEATS):
            code, _, _, out = run_child([PY, "-c", probe], capture=True)
            if code != 0:
                raise BenchError("import topoinf.cli failed")
            imports.append(float(out))
        spans = WORK / "spans" / f"{workload}-seed{seed}.jsonl"
        flags = ["--smoke"] if smoke else []
        res, _ = run_script("layer_trace.py", "--workload", workload, "--seed", seed,
                            "--work", work, "--spans", spans, *flags, what="traced run")
        outs = [Path(p) for p in res["outputs"]]
        codes = res["exit_codes"]
        digests = [digest(o) if c == 0 else "" for c, o in zip(codes, outs)]
        good = [o for c, o in zip(codes, outs) if c == 0]
        failures = (check(workload, Path(res["inputs"]), good[0], seed, smoke) if good
                    else ["every command failed"])
        failed = count_failed(codes, digests, failures)
        metrics = dict(res["metrics"], **{"cli.import_s": statistics.median(imports)})
        return {
            "metrics": {k: metrics[k] for k in PER_LAYER},
            "units": PER_LAYER,
            "printed": {k: metrics[k] for k in PRINTED_ONLY},
            "attempted": len(codes), "failed": failed, "failures": failures,
            "info": {"untraced_s": res["untraced_s"], "traced_s": res["traced_s"],
                     "spans": res["spans"], "span_file": str(spans.relative_to(ROOT)),
                     "error_rate": failed / len(codes)},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload: str, res: dict):
    """Human-readable lines: every metric by name with its unit."""
    for name, value in res["metrics"].items():
        print(f"{workload}  {name} = {value:.6g} {res['units'][name]}")
    for name, value in res.get("printed", {}).items():
        print(f"{workload}  {name} = {value:.6g} {PRINTED_ONLY[name]}")
    print(f"{workload}  error_rate = {res['info']['error_rate']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} commands)")
    print(f"{workload}  info: {json.dumps(res['info'])}")
    for msg in res["failures"]:
        print(f"{workload}  FAILED CHECK: {msg}")


def result_line(results: dict) -> str:
    """The final JSON line; with several workloads, metric names get a prefix."""
    metrics = {}
    for workload, res in results.items():
        prefix = "" if len(results) == 1 else workload + "/"
        for name, value in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": res["units"][name]}
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results.values()),
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="topoinf benchmark runner")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement window of an end-to-end run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny 90-node inputs, for testing the benchmark")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "topoinf" / "__init__.py").is_file():
        print(f"error: no topoinf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment()))
    results = {}
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            kinds = (0, 1) if args.workload == "all" else (args.trace,)
            for kind in kinds:
                res = (run_traced(workload, args.seed, args.smoke) if kind
                       else run_end_to_end(workload, args.seed, args.seconds, args.smoke))
                report(workload, res)
                results[workload if len(kinds) == 1 else f"{workload}/trace{kind}"] = res
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
