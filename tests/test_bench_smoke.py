"""The benchmark's smoke mode on every workload, run on a copy of the sources.

`bench/` reads names of the library by path (`DeltaWorkspace.score`, which its
tracer patches, `topoinf_oracle` and more), so a change that breaks one of
them fails here, not only when the benchmark runs. The benchmark's own tests
run one workload in the checkout; this runs all of them, traced and untraced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_is_correct(tmp_path):
    """`bench/run.py --workload all --smoke` exits 0 and reports every command
    correct. It runs in a copy of `src/` and `bench/`, so its scratch files
    stay out of the checkout."""
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed", "0",
                           "--seconds", "0.1", "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
