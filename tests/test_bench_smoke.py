"""The benchmark's smoke run passes against the library in src/: every
workload at tiny sizes, untraced and traced, so a library change that
breaks the benchmark or the tracer's name lookups fails here."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    proc = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
