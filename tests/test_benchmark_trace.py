"""The benchmark's traced run completes and reports every per-layer metric.

`benchmarks/run.py --trace 1` patches library functions by name and reads
their spans; a renamed function, or one that no request calls any more, makes
the harness itself fail.  Each workload patches every traced name and fills
all per-layer metrics.  On a 2-core machine each of the three workloads
below takes about 1.5 s: curve-n24, typicality-large-n (whose probe draws
full unitaries at n = 100 and 400) and exact-tables (whose probe sums a_5 by
coset type).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["curve-n24", "typicality-large-n", "exact-tables"])
def test_traced_run_fills_every_layer(workload):
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr[-2000:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert math.isfinite(value), metric["name"]
