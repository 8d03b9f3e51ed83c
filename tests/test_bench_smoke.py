"""The end-to-end benchmark still runs against the library.

`bench_e2e/run.py --smoke` runs one small operation per workload, untraced
and traced, and checks its output. A library change that breaks the
benchmark's wrappers or checks fails here, in the main suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench_e2e" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
