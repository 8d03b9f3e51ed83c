"""The benchmark's frozen inputs still match what the library derives.

`bench_e2e/gen_inputs.py --check` re-derives the Pn programs, definitions,
transported models and output digests from the corpus and compares them
byte for byte with `bench_e2e/inputs`. A change to any transform output
fails here, in the main suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_frozen_bench_inputs_are_current():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench_e2e" / "gen_inputs.py"), "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
