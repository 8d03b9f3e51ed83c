"""The benchmark's own tests.

    python3 -m pytest bench_e2e -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen_inputs  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import chcpair  # noqa: E402


def _run_bench(*args, cwd=BENCH_DIR.parent, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(ops, run.Tally(), "test", tracer)
    finally:
        tracer.uninstall()
    return tracer.take()


def test_smoke_mode_runs_one_operation_per_workload():
    out = _run_bench("--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.WORKLOADS)


def test_corrupted_digest_is_a_failed_operation(capsys):
    expected = workloads.load_expected()
    expected["sum_square"] = dict(expected["sum_square"], trace_sha256="0" * 64)
    ops = [op for op in workloads.transform_ops(expected) if op.name == "sum_square"]
    tally = run.Tally()
    run.run_pass(ops, tally, "transform")
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "# FAIL transform:sum_square: trace_sha256" in capsys.readouterr().out


def test_wrong_oracle_answer_is_a_failed_operation():
    op = next(op for op in workloads.oracle_ops() if op.name == "hl")
    rep = op.run()
    assert op.check(rep) is None
    assert "want NotWithinBudget" in workloads.oracle_check("sum_upto", rep)


def test_generator_reproduces_the_frozen_inputs():
    assert gen_inputs.main(["--check"]) == 0


def test_traced_hl1_transform_reproduces_the_baseline_counts():
    op = next(op for op in workloads.load("transform") if op.name == "hl1")
    counts = tracing.per_op_counts(_traced([op]))["hl1"]
    assert counts["lia.entails_equality"] == 5698
    assert counts["lia.entails_equality.disproved"] == 5373
    assert counts["lia.entails_equality.proved"] == 281
    assert counts["lia.entails_equality.unknown"] == 44
    assert counts["lia.satisfiable_with_witness"] == 7531


def test_oracle_makes_no_lia_calls():
    spans = _traced(workloads.load("oracle"))
    names = {s[2] for s in spans}
    assert "oracle.false_derivable" in names and "boxes.solutions" in names
    assert not [n for n in names if n.startswith("lia.")]


def test_tracer_restores_the_library():
    before = (chcpair.lia.eq_set, chcpair.corpus.parse_program, chcpair.parse_program,
              chcpair.kernel.TransformationState.apply_fold)
    tracer = tracing.Tracer()
    tracer.install()
    assert chcpair.parse_program is not before[2]
    assert chcpair.corpus.parse_program is chcpair.syntax.parse_program
    tracer.uninstall()
    after = (chcpair.lia.eq_set, chcpair.corpus.parse_program, chcpair.parse_program,
             chcpair.kernel.TransformationState.apply_fold)
    assert after == before


def test_sampler_samples_during_the_block_and_disarms_after():
    with refclock.Sampler() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        busy = time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample before, one after, and the timer's in between
    assert len(clock.samples) >= 2 + 3
    assert 0 < clock.inside < busy
    assert clock.scale == refclock.REF_S * len(clock.samples) / sum(clock.samples)
    refclock._on_timer(signal.SIGALRM, None)  # a late signal is dropped
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_excludes_children():
    spans = [("op", -1, "a", 0.0, 10.0, None), ("op", 0, "b", 1.0, 4.0, None),
             ("op", 1, "c", 2.0, 3.0, None), ("op", 0, "b", 5.0, 6.0, None)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pass_s", "op_geomean_ms", "peak_rss_mb"
    }


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / BENCH_DIR.name / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
