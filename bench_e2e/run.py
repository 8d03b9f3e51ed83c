"""End-to-end benchmark of chcpair: transform, oracle and certify workloads.

    python3 bench_e2e/run.py --workload transform --seed 1 --seconds 35 --trace 0
    python3 bench_e2e/run.py --smoke

A run is one process and one closed loop: operations run one at a time, in
passes over all of the workload's operations, each pass in an order drawn
from the seed. The LIA satisfiability cache is cleared before every
operation, as a fresh ``chcpair`` invocation would find it. Every output is
checked; a wrong answer or an exception counts as a failed operation and is
named on a ``# FAIL`` line.

With ``--trace 0`` the run reports the end-to-end metrics, timed in scaled
seconds, which correct for the host's speed (see ``refclock``). With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics of
``tracing.PER_LAYER``; the spans go to ``.bench_out/spans-<workload>.tsv``
under the checkout. The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types

import refclock
import workloads
from workloads import chcpair

SETUP_PROBES = 5
SHORT_OP_S = 0.1
OUT_DIR = workloads.BENCH_DIR.parent / ".bench_out"
# Stands in for a refclock.Sampler where no samples are taken.
NO_CLOCK = types.SimpleNamespace(inside=0.0)


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, where: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"# FAIL {where}: {error}", flush=True)


def time_op(op, tally: Tally, where: str, repeat_short: bool, clock=NO_CLOCK) -> list[float]:
    """Seconds of each run of the operation.

    With ``repeat_short``, an operation is repeated until its runs add up to
    ``SHORT_OP_S``, so that a sub-millisecond operation gets enough samples.
    Traced passes run every operation once, so that their counts do not
    depend on timing. With a ``refclock.Sampler`` as ``clock``, the time its
    samples take within a run is left out of that run.
    """
    runs = []
    while True:
        chcpair.install_unknown_resolver(None)  # clears the satisfiability cache
        lost = clock.inside
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            runs.append(time.perf_counter() - t0 - (clock.inside - lost))
            tally.record(where, f"raised {type(exc).__name__}: {exc}")
            return runs
        runs.append(time.perf_counter() - t0 - (clock.inside - lost))
        tally.record(where, op.check(out))
        if not repeat_short or sum(runs) >= SHORT_OP_S:
            return runs


def run_pass(ops, tally: Tally, label: str, tracer=None) -> dict[str, list[float]]:
    """Run the operations in the given order; return the seconds of their runs."""
    times = {}
    for op in ops:
        gc.collect()
        if tracer is not None:
            tracer.op = op.name
        times[op.name] = time_op(op, tally, f"{label}:{op.name}", False)
    return times


def run_scaled_pass(ops, tally: Tally, label: str) -> dict[str, list[float]]:
    """Run the operations in the given order; return the scaled seconds of their runs.

    Each operation is repeated up to ``SHORT_OP_S`` under its own
    ``refclock.Sampler``, and the times of its runs are scaled by the host
    speed that the sampler measured.
    """
    times = {}
    for op in ops:
        gc.collect()
        with refclock.Sampler() as clock:
            runs = time_op(op, tally, f"{label}:{op.name}", True, clock)
        times[op.name] = [t * clock.scale for t in runs]
    return times


def pass_seconds(times: dict[str, list[float]]) -> float:
    return sum(sum(runs) for runs in times.values())


def closed_loop(seconds: float, one_round):
    """Call one_round until the next round would end after ``seconds``."""
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return


def setup_once(workload: str) -> float:
    """One set-up of the workload, timed in a fresh interpreter."""
    probe = [sys.executable, str(workloads.BENCH_DIR / "setup_probe.py"), workload]
    out = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def end_to_end(args, ops, tally: Tally, rng: random.Random) -> dict:
    """The end-to-end metrics, from the scaled runs of each operation.

    The process shares a physical core with a hyperthread whose load it
    cannot see, and that load slows all its code by up to a factor of 1.7,
    changing from one second to the next. So every run is timed in scaled
    seconds (``refclock``): its wall time corrected by the host's speed,
    which a fixed reference loop measures around and during the run. Each
    operation's time is the median of its scaled runs over the whole run;
    ``pass_s`` sums those over one pass.

    ``setup_s`` is the median of set-ups made after each pass, and at least
    ``SETUP_PROBES`` of them, so that they sample the whole run rather than
    one moment of it. They are scaled in the same way. A first, untimed
    set-up writes the bytecode caches.
    """
    setup_once(args.workload)
    setups: list[float] = []
    samples: dict[str, list[float]] = {op.name: [] for op in ops}
    passes = []

    def one_pass():
        order = rng.sample(ops, len(ops))
        p0 = time.perf_counter()
        times = run_scaled_pass(order, tally, f"{args.workload}:pass{len(passes)}")
        passes.append(time.perf_counter() - p0)
        for name, runs in times.items():
            samples[name].extend(runs)
        setups.append(setup_once(args.workload))

    closed_loop(args.seconds, one_pass)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_once(args.workload))
    op_s = {name: statistics.median(runs) for name, runs in samples.items()}
    print(f"# passes {len(passes)}, wall seconds {json.dumps(passes)}")
    print(f"# setups {len(setups)}, scaled seconds {json.dumps(setups)}")
    print("# median scaled run ms " + json.dumps({k: round(v * 1e3, 3) for k, v in op_s.items()}))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (sum(op_s.values()), "s"),
        "op_geomean_ms": (geomean(op_s.values()) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(args, ops, tally: Tally, rng: random.Random) -> dict:
    import tracing

    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    spans: list[list[tuple]] = []

    def one_pair():
        plain.append(pass_seconds(run_pass(rng.sample(ops, len(ops)), tally, f"{args.workload}:plain")))
        tracer.install()
        try:
            t = run_pass(rng.sample(ops, len(ops)), tally, f"{args.workload}:traced", tracer)
        finally:
            tracer.uninstall()
        traced.append(pass_seconds(t))
        spans.append(tracer.take())

    closed_loop(args.seconds, one_pair)
    for op, counts in tracing.per_op_counts(spans[0]).items():
        print(f"# trace {op} {json.dumps(counts, sort_keys=True)}")
    path = OUT_DIR / f"spans-{args.workload}.tsv"
    tracing.write_spans(path, spans)
    print(f"# spans {sum(len(s) for s in spans)} in {len(spans)} traced passes written to {path}")
    layers = [tracing.layer_metrics(s) for s in spans]
    out = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(traced) - statistics.median(plain), unit)
        else:
            # median_low: a count stays a whole number over an even number of passes
            out[name] = (statistics.median_low(m[name] for m in layers), unit)
    return out


def smoke() -> int:
    """One small operation per workload, untraced and traced; exit 1 on a failure."""
    import tracing

    tally = Tally()
    for workload in workloads.WORKLOADS:
        ops = [op for op in workloads.load(workload) if op.name == workloads.SMOKE_OPS[workload]]
        run_pass(ops, tally, f"{workload}:smoke")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_pass(ops, tally, f"{workload}:smoke-traced", tracer)
        finally:
            tracer.uninstall()
        tracer.take()
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": {}}))
    return 0 if tally.failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of chcpair.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one small operation per workload")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    ops = workloads.load(args.workload)
    rng = random.Random(args.seed)
    tally = Tally()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": chcpair.boxes.KERNEL,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops": len(ops),
    }
    print(f"# meta {json.dumps(meta)}", flush=True)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, ops, tally, rng)
    rate = tally.failed / tally.attempted
    print(f"# error_rate {rate} ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
