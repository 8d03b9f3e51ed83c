"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing chcpair and loading and parsing the workload's inputs,
which is what every invocation of the chcpair command pays before it works.
The time is in scaled seconds (see ``refclock``), like the benchmark's other
times.

    python3 bench_e2e/setup_probe.py transform
"""

import sys
import time

import refclock

with refclock.Sampler() as clock:
    t0 = time.perf_counter()
    import workloads  # noqa: E402  (imports chcpair)

    workloads.load(sys.argv[1])
    seconds = time.perf_counter() - t0 - clock.inside
print(repr(seconds * clock.scale))
