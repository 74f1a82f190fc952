"""Time one workload's set-up in this fresh process.

Set-up is: import depinsim, build the config, policy and backend, and
construct the Simulation.  Prints two numbers: host seconds, and the same
in reference seconds (bench_clock), from the median of five speed probes
run just before and five just after.  The benchmark runs this script several times per run and
reports the median as setup_s:

    python3 perfbench/setup_probe.py roster-growth 7
"""

import sys
import time
from pathlib import Path

from bench_clock import REFERENCE_PROBE_S, probe


def speed_probe() -> float:
    return sorted(probe() for _ in range(5))[2]


before = speed_probe()
start = time.perf_counter()
import bench_workloads  # noqa: E402  (imports depinsim: part of what is timed)

workload = bench_workloads.WORKLOADS[sys.argv[1]]
# No request is sent while constructing, so the stub's address is not needed.
env = bench_workloads.Env(workdir=Path(__file__).resolve().parent / "out", url="http://127.0.0.1:9")
workload.construct(int(sys.argv[2]), env)
host = time.perf_counter() - start
after = speed_probe()
print(host, host * REFERENCE_PROBE_S / ((before + after) / 2))
