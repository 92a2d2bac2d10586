"""Set-up probe: one fresh interpreter, from start to the first runnable cycle.

    python3 bench/probe.py <workload> <seed>

Imports scanforge, generates the workload's design, parses it, inserts and
verifies the scan chain and parses the patterns, then prints one JSON line
with `time.perf_counter()` at that moment (CLOCK_MONOTONIC, shared by all
processes on Linux, so the parent can subtract its own start time) and the
digests of what it built.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402  (imports scanforge)

if __name__ == "__main__":
    shape = workloads.WORKLOADS[sys.argv[1]].shape
    seed = int(sys.argv[2])
    prepared = workloads.prepare(shape, seed)
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "design": workloads.design_digests(prepared)}))
