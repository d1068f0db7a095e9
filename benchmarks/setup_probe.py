"""One set-up sample: a fresh interpreter imports mpgraphs and builds one
workload's inputs, then prints its timings as JSON.

Usage: python3 setup_probe.py WORKLOAD SEED   (mpgraphs on PYTHONPATH)
"""

import time

T0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

t = time.perf_counter_ns()
import mpgraphs  # noqa: E402,F401

import_ns = time.perf_counter_ns() - t

import workloads  # noqa: E402

t = time.perf_counter_ns()
workloads.build(sys.argv[1], int(sys.argv[2]), Path.cwd())
build_ns = time.perf_counter_ns() - t
print(json.dumps({"t0": T0, "import_ms": import_ns / 1e6, "build_ms": build_ns / 1e6}))
