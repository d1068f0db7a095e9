"""Run one ``mpg`` command with every public mpgraphs function traced.

Usage: python3 trace_child.py SPANS_JSON MPG_ARGS...

Behaves like ``python -m mpgraphs MPG_ARGS...`` (same stdout, same exit
code) and writes its spans to SPANS_JSON.  mpgraphs must be importable,
e.g. through PYTHONPATH.
"""

import time

T0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402

tracer = Tracer()
span = tracer.open("startup.import_mpgraphs")
import mpgraphs.cli  # noqa: E402

tracer.close(span)
tracer.install()
try:
    rc = mpgraphs.cli.run(sys.argv[2:])
finally:
    tracer.uninstall()
sys.stdout.flush()
dump = tracer.to_json()
dump["t0"] = T0
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(dump, fh)
sys.exit(rc)
