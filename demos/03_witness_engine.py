"""Certified Petersen subdivisions through a prescribed matching edge.

If an edge lies in every matched 4-cycle, a Petersen subdivision through
it exists, and the engine produces one constructively: reduce away
4-cycles through the edge, then read the witness off an induced P4 of the
crossing graph, which a 4-cycle-free state always has.
The returned trace replays step by step to the same witness.
"""

import json

from mpgraphs import (
    PETERSEN,
    PRISM,
    find_p10_through,
    is_petersen,
    replay_trace,
    suppress_match,
    validate,
    witness_report_dict,
)
from mpgraphs.errors import PreconditionViolated

print("petersen, edge 0: no 4-cycles at all, so the edge qualifies")
X, trace = find_p10_through(PETERSEN, 0)
print(json.dumps(witness_report_dict(X, trace), indent=2))
print(f"re-verified: {is_petersen(suppress_match(PETERSEN, X))}")
print(f"trace replays to the same witness: {replay_trace(PETERSEN, 0, trace) == X}")

print("\nprism, edge 0: some 4-cycle avoids every edge, so the engine refuses")
try:
    find_p10_through(PRISM, 0)
except PreconditionViolated as exc:
    print(f"  {exc.to_json_dict()}")

print("\nan instance with one matched 4-cycle (0,1): reduction first, then the P4")
G = validate(6, [0, 1, 3, 5, 2, 4])
X, trace = find_p10_through(G, 0)
print(f"  witness: {list(X)}")
for step in witness_report_dict(X, trace)["trace"]:
    print(f"  step: {json.dumps(step)}")
print(f"  replay check: {replay_trace(G, 0, trace) == X}")
