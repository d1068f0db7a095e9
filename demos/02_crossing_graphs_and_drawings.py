"""Crossing graphs of the standard two-row drawing.

Anchor an A-vertex, lay both cycles out on two horizontal rows, and join
friends by straight segments.  Two segments cross exactly when the
crossing graph has the corresponding edge — the drawing and the
combinatorial rule are two routes to the same number.
"""

import re
from pathlib import Path

from mpgraphs import (
    PETERSEN,
    build_crossing_graph,
    check_redrawing,
    standard_drawing,
    validate,
)

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

print("Crossing graph of the petersen fixture, anchored at 0:")
H = build_crossing_graph(PETERSEN, 0)
print(f"  vertices: {H.vertices}")
print(f"  edges:    {H.edges()}   (the induced path 1-3-2-4)")

print("\nA fully reversed matching crosses everything (complete graph):")
H2 = build_crossing_graph(validate(5, [0, 4, 3, 2, 1]), 0)
print(f"  edges: {H2.edges()}")

print("\nRe-anchoring obeys the exchange rules; spot-check all anchor pairs:")
ok = all(
    check_redrawing(PETERSEN, a, b).ok
    for a in range(5)
    for b in range(5)
    if a != b
)
print(f"  redrawing clauses hold for every (a, b): {ok}")

for fmt in ("svg", "dot"):
    doc = standard_drawing(PETERSEN, 0, fmt)
    path = OUT / f"petersen.{fmt}"
    path.write_text(doc)
    comment = doc.splitlines()[2 if fmt == "svg" else 0]
    print(f"\nwrote {path} ({comment.strip()})")

print("\nCompare the drawing's embedded count with the crossing graph:")
svg = standard_drawing(PETERSEN, 0, "svg")
drawn = int(re.search(r"crossings: (\d+)", svg).group(1))
combinatorial = build_crossing_graph(PETERSEN, 0).edge_count()
print(f"  drawing says {drawn} crossings; crossing graph edges: {combinatorial}")
assert drawn == combinatorial
print("\nThe embedded crossing count is the crossing graph's edge count.")
