"""Tour of the instance encoding and the brute-force census.

A marked permutation graph is (m, sigma): two chordless m-cycles plus the
perfect matching i -- sigma[i].  The census enumerates every matched
4-cycle and every 5-subset of matching edges whose match-subgraph
suppresses to the Petersen graph.
"""

from mpgraphs import PETERSEN, PRISM, census_report, girth, suppress_match, validate

print("=" * 64)
print("The two named fixtures")
print("=" * 64)

for name, G in [("prism", PRISM), ("petersen", PETERSEN)]:
    report = census_report(G)
    print(f"\n{name}: {G.to_text()}")
    print(f"  vertices:          {G.n}")
    print(f"  matched 4-cycles:  {report.c4_count}  {[tuple(c) for c in report.four_cycles]}")
    print(f"  petersen copies:   {report.p10_count}  {[list(X) for X in report.witnesses]}")
    print(f"  per-edge counts:   {list(report.per_edge)}")

print()
print("=" * 64)
print("Suppression at work")
print("=" * 64)

print(
    """
Keeping all five matching edges of the petersen fixture suppresses
nothing; the match-subgraph IS the Petersen graph:"""
)
S = suppress_match(PETERSEN, range(5))
print(f"  vertices={S.n}, edges={len(S.edges)}, girth={girth(S)}")

print(
    """
Keeping only two edges collapses each cycle to a pair of parallel arcs,
so the girth drops to 2 and recognition rejects it:"""
)
S2 = suppress_match(PETERSEN, {0, 1})
print(f"  vertices={S2.n}, labels={S2.labels}")
print(f"  edges={list(S2.edges)}")
print(f"  girth={girth(S2)}")

print(
    """
An aligned matching (the pentagonal prism) has 10 vertices and degree 3
everywhere, but its 4-cycles disqualify it:"""
)
S3 = suppress_match(validate(5, [0, 1, 2, 3, 4]), range(5))
print(f"  girth={girth(S3)} -> not a Petersen copy")
