"""Output oracle: golden digests plus checks that do not use mpgraphs' own
algorithms.

The independent census rests on one fact derived here from first
principles: for a 5-subset x0 < ... < x4 the suppressed match-subgraph is
the A-side 5-cycle x0..x4, the A'-side 5-cycle of the sorted images, and
the matching between them, so whether it is the Petersen graph depends only
on the rank pattern of sigma on the subset.  ``PETERSEN_PATTERNS`` is
computed by building each of the 120 candidate graphs and testing for a
3-regular graph of girth 5 on 10 vertices (the (3,5)-cage) with a plain BFS.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _girth(adj: list[list[int]]) -> int:
    best = len(adj) + 1
    for s in range(len(adj)):
        dist = [-1] * len(adj)
        parent = [-1] * len(adj)
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v], parent[v] = dist[u] + 1, u
                    q.append(v)
                elif parent[u] != v:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


def _pattern_is_petersen(tau: tuple[int, ...]) -> bool:
    adj: list[list[int]] = [[] for _ in range(10)]
    for i in range(5):
        for u, v in ((i, (i + 1) % 5), (5 + i, 5 + (i + 1) % 5), (i, 5 + tau[i])):
            adj[u].append(v)
            adj[v].append(u)
    return _girth(adj) == 5


PETERSEN_PATTERNS = frozenset(
    tau for tau in itertools.permutations(range(5)) if _pattern_is_petersen(tau)
)


def _rank_pattern(vals: tuple[int, ...]) -> tuple[int, ...]:
    order = sorted(range(len(vals)), key=vals.__getitem__)
    tau = [0] * len(vals)
    for rank, pos in enumerate(order):
        tau[pos] = rank
    return tuple(tau)


def is_witness(sigma: tuple[int, ...], X) -> bool:
    X = tuple(sorted(X))
    return len(set(X)) == 5 and _rank_pattern(tuple(sigma[x] for x in X)) in PETERSEN_PATTERNS


def four_cycles(sigma: tuple[int, ...]) -> list[tuple[int, int]]:
    m = len(sigma)
    return [
        (i, (i + 1) % m)
        for i in range(m)
        if (sigma[(i + 1) % m] - sigma[i]) % m in (1, m - 1)
    ]


def witnesses(sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All Petersen 5-subsets in lexicographic order.  The search grows each
    subset one index at a time and drops a prefix as soon as its rank
    pattern is not a prefix pattern of any Petersen pattern."""
    prefixes = [
        {_rank_pattern(tau[:k]) for tau in PETERSEN_PATTERNS} for k in range(6)
    ]
    m = len(sigma)
    out: list[tuple[int, ...]] = []

    def grow(chosen: list[int]) -> None:
        k = len(chosen)
        if k == 5:
            out.append(tuple(chosen))
            return
        for x in range(chosen[-1] + 1 if chosen else 0, m - 4 + k):
            chosen.append(x)
            if _rank_pattern(tuple(sigma[i] for i in chosen)) in prefixes[k + 1]:
                grow(chosen)
            chosen.pop()

    grow([])
    return out


def check_census_json(sigma: tuple[int, ...], text: str) -> str | None:
    """None when a ``census --json`` report is exactly right, else why not."""
    report = json.loads(text)
    m = len(sigma)
    c4 = four_cycles(sigma)
    wits = witnesses(sigma)
    per_edge = [sum(x in X for X in wits) for x in range(m)]
    applicable = 2 * m >= 40 and not c4
    expected = {
        "m": m,
        "c4_count": len(c4),
        "p10_count": len(wits),
        "c4_list": [list(c) for c in c4],
        "p10_list": [list(X) for X in wits],
        "per_edge_counts": per_edge,
        "zhang_ok": len(c4) >= 2 or len(wits) >= 1,
        "lower_bound_applicable": applicable,
        "lower_bound_ok": (not applicable) or len(wits) >= m - 4,
    }
    for key, want in expected.items():
        if report.get(key) != want:
            return f"census field {key} differs from the independent census"
    return None


def check_witness_json(sigma: tuple[int, ...], e: int, text: str) -> str | None:
    """None when a ``witness`` report holds a Petersen 5-subset through e."""
    report = json.loads(text)
    X = report["edges"]
    if e not in X:
        return f"witness {X} misses edge {e}"
    if X != sorted(X) or not is_witness(sigma, X):
        return f"witness {X} is not a Petersen subdivision"
    steps = report["trace"]
    if not steps or steps[-1]["step"] != "P4Found":
        return "trace does not end in P4Found"
    return None
