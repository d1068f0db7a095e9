"""Ground-truth enumeration and executable theorem checkers.

The Petersen census is exhaustive: every 5-subset of matching edges is
accounted for, and it reads no crossing graph.  (It could: a subset X
containing a is a witness iff X - a induces a P4 in the crossing graph at
a, a lemma proved in the tests; the census is the independent count the
witness engine is checked against.)  What makes it fast is that a
5-subset's verdict depends only on the rank pattern of sigma on it, and
only 10 of the 120 patterns certify; the search walks the index triples
x0 < x1 < x2 and, from a per-position rank table ``below``, rules out each
triple that no x3 < x4 after it can complete to one of those 10 before
slicing anything, then lists the completions of the rest.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from bisect import bisect
from math import factorial
from typing import Callable, NamedTuple, Sequence

from .core import (
    MAX_M,
    FourCycle,
    MarkedPermutationGraph,
    _check_index,
    enumerate_m_c4,
    validate,
)
from .crossing import build_crossing_graph
from .errors import (
    ExhaustedAttempts,
    IndicesNotDistinct,
    InvalidAttempts,
    InvalidJobs,
    InvalidSeed,
    OutOfScanRange,
    TooLarge,
)
from .witness import PetersenWitness, _find_p10_through


def _petersen_search(sigma: tuple[int, ...]) -> list[PetersenWitness]:
    """Every Petersen 5-subset, in lexicographic order.

    x0 < x1 < x2 run over all triples.  In cyclic value order a Petersen
    pattern reads x0, x3, x1, x4, x2 or its reverse, so sigma[x3] must sit
    on the arc of values from s0 to s1 that avoids s2, sigma[x4] on the arc
    from s1 to s2 that avoids s0, and every x3 < x4 after x2 with values on
    those arcs completes a witness.  The indices after x2 with values on an
    arc are one slice of ring[x2], and below[x2] gives the slice's bounds.

    A triple is dropped at the first of three tests it fails: its x4 arc
    is empty (two lookups in below[x2]), its x3 arc is empty (two more, and
    equal bounds), or no x3 precedes an x4 (min of the x3 slice above max
    of the x4 slice).  Only triples that pass the first two are sliced, and
    only those that pass all three are sorted and listed, at O(1) per
    witness.
    """
    m = len(sigma)
    inv = [0] * m
    for i, v in enumerate(sigma):
        inv[v] = i
    # below[p][v]: how many q > p have sigma[q] < v; ring[p]: those q in
    # ascending order of sigma[q], twice over, so that an arc across the
    # top of the value range is still one slice
    below = [[0] * (m + 1)]
    for s in reversed(sigma[1:]):
        prev = below[-1]
        below.append(prev[: s + 1] + [c + 1 for c in prev[s + 1 :]])
    below.reverse()
    ring = [[q for q in inv if q > p] * 2 for p in range(m)]
    out: list[PetersenWitness] = []
    for x0 in range(m):
        s0 = sigma[x0]
        for x1 in range(x0 + 1, m - 3):
            s1 = sigma[x1]
            lo3, hi3 = (s0, s1) if s0 < s1 else (s1, s0)
            for x2 in range(x1 + 1, m - 2):
                s2 = sigma[x2]
                row = below[x2]
                # the values open to x4 are those between lo4 and hi4, or,
                # when s0 lies between them, those above hi4 and then below
                # lo4, which run on into ring's second copy
                lo4, hi4 = (s1, s2) if s1 < s2 else (s2, s1)
                i4, j4 = row[lo4], row[hi4]
                if lo4 < s0 < hi4:
                    i4, j4 = j4, m - 1 - x2 + i4
                if i4 == j4:
                    continue
                i3, j3 = row[lo3], row[hi3]
                if lo3 < s2 < hi3:
                    i3, j3 = j3, m - 1 - x2 + i3
                if i3 == j3:
                    continue
                x3s = ring[x2][i3:j3]
                x4s = ring[x2][i4:j4]
                if min(x3s) > max(x4s):
                    continue
                x4s.sort()
                x3s.sort()
                out += [(x0, x1, x2, x3, x4) for x3 in x3s for x4 in x4s[bisect(x4s, x3):]]
    return out


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise InvalidJobs(f"jobs must be at least 1, got {jobs}", jobs=jobs)


def _fan_out(worker: Callable[..., object], head: tuple, n: int, jobs: int) -> list:
    """Split range(n) into at most ``jobs`` contiguous pieces of about
    equal length and return ``worker(*head, start, stop)`` for each piece,
    in order.  More than one piece runs in a process pool; only then is
    multiprocessing imported, so ``import mpgraphs`` does not load it.

    ``jobs`` below 1 raises InvalidJobs before any process starts; above
    os.cpu_count() it is capped, which changes no result.
    """
    _check_jobs(jobs)
    jobs = min(jobs, os.cpu_count() or 1)
    bounds = [-(-n * i // jobs) for i in range(jobs + 1)]
    tasks = [(*head, a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    if len(tasks) <= 1:
        return [worker(*task) for task in tasks]
    import multiprocessing

    with multiprocessing.Pool(len(tasks)) as pool:
        return pool.starmap(worker, tasks)


def enumerate_m_p10(G: MarkedPermutationGraph, jobs: int = 1) -> list[PetersenWitness]:
    """All 5-subsets whose match-subgraph suppresses to the Petersen graph,
    in lexicographic order.  Empty when m < 5.

    The census is exhaustive and exact: a subset is a witness exactly when
    its rank pattern is in PETERSEN_PATTERNS, and the search drops a prefix
    only when its exact rank pattern cannot complete to one.  After an
    O(m^2) table, each of the C(m,3) triples x0 < x1 < x2 costs two lookups
    when no later value lies where a Petersen pattern needs x4, and two more
    when none lies where it needs x3.  Only a triple with some x3 before
    some x4 has its two slices of later indices sorted, and each witness
    then costs O(1); brute force costs C(m,5) subset checks whatever the
    answer.

    The search always runs in this process: starting workers and pickling
    the witness lists back cost more than the search itself, on the family
    and on random instances alike.  ``jobs`` is accepted for compatibility
    and changes nothing, but jobs < 1 still raises InvalidJobs.
    """
    _check_jobs(jobs)
    return _petersen_search(G.sigma)


def count_per_edge(G: MarkedPermutationGraph, witnesses: Sequence[PetersenWitness] | None = None) -> list[int]:
    """witnesses-containing count per A-index; sums to 5x the census size."""
    if witnesses is None:
        witnesses = enumerate_m_p10(G)
    counts = [0] * G.m
    for X in witnesses:
        for x in X:
            counts[x] += 1
    return counts


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

class ZhangVerdict(NamedTuple):
    ok: bool
    c4_count: int
    p10_count: int

    def to_json_dict(self) -> dict:
        return {"lemma": "zhang", **self._asdict()}


def check_zhang(
    G: MarkedPermutationGraph,
    witnesses: Sequence[PetersenWitness] | None = None,
) -> ZhangVerdict:
    """Every instance has two matched 4-cycles or a Petersen subdivision."""
    c4 = len(enumerate_m_c4(G))
    p10 = len(enumerate_m_p10(G) if witnesses is None else witnesses)
    return ZhangVerdict(ok=(c4 >= 2 or p10 >= 1), c4_count=c4, p10_count=p10)


class LowerBoundVerdict(NamedTuple):
    applicable: bool
    ok: bool
    p10_count: int
    required: int

    def to_json_dict(self) -> dict:
        return {"lemma": "lower", **self._asdict()}


def check_lower_bound(
    G: MarkedPermutationGraph,
    witnesses: Sequence[PetersenWitness] | None = None,
) -> LowerBoundVerdict:
    """On 4-cycle-free instances with at least 40 vertices, the census must
    reach n/2 - 4 = m - 4."""
    applicable = G.n >= 40 and not enumerate_m_c4(G)
    p10 = len(enumerate_m_p10(G) if witnesses is None else witnesses)
    required = G.m - 4
    return LowerBoundVerdict(
        applicable=applicable,
        ok=(not applicable) or p10 >= required,
        p10_count=p10,
        required=required,
    )


class ReplaceVerdict(NamedTuple):
    ok: bool
    branch: str | None  # "shared_witness" | "swap_equivalent"
    counterexample: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        cx = self.counterexample
        return {"lemma": "replace", **self._asdict(), "counterexample": list(cx) if cx else None}


def check_replace(
    G: MarkedPermutationGraph,
    a: int,
    b: int,
    witnesses: Sequence[PetersenWitness] | None = None,
) -> ReplaceVerdict:
    """Either some witness holds both edges, or the two edges are freely
    interchangeable inside witnesses: for every 4-set F avoiding both,
    F+{a} certifies iff F+{b} does; else the lexicographically first F
    that fails is the counterexample.  With no witness through both, F+{a}
    certifies iff F = X-{a} for a witness X, so this costs one census plus
    one pass over it; ``witnesses``, when given, must be G's census."""
    _check_index(G, a)
    _check_index(G, b)
    if a == b:
        raise IndicesNotDistinct("edges must be distinct", a=a, b=b)
    if witnesses is None:
        witnesses = enumerate_m_p10(G)
    if any(a in X and b in X for X in witnesses):
        return ReplaceVerdict(ok=True, branch="shared_witness", counterexample=None)
    with_a = {tuple(x for x in X if x != a) for X in witnesses if a in X}
    with_b = {tuple(x for x in X if x != b) for X in witnesses if b in X}
    if with_a != with_b:
        return ReplaceVerdict(ok=False, branch=None, counterexample=min(with_a ^ with_b))
    return ReplaceVerdict(ok=True, branch="swap_equivalent", counterexample=None)


class RedrawingVerdict(NamedTuple):
    ok: bool
    failing_clause: int | None
    counterexample: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        cx = self.counterexample
        return {"lemma": "redrawing", **self._asdict(), "counterexample": list(cx) if cx else None}


def check_redrawing(G: MarkedPermutationGraph, a: int, b: int) -> RedrawingVerdict:
    """Re-anchoring rule: (i) a~x in H_b iff b~x in H_a; (ii) x~y in H_b
    iff an odd number of bx, by, xy are edges of H_a."""
    _check_index(G, a)
    _check_index(G, b)
    if a == b:
        raise IndicesNotDistinct("anchors must be distinct", a=a, b=b)
    Ha = build_crossing_graph(G, a)
    Hb = build_crossing_graph(G, b)
    others = [v for v in range(G.m) if v not in (a, b)]
    for x in others:
        if Hb.has_edge(a, x) != Ha.has_edge(b, x):
            return RedrawingVerdict(ok=False, failing_clause=1, counterexample=(x,))
    for x, y in itertools.combinations(others, 2):
        odd = (
            int(Ha.has_edge(b, x)) + int(Ha.has_edge(b, y)) + int(Ha.has_edge(x, y))
        ) % 2 == 1
        if Hb.has_edge(x, y) != odd:
            return RedrawingVerdict(ok=False, failing_clause=2, counterexample=(x, y))
    return RedrawingVerdict(ok=True, failing_clause=None, counterexample=None)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class CensusReport(NamedTuple):
    instance_id: str
    m: int
    four_cycles: tuple[FourCycle, ...]
    witnesses: tuple[PetersenWitness, ...]
    per_edge: tuple[int, ...]
    zhang_ok: bool
    lower_bound_applicable: bool
    lower_bound_ok: bool

    @property
    def c4_count(self) -> int:
        return len(self.four_cycles)

    @property
    def p10_count(self) -> int:
        return len(self.witnesses)

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance_id,
            "m": self.m,
            "c4_count": self.c4_count,
            "p10_count": self.p10_count,
            "c4_list": [[c.i, c.j] for c in self.four_cycles],
            "p10_list": list(self.witnesses),
            "per_edge_counts": list(self.per_edge),
            "zhang_ok": self.zhang_ok,
            "lower_bound_applicable": self.lower_bound_applicable,
            "lower_bound_ok": self.lower_bound_ok,
        }


def census_report(G: MarkedPermutationGraph, jobs: int = 1) -> CensusReport:
    """Full ground-truth report: all matched 4-cycles, all witnesses,
    per-edge counts, and the standing theorem flags."""
    c4s = tuple(enumerate_m_c4(G))
    wits = tuple(enumerate_m_p10(G, jobs=jobs))
    per_edge = tuple(count_per_edge(G, wits))
    zh = check_zhang(G, wits)
    lb = check_lower_bound(G, wits)
    return CensusReport(
        instance_id=G.to_text(),
        m=G.m,
        four_cycles=c4s,
        witnesses=wits,
        per_edge=per_edge,
        zhang_ok=zh.ok,
        lower_bound_applicable=lb.applicable,
        lower_bound_ok=lb.ok,
    )


class ScanRow(NamedTuple):
    instance_index: int
    sigma: tuple[int, ...]
    c4_count: int
    p10_count: int
    violations: int


class ScanReport(NamedTuple):
    m: int
    instance_count: int
    rows: tuple[ScanRow, ...]
    violations: tuple[dict, ...]
    witness_runs: int

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "instance_count": self.instance_count,
            "witness_runs": self.witness_runs,
            "violation_count": self.violation_count,
            "violations": list(self.violations),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "instance_index", "c4_count", "p10_count", "violations"])
        for row in self.rows:
            writer.writerow([self.m, row.instance_index, row.c4_count, row.p10_count, row.violations])
        return buf.getvalue()


def _qualifying_edges(G: MarkedPermutationGraph, c4s: Sequence[FourCycle]) -> list[int]:
    """Edges contained in every matched 4-cycle (all edges when there are
    none): the hypothesis of the main extraction theorem."""
    edges = set(range(G.m))
    for c4 in c4s:
        edges &= {c4.i, c4.j}
        if not edges:
            break
    return sorted(edges)


def _scan_instance(
    index: int, G: MarkedPermutationGraph
) -> tuple[ScanRow, list[dict], int]:
    c4s = enumerate_m_c4(G)
    wits = enumerate_m_p10(G)
    wit_set = set(wits)
    violations: list[dict] = []
    if not (len(c4s) >= 2 or len(wits) >= 1):
        violations.append(
            {"instance_index": index, "sigma": list(G.sigma), "kind": "zhang_fail"}
        )
    runs = 0
    for e in _qualifying_edges(G, c4s):
        runs += 1
        try:
            X, _trace = _find_p10_through(G, e, c4s)
        except Exception as exc:  # noqa: BLE001 - scans must record, not crash
            violations.append(
                {
                    "instance_index": index,
                    "sigma": list(G.sigma),
                    "kind": "witness_error",
                    "edge": e,
                    "detail": repr(exc),
                }
            )
            continue
        if e not in X or X not in wit_set:
            violations.append(
                {
                    "instance_index": index,
                    "sigma": list(G.sigma),
                    "kind": "witness_unsound",
                    "edge": e,
                    "witness": list(X),
                }
            )
    row = ScanRow(index, G.sigma, len(c4s), len(wits), len(violations))
    return row, violations, runs


def _scan_range_worker(m: int, start: int, stop: int) -> tuple[list[ScanRow], list[dict], int]:
    rows: list[ScanRow] = []
    violations: list[dict] = []
    runs = 0
    perms = itertools.islice(itertools.permutations(range(m)), start, stop)
    for offset, sigma in enumerate(perms):
        row, viol, r = _scan_instance(start + offset, MarkedPermutationGraph(m, sigma))
        rows.append(row)
        violations.extend(viol)
        runs += r
    return rows, violations, runs


def exhaustive_scan(m: int, jobs: int = 1) -> ScanReport:
    """Run every m! instance through the zhang check and, for every edge
    satisfying the extraction precondition, the witness engine.  Symmetry
    deduplication is deliberately not applied: correctness over speed.
    jobs < 1 raises InvalidJobs; jobs is capped at os.cpu_count()."""
    if not 3 <= m <= 8:
        raise OutOfScanRange(f"scan supports 3 <= m <= 8, got {m}", m=m)
    total = factorial(m)
    parts = _fan_out(_scan_range_worker, (m,), total, jobs)
    return ScanReport(
        m=m,
        instance_count=total,
        rows=tuple(row for part in parts for row in part[0]),
        violations=tuple(v for part in parts for v in part[1]),
        witness_runs=sum(part[2] for part in parts),
    )


def random_instance(
    m: int,
    seed: int,
    require_c4_free: bool = False,
    max_attempts: int = 1000,
) -> MarkedPermutationGraph:
    """Uniform random sigma from a counter-based Philox stream, optionally
    rejection-sampled until no matched 4-cycle remains.  The seed is the
    Philox key, so 0 <= seed < 2**128; others raise InvalidSeed.
    max_attempts below 1 raises InvalidAttempts, and m above MAX_M raises
    TooLarge.  numpy is imported here, after those checks, not at module
    level, so that importing mpgraphs does not load it."""
    if m > MAX_M:
        raise TooLarge(f"m={m} above the limit {MAX_M}", m=m, limit=MAX_M)
    if not 0 <= seed < 2**128:
        raise InvalidSeed(f"seed {seed} outside 0..2**128-1", seed=seed)
    if max_attempts < 1:
        raise InvalidAttempts(
            f"max_attempts must be at least 1, got {max_attempts}", max_attempts=max_attempts
        )
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(max_attempts):
        G = validate(m, [int(v) for v in rng.permutation(m)])
        if not require_c4_free or not enumerate_m_c4(G):
            return G
    raise ExhaustedAttempts(
        f"no 4-cycle-free instance with m={m} in {max_attempts} attempts",
        m=m,
        seed=seed,
        attempts=max_attempts,
    )
