"""Ground-truth enumeration and executable theorem checkers.

The Petersen census is exhaustive: every 5-subset of matching edges is
accounted for, and it reads no crossing graph.  (It could: a subset X
containing a is a witness iff X - a induces a P4 in the crossing graph at
a, a lemma proved in the tests; the census is the independent count the
witness engine is checked against.)  What makes it fast is that a
5-subset's verdict depends only on the rank pattern of sigma on it, and
only 10 of the 120 patterns certify.  The search takes the index pairs
x0 < x1 and, with a few big-int mask operations and one value threshold
per side of each pair, finds the x2s after x1 that some x3 < x4 could
still complete to one of those 10; only those x2 are visited.  It yields
each triple that passes as a block: the triple and the sorted slices of
later indices open to x3 and to x4.  The cost is the O(m^2) pair work
plus the visits, and on the paper's family G_k every visit yields a
block: G_150 (m = 457) takes 753 visits of its 15,596,035 triples.

enumerate_m_p10 lists every block's witnesses, in O(witnesses) memory,
and check_replace expands only the blocks through its two edges, up to
the first witness through both.
check_zhang and check_lower_bound count the blocks and count_per_edge
tallies them per edge, in O(m^2) memory, without listing.  census_report
tallies and keeps the blocks, from which `mpg census --json` is written.
The walk yields only live slice entries, each of which completes a
witness, so no reader skips any.  exhaustive_scan runs no walk: it
places the 10 patterns once for all m! instances (_placements).
"""

from __future__ import annotations

import itertools
from bisect import bisect, bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    MAX_M,
    PETERSEN_PATTERNS,
    FourCycle,
    MarkedPermutationGraph,
    PetersenWitness,
    _check_index,
    _integer,
    enumerate_m_c4,
    validate,
)
from .errors import (
    ExhaustedAttempts,
    IndicesNotDistinct,
    InvalidJobs,
    InvalidSeed,
    OutOfScanRange,
    TooLarge,
    TooSmall,
)

MAX_ATTEMPTS = 100000  # cap on random_instance's rejection draws
Block = tuple[int, int, int, tuple[int, ...], tuple[int, ...]]  # see _petersen_blocks


def _petersen_blocks(sigma: tuple[int, ...]) -> Iterator[Block]:
    """Every triple that some Petersen 5-subset extends, in lexicographic
    order, as a block ``(x0, x1, x2, x3s, x4s)``: the witnesses extending
    x0 < x1 < x2 are (x0, x1, x2, x3, x4) for x3 in x3s and x4 in x4s with
    x3 < x4, and both slices are sorted tuples.  They hold only live
    entries: each x3 precedes the last x4 and each x4 follows the first
    x3, so each completes at least one witness.

    In cyclic value order a Petersen pattern reads x0, x3, x1, x4, x2 or
    its reverse, so sigma[x3] must sit on the arc of values from s0 to s1
    that avoids s2, sigma[x4] on the arc from s1 to s2 that avoids s0, and
    every x3 < x4 after x2 with values on those arcs completes a witness.

    The pair x0 < x1 splits the indices after x1 into two sides: ``inner``,
    whose values lie between s0 and s1, and ``outer``, the rest.  The x3
    arc is the whole side that x2 is not on.  The x4 arc starts at s1 and
    ends at s2 without meeting s0, so it never leaves the arc between s0
    and s1 that holds s2: x4 is on x2's side.  Hence an x2 extends only if
    an other-side index follows it and a same-side index follows that one.
    In index order the indices after x1 form runs R1, ..., Rk that
    alternate sides, and Rk holds the last index, m - 1.  Lemma A: the x2s
    that pass are those in R1 .. R(k-2), the indices x1 + 1 .. y' where y'
    is the second-highest side switch (a y after x1 with y and y + 1 on
    different sides), and none when there are fewer than two switches.
    Each of them has the next run on the other side and the one after on
    its own, while R(k-1) is followed only by Rk.  Lemma B: the switches
    are one XOR of two rows.  swx[v] has bit y, for y < m - 1, set iff
    exactly one of sigma[y], sigma[y + 1] is below v.  Neither value of a
    pair after x1 is s0 or s1, so exactly one of them lies strictly
    between the two iff exactly one is below hi XOR exactly one is below
    lo, and the switches after x1 are (swx[s0] ^ swx[s1]) & after[x1].
    Without their highest bit they leave y' as the highest, and a pair
    with none left is dead, after about four mask operations.

    A value threshold per side narrows these.  The x4 of an x2 on side S
    has its value strictly between s1 and s2 on S's arc from s1, and it
    follows an x3, so it follows f, the other side's first index.  Let v
    be the value nearest s1 on that arc among the S-indices after f:
    ``vafter[f]`` holds the values of the indices after f as bits, and v
    is its lowest or highest bit in S's range, where the outer side's
    walk wraps through m - 1 -> 0.  v exists, since each x2 left on S has
    an S-index after an other-side one, and only the x2s on S whose
    values lie beyond v from s1 can extend: one vmask range per side.
    About twenty more mask operations per live pair give these x2s, and
    only those are visited.  The threshold is necessary, not sufficient,
    and the x3 arc after a visited x2 is not empty, so each takes two more
    tests, as masks: its x4 arc after x2 is not empty, and the first x3
    there precedes the last x4.  On G_k every visited x2 passes both.

    A block's two slices come from ring[x2], the indices after x2 in
    ascending order of value, twice over, so that an arc across the top of
    the value range is still one slice.  Within a pair x2 ascends, and an
    x3 slice is a whole side after x2, so it is a suffix of the first x3
    slice sorted on its side of the pair: only that one is cut and sorted,
    and the later ones are its tails.  An arc's slice starts at the count
    of indices after x2 with values below the end it leaves going up, and
    is as long as its mask: two popcounts per arc.  The arcs are disjoint,
    so no index is in both slices.  One more popcount each trims them to
    their live entries: the x3s below the last x4 lead the sorted x3
    slice, and the x4s below the first x3, which are dropped, lead the
    x4 slice.  ring[x2] is made when x2 yields its first block, in O(m),
    so an x2 without one costs no row.
    The mask tables take O(m^2) bits, and the walk costs the C(m, 2)
    pairs' switch tests, the live pairs' thresholds and its visits, and
    holds one block at a time.
    """
    m = len(sigma)
    inv = [0] * m
    for i, v in enumerate(sigma):
        inv[v] = i
    ring: list[list[int] | None] = [None] * m
    # masks of indices: vmask[v] those whose value is below v, swx[v] the
    # y < m - 1 with exactly one of sigma[y], sigma[y + 1] below v,
    # after[x] those above x, and under[x.bit_length()] those below x's
    # highest bit; a mask of values: vafter[x] those of the indices above x
    top = (1 << (m - 1)) - 1
    vmask = [0] * (m + 1)
    swx = [0] * (m + 1)
    for v in range(m):
        vmask[v + 1] = vmask[v] | 1 << inv[v]
        swx[v + 1] = swx[v] ^ (3 << inv[v] >> 1 & top)
    after = [-(2 << x) & vmask[m] for x in range(m)]
    under = [0] + [(1 << k) - 1 for k in range(m)]
    vafter = [0] * m
    for x in range(m - 1, 0, -1):
        vafter[x - 1] = vafter[x] | 1 << sigma[x]
    for x0 in range(m - 4):
        s0 = sigma[x0]
        w0 = swx[s0]
        for x1 in range(x0 + 1, m - 3):
            s1 = sigma[x1]
            later = after[x1]
            # the side switches after x1, less the last: none left, no x2
            sw = (w0 ^ swx[s1]) & later
            sw &= under[sw.bit_length()]
            if not sw:
                continue
            ok = later & under[sw.bit_length() + 1]
            lo, hi = (s0, s1) if s0 < s1 else (s1, s0)
            inner = (vmask[hi] ^ vmask[lo + 1]) & later
            outer = later ^ inner
            # each side keeps the x2s whose values lie beyond v from s1,
            # where v is the side's value nearest s1 after the other side's
            # first index; vals holds the side's values after that index
            span = (1 << hi) - (2 << lo)
            ins = ok & inner
            if ins:
                vals = vafter[(outer & -outer).bit_length() - 1] & span
                if s1 == lo:
                    ins &= ~vmask[(vals & -vals).bit_length()]
                else:
                    ins &= vmask[vals.bit_length() - 1]
            outs = ok & outer
            if outs:
                vals = vafter[(inner & -inner).bit_length() - 1] & ~span
                if s1 == hi:  # up from hi, through m - 1 -> 0
                    near = vals >> hi << hi or vals
                    v = (near & -near).bit_length() - 1
                    cut = vmask[v + 1] ^ vmask[lo]
                else:  # down from lo, through 0 -> m - 1
                    v = (vals & (1 << lo) - 1 or vals).bit_length() - 1
                    cut = vmask[v] ^ vmask[lo]
                # cut runs from lo to v: the values kept if the walk
                # wrapped to reach v, else the ones dropped
                outs &= cut if (v < lo) == (s1 == hi) else ~cut
            ok = ins | outs
            # x2 ascends, so an x3 slice is a suffix of the first one sorted
            # from the same side of this pair
            inner3 = outer3 = ()
            while ok:
                bit = ok & -ok
                ok ^= bit
                x2 = bit.bit_length() - 1
                s2 = sigma[x2]
                rest = after[x2]
                lo4, hi4 = (s1, s2) if s1 < s2 else (s2, s1)
                x4m = (vmask[hi4] ^ vmask[lo4 + 1]) & rest
                wrap4 = lo4 < s0 < hi4
                if wrap4:
                    x4m ^= rest
                wrap3 = lo < s2 < hi
                x3m = (outer if wrap3 else inner) & rest
                live3 = x3m & under[x4m.bit_length()]
                if not live3:
                    continue
                row = ring[x2]
                if row is None:
                    row = ring[x2] = [q for q in inv if q > x2] * 2
                n3 = x3m.bit_count()
                x3s = outer3 if wrap3 else inner3
                if x3s:
                    x3s = x3s[len(x3s) - n3 :]
                else:
                    # a wrapping arc leaves its upper end, into the second copy
                    i3 = (vmask[hi if wrap3 else lo] & rest).bit_count()
                    x3s = row[i3 : i3 + n3]
                    x3s.sort()
                    x3s = tuple(x3s)
                    if wrap3:
                        outer3 = x3s
                    else:
                        inner3 = x3s
                i4 = (vmask[hi4 if wrap4 else lo4] & rest).bit_count()
                x4s = row[i4 : i4 + x4m.bit_count()]
                x4s.sort()
                del x4s[: (x4m & (x3m & -x3m) - 1).bit_count()]
                yield x0, x1, x2, x3s[: live3.bit_count()], tuple(x4s)


def _count(sigma: tuple[int, ...]) -> int:
    """The number of Petersen 5-subsets, read off the blocks without
    listing them: each x3 completes one witness per later x4."""
    return sum(
        len(x4s) - bisect(x4s, x3) for _, _, _, x3s, x4s in _petersen_blocks(sigma) for x3 in x3s
    )


def _expand(blocks: Iterable[Block]) -> list[PetersenWitness]:
    """The witnesses of ``blocks``, in order: each x3 with each later x4."""
    return [
        (x0, x1, x2, x3, x4)
        for x0, x1, x2, x3s, x4s in blocks
        for x3 in x3s for x4 in x4s[bisect(x4s, x3):]
    ]


def _tally(m: int, blocks: Iterable[Block]) -> list[int]:
    """Per-edge witness counts from one pass over the blocks, in one
    bisect per slice entry: x0, x1 and x2 lie in all n witnesses of their
    block, an x3 in one per later x4 and an x4 in one per earlier x3.  The
    slices are disjoint, so bisect_left counts the x3s strictly before an
    x4."""
    counts = [0] * m
    for x0, x1, x2, x3s, x4s in blocks:
        k = len(x4s)
        n = 0
        for x3 in x3s:
            c = k - bisect(x4s, x3)
            counts[x3] += c
            n += c
        for x4 in x4s:
            counts[x4] += bisect_left(x3s, x4)
        counts[x0] += n
        counts[x1] += n
        counts[x2] += n
    return counts


def enumerate_m_p10(G: MarkedPermutationGraph, jobs: int = 1) -> list[PetersenWitness]:
    """All 5-subsets whose match-subgraph suppresses to the Petersen graph,
    in lexicographic order.  Empty when m < 5.

    The census is exhaustive and exact: a subset is a witness exactly when
    its rank pattern is in PETERSEN_PATTERNS, and the search drops a prefix
    only when its exact rank pattern cannot complete to one.  After O(m^2)
    tables, each of the C(m,2) pairs x0 < x1 costs one XOR of two switch
    rows and a few mask operations, and each live one a value threshold
    per side, which give the x2s that could still extend it; the other
    triples are never visited.  Each visited x2 costs a few more, and only
    a triple with some x3 before some x4 has its two slices of later
    indices sorted; each witness then costs O(1).  On G_k every visited x2
    yields a block, so the pairs are the cost: G_300 (m = 907) takes about
    0.11 s (2-core VM, Python 3.11).  Brute force costs C(m,5) subset
    checks whatever the answer.  The list takes O(witnesses)
    memory, up to C(m,5); check_zhang and count_per_edge count in O(m^2),
    and census_report keeps blocks.

    The search always runs in this process.  ``jobs`` changes nothing; it
    is kept, with jobs < 1 or not an integer raising InvalidJobs, only
    because the census benchmark's ``census.pool_speedup`` passes it, and
    both go with the next change to the benchmark.
    """
    jobs = _integer(jobs, InvalidJobs, "jobs=", jobs=jobs)
    if jobs < 1:
        raise InvalidJobs(f"jobs must be at least 1, got {jobs}", jobs=jobs)
    return _expand(_petersen_blocks(G.sigma))


def count_per_edge(G: MarkedPermutationGraph) -> list[int]:
    """The number of witnesses containing each A-index; sums to 5x the
    census size.  Tallied from the census blocks in O(m^2) memory, without
    listing any witness."""
    return _tally(G.m, _petersen_blocks(G.sigma))


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

class ZhangVerdict(NamedTuple):
    ok: bool
    c4_count: int
    p10_count: int


def _zhang(c4_count: int, p10_count: int) -> ZhangVerdict:
    return ZhangVerdict(ok=(c4_count >= 2 or p10_count >= 1), c4_count=c4_count, p10_count=p10_count)


def check_zhang(G: MarkedPermutationGraph) -> ZhangVerdict:
    """Every instance has two matched 4-cycles or a Petersen subdivision.

    The census is counted from its blocks and never listed, in O(m^2)
    memory and no more time than the listing: each block adds one count
    per x3, and m = 150 (50,664,590 witnesses) takes seconds, where the
    list would take gigabytes."""
    return _zhang(len(enumerate_m_c4(G)), _count(G.sigma))


class LowerBoundVerdict(NamedTuple):
    applicable: bool
    ok: bool
    p10_count: int
    required: int


def _lower_bound(G: MarkedPermutationGraph, c4_count: int, p10_count: int) -> LowerBoundVerdict:
    applicable = G.n >= 40 and c4_count == 0
    required = G.m - 4
    return LowerBoundVerdict(
        applicable=applicable,
        ok=(not applicable) or p10_count >= required,
        p10_count=p10_count,
        required=required,
    )


def check_lower_bound(G: MarkedPermutationGraph) -> LowerBoundVerdict:
    """On 4-cycle-free instances with at least 40 vertices, the census must
    reach n/2 - 4 = m - 4.

    The census is counted in O(m^2) memory and never listed, as in
    check_zhang."""
    return _lower_bound(G, len(enumerate_m_c4(G)), _count(G.sigma))


class ReplaceVerdict(NamedTuple):
    ok: bool
    branch: str | None  # "shared_witness" | "swap_equivalent"
    counterexample: tuple[int, ...] | None


def check_replace(G: MarkedPermutationGraph, a: int, b: int) -> ReplaceVerdict:
    """Either some witness holds both edges, or the two edges are freely
    interchangeable inside witnesses: for every 4-set F avoiding both,
    F+{a} certifies iff F+{b} does; else the lexicographically first F
    that fails is the counterexample.  With no witness through both, F+{a}
    certifies iff F = X-{a} for a witness X.  One walk of the census
    expands only the blocks that hold a or b, returns at the first
    witness through both, and else keeps X-{a} and X-{b} for those through
    one, in O(m^2 + those) memory, up to the first block above both."""
    a, b = _check_index(G, a), _check_index(G, b)
    if a == b:
        raise IndicesNotDistinct("edges must be distinct", a=a, b=b)
    with_a, with_b = set(), set()
    for x0, x1, x2, x3s, x4s in _petersen_blocks(G.sigma):
        if x0 > max(a, b):
            break
        if not {a, b}.isdisjoint((x0, x1, x2, *x3s, *x4s)):
            for X in _expand([(x0, x1, x2, x3s, x4s)]):
                if a in X and b in X:
                    return ReplaceVerdict(ok=True, branch="shared_witness", counterexample=None)
                if a in X:
                    with_a.add(tuple(x for x in X if x != a))
                elif b in X:
                    with_b.add(tuple(x for x in X if x != b))
    if with_a != with_b:
        return ReplaceVerdict(ok=False, branch=None, counterexample=min(with_a ^ with_b))
    return ReplaceVerdict(ok=True, branch="swap_equivalent", counterexample=None)


class RedrawingVerdict(NamedTuple):
    ok: bool
    failing_clause: int | None
    counterexample: tuple[int, ...] | None


def check_redrawing(G: MarkedPermutationGraph, a: int, b: int) -> RedrawingVerdict:
    """Re-anchoring rule: (i) a~x in H_b iff b~x in H_a; (ii) x~y in H_b
    iff an odd number of bx, by, xy are edges of H_a.

    In row form, H_b is H_a Seidel-switched at N = N_{H_a}(b), with a in
    b's place: row a of H_b is N, and row x of H_b is row x of H_a XOR N,
    complemented when b ~ x.  Each clause compares whole rows, O(m)
    big-int operations in all.  Rows a and b need no skip in clause (ii):
    once (i) holds, both leave nothing set.  The counterexample is the
    least x, or the least pair (x, y) with x < y, that breaks the rule."""
    from .crossing import build_crossing_graph  # imported here: no other census code reads one

    a, b = _check_index(G, a), _check_index(G, b)
    if a == b:
        raise IndicesNotDistinct("anchors must be distinct", a=a, b=b)
    Ha = build_crossing_graph(G, a)
    Hb = build_crossing_graph(G, b)
    others = ((1 << G.m) - 1) & ~(1 << a | 1 << b)
    nb = Ha.adj[b]
    diff = (Hb.adj[a] ^ nb) & others
    if diff:
        return RedrawingVerdict(ok=False, failing_clause=1, counterexample=(_lowest(diff),))
    for x in range(G.m):
        diff = (Hb.adj[x] ^ Ha.adj[x] ^ nb ^ -(nb >> x & 1)) & others & -(2 << x)
        if diff:
            return RedrawingVerdict(ok=False, failing_clause=2, counterexample=(x, _lowest(diff)))
    return RedrawingVerdict(ok=True, failing_clause=None, counterexample=None)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class CensusReport(NamedTuple):
    instance_id: str
    m: int
    four_cycles: tuple[FourCycle, ...]
    blocks: tuple[Block, ...]
    p10_count: int
    per_edge: tuple[int, ...]
    zhang_ok: bool
    lower_bound_applicable: bool
    lower_bound_ok: bool

    @property
    def c4_count(self) -> int:
        return len(self.four_cycles)

    @property
    def witnesses(self) -> tuple[PetersenWitness, ...]:
        """Every witness in lexicographic order, expanded from the blocks."""
        return tuple(_expand(self.blocks))

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance_id,
            "m": self.m,
            "c4_count": self.c4_count,
            "p10_count": self.p10_count,
            "c4_list": [[c.i, c.j] for c in self.four_cycles],
            "p10_list": _expand(self.blocks),
            "per_edge_counts": list(self.per_edge),
            "zhang_ok": self.zhang_ok,
            "lower_bound_applicable": self.lower_bound_applicable,
            "lower_bound_ok": self.lower_bound_ok,
        }


def census_report(G: MarkedPermutationGraph) -> CensusReport:
    """Full ground-truth report: all matched 4-cycles, the census blocks,
    per-edge counts, and the standing theorem flags, from one pass over the
    blocks.  Only ``witnesses`` and ``to_json_dict`` list the witnesses."""
    c4s = tuple(enumerate_m_c4(G))
    blocks = tuple(_petersen_blocks(G.sigma))
    per_edge = tuple(_tally(G.m, blocks))
    p10_count = sum(per_edge) // 5
    zh = _zhang(len(c4s), p10_count)
    lb = _lower_bound(G, len(c4s), p10_count)
    return CensusReport(
        instance_id=G.to_text(),
        m=G.m,
        four_cycles=c4s,
        blocks=blocks,
        p10_count=p10_count,
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
        lines = ["m,instance_index,c4_count,p10_count,violations"]
        lines += [f"{self.m},{r.instance_index},{r.c4_count},{r.p10_count},{r.violations}" for r in self.rows]
        return "\n".join(lines) + "\n"


def _qualifying_edges(G: MarkedPermutationGraph, c4s: Sequence[FourCycle]) -> list[int]:
    """Edges contained in every matched 4-cycle (all edges when there are
    none): the hypothesis of the main extraction theorem."""
    if not c4s:
        return list(range(G.m))
    edges = set(range(G.m))
    for c4 in c4s:
        edges &= {c4.i, c4.j}
        if not edges:
            break
    return sorted(edges)


def _placements(m: int) -> dict[tuple[int, ...], tuple[PetersenWitness, ...]]:
    """Every sigma of size m, in itertools.permutations order, with its
    Petersen witnesses in lexicographic order, from one pass over the
    placements of the patterns rather than one census walk per sigma.

    X is a witness of sigma iff sigma has a pattern P of PETERSEN_PATTERNS
    on it: sigma[X[i]] = V[P[i]] for the sorted 5-set V of values on X.  So
    each position 5-set X, value 5-set V, pattern P and bijection of the
    other m - 5 positions onto the other m - 5 values places X in exactly
    one sigma, and every witness of every sigma is placed once: the pass
    takes the sum of the census sizes, 8,820 steps at m = 7.  A row lists
    V's values in P's order, then one bijection's values; it does not
    depend on X, and X's getter lays it out as sigma, X's positions first
    and then the others in ascending order.  Each sigma's witnesses are a
    tuple, grown one witness at a time: at m = 7 a sigma has 1.75 on
    average, and a tuple holds them in less memory than a list."""
    placed = dict.fromkeys(itertools.permutations(range(m)), ())
    rows = [
        tuple(V[p] for p in P) + rest
        for V in itertools.combinations(range(m), 5)
        for P in PETERSEN_PATTERNS
        for rest in itertools.permutations(v for v in range(m) if v not in V)
    ]
    for X in itertools.combinations(range(m), 5):
        order = X + tuple(x for x in range(m) if x not in X)
        layout = sorted(range(m), key=order.__getitem__)  # order's inverse
        for sigma in map(itemgetter(*layout), rows):
            placed[sigma] += (X,)
    return placed


def exhaustive_scan(m: int) -> ScanReport:
    """Run every m! instance through the zhang check and, for every edge
    satisfying the extraction precondition, the witness engine, in one
    process.  Symmetry deduplication is deliberately not applied:
    correctness over speed.

    The witnesses of all m! instances come from one pass over the
    placements of the ten Petersen patterns (_placements), one step per
    witness, not from m! census walks.  Each instance still lists its
    matched 4-cycles, and each qualifying edge runs the public
    find_p10_through, read from the witness module at call time, whose
    witness must hold the edge and be one of the instance's."""
    from .witness import find_p10_through  # imported here: no other census code runs the engine

    m = _integer(m, OutOfScanRange, "scan m=", m=m)
    if not 3 <= m <= 8:
        raise OutOfScanRange(f"scan supports 3 <= m <= 8, got {m}", m=m)
    rows: list[ScanRow] = []
    violations: list[dict] = []
    runs = 0

    def record(kind: str, **fields) -> None:
        # index and sigma are read when called: the loop's current instance
        violations.append({"instance_index": index, "sigma": list(sigma), "kind": kind, **fields})

    for index, (sigma, wits) in enumerate(_placements(m).items()):
        G = MarkedPermutationGraph(m, sigma)
        c4s = enumerate_m_c4(G)
        before = len(violations)
        if not _zhang(len(c4s), len(wits)).ok:
            record("zhang_fail")
        for e in _qualifying_edges(G, c4s):
            runs += 1
            try:
                X, _trace = find_p10_through(G, e)
            except Exception as exc:  # noqa: BLE001 - scans must record, not crash
                record("witness_error", edge=e, detail=repr(exc))
                continue
            if e not in X or X not in wits:
                record("witness_unsound", edge=e, witness=list(X))
        rows.append(ScanRow(index, sigma, len(c4s), len(wits), len(violations) - before))
    return ScanReport(
        m=m,
        instance_count=len(rows),
        rows=tuple(rows),
        violations=tuple(violations),
        witness_runs=runs,
    )


def random_instance(m: int, seed: int, require_c4_free: bool = False) -> MarkedPermutationGraph:
    """Uniform random sigma from a counter-based Philox stream, optionally
    rejection-sampled, at most MAX_ATTEMPTS draws, until no matched 4-cycle
    remains; past the cap it raises ExhaustedAttempts.  The seed is the
    Philox key, so 0 <= seed < 2**128; others, and a seed that is not an
    integer, raise InvalidSeed.  m above MAX_M raises TooLarge, and m below
    3 or not an integer TooSmall.  A require_c4_free that is not False or
    True (0, 1 and numpy bools are) raises TypeError.  numpy is imported
    here, after those checks, not at module level, so that importing
    mpgraphs does not load it."""
    if require_c4_free not in (False, True):
        raise TypeError(f"require_c4_free={require_c4_free!r} is not a bool")
    m = _integer(m, TooSmall, "half-order m=", m=m)
    seed = _integer(seed, InvalidSeed, "seed ", seed=seed)
    if m > MAX_M:
        raise TooLarge(f"m={m} above the limit {MAX_M}", m=m, limit=MAX_M)
    if not 0 <= seed < 2**128:
        raise InvalidSeed(f"seed {seed} outside 0..2**128-1", seed=seed)
    if m < 3:
        raise TooSmall(f"half-order m={m} below minimum 3", m=m)
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(MAX_ATTEMPTS):
        G = validate(m, rng.permutation(m).tolist())
        if not require_c4_free or not enumerate_m_c4(G):
            return G
    raise ExhaustedAttempts(
        f"no 4-cycle-free instance with m={m} in {MAX_ATTEMPTS} attempts",
        m=m,
        seed=seed,
        attempts=MAX_ATTEMPTS,
    )
