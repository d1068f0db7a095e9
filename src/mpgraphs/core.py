"""Marked permutation graphs: encoding, validation, elementary structure.

An instance is the pair ``(m, sigma)``: two chordless m-cycles
(A-side ``0-1-...-(m-1)-0`` and A'-side likewise) joined by the perfect
matching ``i -- sigma[i]``.  Everything downstream (crossing graphs,
witness extraction, censuses) works on this encoding.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    IndexOutOfRange,
    InstanceTextError,
    InvalidSymmetry,
    LengthMismatch,
    MpgError,
    NoCycle,
    NotAPermutation,
    TooFewEdges,
    TooLarge,
    TooSmall,
)


# Largest m that random_instance and generate_gk build and parse_instances
# reads: far above what a census finishes on, and built in seconds.
MAX_M = 10**6


class FourCycle(NamedTuple):
    """A matched 4-cycle, keyed by its A-side index pair.

    Invariant: ``j == (i + 1) % m`` and ``sigma[j] == sigma[i] +- 1 (mod m)``;
    the A'-side pair is derived from sigma, never stored.
    """

    i: int
    j: int


class MarkedPermutationGraph(NamedTuple):
    """Immutable instance; construct through :func:`validate`."""

    m: int
    sigma: tuple[int, ...]

    @property
    def n(self) -> int:
        return 2 * self.m

    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.m
        for i, v in enumerate(self.sigma):
            inv[v] = i
        return tuple(inv)

    def to_text(self) -> str:
        return f"{self.m} " + ("%d" + " %d" * (self.m - 1)) % self.sigma

    def __repr__(self) -> str:  # compact; sigma can be long
        return f"MarkedPermutationGraph({self.m}, {list(self.sigma)})"


def _integer(value: object, error: type[MpgError], label: str, **certificate: object) -> int:
    """operator.index(value), or error(f"{label}{value!r} is not an integer", **certificate)."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{label}{value!r} is not an integer", **certificate) from None


def validate(m: int, sigma: Sequence[int]) -> MarkedPermutationGraph:
    """Check the (m, sigma) invariants and return the immutable instance.

    Raises TooSmall, LengthMismatch or NotAPermutation with the offending
    datum in the certificate.  m and every entry are read through
    operator.index, so Python and numpy integers pass and anything else
    (a float, a string) is refused, not truncated: a non-integral m raises
    TooSmall, and a non-integral entry NotAPermutation with its index.
    sigma is built once: one list whose entries become their integers in
    place, beside a bytearray of the values seen.
    """
    m = _half_order(m)
    return _validate_list(m, list(sigma))


def _half_order(m: object) -> int:
    """m as a Python int of at least 3, or TooSmall."""
    m = _integer(m, TooSmall, "half-order m=", m=m)
    if m < 3:
        raise TooSmall(f"half-order m={m} below minimum 3", m=m)
    return m


def _validate_list(m: int, sigma: list) -> MarkedPermutationGraph:
    """validate's sigma checks on a list of the caller's own, whose entries
    become their integers in place; m is a checked half-order."""
    if len(sigma) != m:
        raise LengthMismatch(
            f"sigma has {len(sigma)} entries, expected {m}",
            m=m,
            length=len(sigma),
        )
    seen = bytearray(m)
    for i, v in enumerate(sigma):
        try:
            v = operator.index(v)
        except TypeError:
            raise NotAPermutation(f"sigma[{i}]={v!r} is not an integer", index=i, value=v) from None
        if not 0 <= v < m:
            raise NotAPermutation(f"sigma[{i}]={v} out of range", index=i, value=v)
        if seen[v]:
            raise NotAPermutation(f"duplicate value {v} at index {i}", index=i, value=v)
        seen[v] = 1
        sigma[i] = v
    return MarkedPermutationGraph(m, tuple(sigma))


# ---------------------------------------------------------------------------
# Text instance format: integer tokens, first is m, then m sigma entries.
# Lines starting with '#' are comments; a file may hold several instances.
# ---------------------------------------------------------------------------

# str.splitlines' line boundaries: each match is one non-empty line, whose
# tokens _WORD finds in the text itself, when the reader gets to them
_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")
_WORD = re.compile(r"\S+")


def _tokens(text: str) -> Iterator[int]:
    for line in _LINE.finditer(text):
        first = _WORD.search(text, *line.span())
        if first is None or text.startswith("#", first.start()):
            continue  # a blank line or a comment
        for word in _WORD.finditer(text, first.start(), line.end()):
            tok = word.group()
            try:
                # base-10 int() reads an ASCII token without "_" iff it is [+-]?[0-9]+
                if not tok.isascii() or "_" in tok:  # int() alone takes 1_3, ٣ and ３
                    raise ValueError(tok)
                yield int(tok)  # ValueError past int's digit limit
            except ValueError:
                raise InstanceTextError(f"non-integer token {tok!r}", token=tok) from None


def _read_instances(tokens: Iterator[int]) -> Iterator[MarkedPermutationGraph]:
    """Each instance in turn, validated, taking from tokens only its header
    and its m entries, into a list that becomes sigma in place."""
    for m in tokens:
        if m > MAX_M:
            raise TooLarge(f"m={m} above the limit {MAX_M}", m=m, limit=MAX_M)
        sigma = list(itertools.islice(tokens, max(m, 0)))
        if len(sigma) != m:  # m < 0, or the text ends first
            left = len(sigma) + sum(1 for _ in tokens)
            raise InstanceTextError(f"truncated instance: declared m={m} with {left} entries left", m=m)
        yield _validate_list(_half_order(m), sigma)


def parse_instances(text: str) -> list[MarkedPermutationGraph]:
    instances = list(_read_instances(_tokens(text)))
    if not instances:
        raise InstanceTextError("no instance found in input", token=None)
    return instances


def parse_instance(text: str) -> MarkedPermutationGraph:
    """The one instance in ``text``.  Reading stops at a second instance's
    header, which raises InstanceTextError with ``instances`` 2 however
    many follow; parse_instances reads them all."""
    tokens = _tokens(text)
    for G in _read_instances(tokens):
        if next(tokens, None) is not None:
            raise InstanceTextError("expected one instance, found 2", instances=2)
        return G
    raise InstanceTextError("no instance found in input", token=None)


PRISM = validate(3, [0, 1, 2])
PETERSEN = validate(5, [0, 2, 4, 1, 3])


def _check_index(G: MarkedPermutationGraph, i: int, what: str = "A-index") -> int:
    """i as a Python int in 0..m-1.  It is read through operator.index, as
    validate reads sigma, so a numpy integer passes and a float or a string
    raises IndexOutOfRange, as an integer out of range does.  The read
    is inline, with _integer's wording, so a call that passes builds no
    message and no certificate."""
    try:
        i = operator.index(i)
    except TypeError:
        raise IndexOutOfRange(f"{what} {i!r} is not an integer", index=i, m=G.m) from None
    if not 0 <= i < G.m:
        raise IndexOutOfRange(f"{what} {i} outside 0..{G.m - 1}", index=i, m=G.m)
    return i


def enumerate_m_c4(G: MarkedPermutationGraph) -> list[FourCycle]:
    """All matched 4-cycles, one per qualifying A-side pair, sorted by i.

    The +-1 test is taken mod m so m = 3 and m = 4 degenerate uniformly
    (at m = 3 any two distinct residues are cyclically adjacent).
    """
    m, sigma = G.m, G.sigma
    out = []
    for i in range(m):
        j = (i + 1) % m
        d = (sigma[j] - sigma[i]) % m
        if d == 1 or d == m - 1:
            out.append(FourCycle(i, j))
    return out


# ---------------------------------------------------------------------------
# Match-subgraph suppression
# ---------------------------------------------------------------------------

class SuppressedGraph(NamedTuple):
    """Cubic multigraph left after suppressing degree-2 vertices of a
    match-subgraph.  Loops are forbidden by construction (|X| >= 2);
    parallel edges are meaningful and must be preserved."""

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = ()

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def suppress_match(G: MarkedPermutationGraph, X: Iterable[int]) -> SuppressedGraph:
    """Two m-cycles plus the matching edges indexed by X, with every
    degree-2 vertex suppressed.

    Each cycle collapses to a cyclic sequence of arcs through its retained
    vertices; for |X| = 2 the two arcs on a side become a parallel pair.
    """
    xs = sorted({_check_index(G, x) for x in X})
    if len(xs) < 2:
        raise TooFewEdges(f"need at least 2 matching edges, got {len(xs)}", X=xs)
    k = len(xs)
    svals = sorted(G.sigma[x] for x in xs)
    # Retained A-vertex xs[i] has id i and the A'-vertex of value svals[i]
    # id k + i, so each side's cycle is t -- t+1 (mod k), offset by 0 or k.
    rank = {v: i for i, v in enumerate(svals)}
    edges = [(i, k + rank[G.sigma[x]]) for i, x in enumerate(xs)]
    for offset in (0, k):
        for t in range(k):
            u, v = sorted((t, (t + 1) % k))
            edges.append((offset + u, offset + v))
    labels = tuple(f"A{x}" for x in xs) + tuple(f"A'{v}" for v in svals)
    return SuppressedGraph(2 * k, tuple(sorted(edges)), labels)


def girth(S: SuppressedGraph) -> int:
    """Exact girth of a multigraph: a loop is a 1-cycle and a parallel pair
    a 2-cycle.  Otherwise one BFS per vertex of the simple graph: each
    non-tree edge wz bounds the girth by dist(w) + dist(z) + 1, and the
    bound is exact from a vertex on a shortest cycle.  An acyclic
    multigraph raises NoCycle."""
    if any(u == v for u, v in S.edges):
        return 1
    simple = {(min(u, v), max(u, v)) for u, v in S.edges}
    if len(simple) < len(S.edges):
        return 2
    adj: list[list[int]] = [[] for _ in range(S.n)]
    for u, v in simple:
        adj[u].append(v)
        adj[v].append(u)
    best = S.n + 1  # above any cycle's length
    for s in range(S.n):
        dist = [-1] * S.n
        parent = [-1] * S.n
        dist[s] = 0
        q = deque([s])
        while q:
            w = q.popleft()
            for z in adj[w]:
                if dist[z] == -1:
                    dist[z], parent[z] = dist[w] + 1, w
                    q.append(z)
                elif z != parent[w]:
                    best = min(best, dist[w] + dist[z] + 1)
    if best > S.n:
        raise NoCycle("multigraph is acyclic", n=S.n, edge_count=len(S.edges))
    return best


def is_petersen(S: SuppressedGraph) -> bool:
    """Recognition through the unique (3,5)-cage: 10 vertices, 3-regular,
    girth exactly 5 (so loop-free).  Connectivity is implied (a second
    component would itself need 10 vertices)."""
    if S.n != 10 or len(S.edges) != 15:
        return False
    if any(d != 3 for d in S.degrees()):
        return False
    return girth(S) == 5


# For X = x0 < ... < x4, suppress_match(G, X) is the A-side 5-cycle
# x0..x4, the A'-side 5-cycle of the images in value order, and the
# matching x_i -- rank of sigma[x_i].  That is the Petersen graph exactly
# when the A'-cycle joins the partners of x_i and x_{i+-2}, i.e. when the
# rank pattern is i -> c*i + d (mod 5) with c in {2, 3}: 10 of the 120
# patterns.  The tests check this against is_petersen on all 120.  The
# table is closed under inversion: i -> c*i + d inverts to
# i -> c'*(i - d) with c' = 3 for c = 2 and c' = 2 for c = 3.
PETERSEN_PATTERNS: frozenset[tuple[int, ...]] = frozenset(
    tuple((c * i + d) % 5 for i in range(5)) for c in (2, 3) for d in range(5)
)

# a sorted 5-subset of A-indices whose match-subgraph suppresses to the
# Petersen graph, as the census lists it and the witness engine returns it
PetersenWitness = tuple[int, int, int, int, int]


def _subset_is_petersen(G: MarkedPermutationGraph, X: tuple[int, ...]) -> bool:
    """is_petersen(suppress_match(G, X)) for a sorted 5-subset X: whether
    the rank pattern of sigma on X is in PETERSEN_PATTERNS.  One sort
    lists X's positions in value order, which is the inverse of the rank
    pattern, and the table holds a pattern iff it holds its inverse."""
    values = operator.itemgetter(*X)(G.sigma)
    return tuple(sorted(range(5), key=values.__getitem__)) in PETERSEN_PATTERNS


# ---------------------------------------------------------------------------
# Symmetry operations. Census counts are invariant under all four.
# ---------------------------------------------------------------------------

def _symmetry(G: MarkedPermutationGraph, op: str, k: int) -> tuple[Sequence[int], Callable[[int], int]]:
    """op's new sigma and, beside it, where op sends A-index x.  k is the
    shift of the two rotations; reflect and swap_sides ignore it.  An op
    not listed below, or a k that is not an integer, raises InvalidSymmetry."""
    k = _integer(k, InvalidSymmetry, "symmetry shift k=", k=k)
    m, sigma = G.m, G.sigma
    if op == "rotate_a":  # shift the A-side basepoint: old vertex k becomes new vertex 0
        return [sigma[(i + k) % m] for i in range(m)], lambda x: (x - k) % m
    if op == "rotate_a_prime":  # shift the A'-side basepoint: old vertex k' becomes new vertex 0'
        return [(v - k) % m for v in sigma], lambda x: x
    if op == "reflect":  # reverse both cycle orientations, keeping both basepoints
        return [(-sigma[(-i) % m]) % m for i in range(m)], lambda x: (-x) % m
    if op == "swap_sides":  # exchange A and A', inverting sigma: edge x joins new A-vertex sigma[x]
        return G.inverse(), lambda x: sigma[x]
    raise InvalidSymmetry(f"unknown symmetry op {op!r}", op=op)


def apply_symmetry(G: MarkedPermutationGraph, op: str, k: int = 0) -> MarkedPermutationGraph:
    """G under op, one of the four in _symmetry: "rotate_a" or
    "rotate_a_prime" by k, "reflect" or "swap_sides"."""
    return validate(G.m, _symmetry(G, op, k)[0])


def relabel_witness(G: MarkedPermutationGraph, X: Iterable[int], op: str, k: int = 0) -> tuple[int, ...]:
    """Map a set of matching-edge indices through a symmetry op, so that
    witnesses of G correspond to witnesses of apply_symmetry(G, op, k).
    An index outside 0..m-1 raises IndexOutOfRange."""
    X = [_check_index(G, x, "edge") for x in X]
    return tuple(sorted(map(_symmetry(G, op, k)[1], X)))


# ---------------------------------------------------------------------------
# Cyclic edge-connectivity
# ---------------------------------------------------------------------------

GraphEdge = tuple[str, int]  # ("A", i) | ("A'", i) cycle edges, ("M", i) matching


def find_cyclic_cut(G: MarkedPermutationGraph) -> tuple[GraphEdge, ...] | None:
    """Smallest set of at most 4 edges whose removal leaves at least two
    components that each contain a cycle, or None; of several, the least as
    a sorted tuple of positions in the list A-edges, A'-edges, matching.

    Let pi_0[x] = (sigma[x] - sigma[0]) mod m for x = 1..m-1.  For m >= 5
    the cuts are the proper intervals of pi_0, positions l..r with
    2 <= r - l + 1 <= m - 2 whose values form an interval; so G is
    cyclically 5-edge-connected iff pi_0 is simple.  Let S be the side
    that avoids A-vertex 0.  A side inside one cycle that misses a vertex
    of it is acyclic, and a side that is a whole cycle is cut off by all
    m >= 5 matching edges, so S and its complement meet both cycles in
    part.  The cut then takes two edges of each cycle and no matching
    edge: A-edges l-1 and r around the arc l..r that S meets in A, and the
    A'-edges around its image, which must be an arc.  On 2|P| vertices,
    P = l..r, S spans 3|P| - 2 edges, so it holds a cycle iff |P| >= 2;
    likewise its complement.  For m <= 4 the matching is a cut too: the
    only one at m = 3, after every interval cut at 4.

    The least cut has the least l, then the least r, so the scan over l,
    then r, with the running min and max of pi_0[l..r], returns its first
    hit: O(m^2) steps at most.
    """
    m, s0 = G.m, G.sigma[0]
    pi = [(v - s0) % m for v in G.sigma]
    for l in range(1, m - 1):
        lo = hi = pi[l]
        for r in range(l + 1, min(l + m - 2, m)):
            v = pi[r]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == r - l:
                b1, b2 = sorted(((lo + s0 - 1) % m, (hi + s0) % m))
                return (("A", l - 1), ("A", r), ("A'", b1), ("A'", b2))
    if m <= 4:
        return tuple(("M", i) for i in range(m))
    return None


def is_cyclically_5_edge_connected(G: MarkedPermutationGraph) -> bool:
    return find_cyclic_cut(G) is None
