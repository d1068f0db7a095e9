"""The extremal family G_k: 4-cycle-free instances whose Petersen census
stays linear (6k+6 on 6k+14 vertices).

The matching splits into 2k vertical edges, k-1 skew edges and eight
special edges; the special edges form two groups of four, and every
witness is one full group plus one outside edge.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .census import enumerate_m_p10
from .core import MAX_M, MarkedPermutationGraph, _check_index, _integer, enumerate_m_c4, validate
from .errors import InvalidK
from .witness import PetersenWitness


class EdgeClass(Enum):
    VERTICAL = "vertical"
    SKEW = "skew"
    SPECIAL = "special"


class EdgeClassification(NamedTuple):
    kind: EdgeClass
    group: int | None = None  # 1 or 2 for special edges


class GkInstance(NamedTuple):
    k: int
    graph: MarkedPermutationGraph
    classification: tuple[EdgeClassification, ...]

    @property
    def m(self) -> int:
        return self.graph.m

    def special_group(self, group: int) -> tuple[int, ...]:
        return tuple(
            i for i, c in enumerate(self.classification)
            if c.kind is EdgeClass.SPECIAL and c.group == group
        )

    def classification_json(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "vertical": [i for i, c in enumerate(self.classification) if c.kind is EdgeClass.VERTICAL],
            "skew": [i for i, c in enumerate(self.classification) if c.kind is EdgeClass.SKEW],
            "special_group_1": list(self.special_group(1)),
            "special_group_2": list(self.special_group(2)),
        }


def generate_gk(k: int) -> GkInstance:
    """Build (G_k, M_k) with m = 3k+7.  k is read through operator.index;
    a non-integer k, k below 1, or k with 3k+7 above MAX_M raises InvalidK.

    0-based transcription of the 1-based construction tables:
      vertical  sigma[2i-2]    = i-1        for 1 <= i <= k
                sigma[2k+i+2]  = k+2i+2     for 1 <= i <= k
      skew      sigma[2i-1]    = 3k+3-2i    for 1 <= i <= k-1
      special   group 1 at indices 2k-1..2k+2   -> k+1, k+3, k, k+2
                group 2 at indices 3k+3..3k+6   -> 3k+4, 3k+6, 3k+3, 3k+5
    """
    k = _integer(k, InvalidK, "family parameter k=", k=k)
    if k < 1:
        raise InvalidK(f"family parameter must be >= 1, got {k}", k=k)
    m = 3 * k + 7
    if m > MAX_M:
        raise InvalidK(f"k={k} gives m={m} above the limit {MAX_M}", k=k, m=m, limit=MAX_M)
    vertical, skew = EdgeClassification(EdgeClass.VERTICAL), EdgeClassification(EdgeClass.SKEW)
    table: dict[int, tuple[int, EdgeClassification]] = {}  # index -> (sigma value, class)
    for i in range(1, k + 1):
        table[2 * i - 2] = (i - 1, vertical)
        table[2 * k + i + 2] = (k + 2 * i + 2, vertical)
    for i in range(1, k):
        table[2 * i - 1] = (3 * k + 3 - 2 * i, skew)
    group1 = {2 * k - 1: k + 1, 2 * k: k + 3, 2 * k + 1: k, 2 * k + 2: k + 2}
    group2 = {
        3 * k + 3: 3 * k + 4,
        3 * k + 4: 3 * k + 6,
        3 * k + 5: 3 * k + 3,
        3 * k + 6: 3 * k + 5,
    }
    for group, values in ((1, group1), (2, group2)):
        special = EdgeClassification(EdgeClass.SPECIAL, group=group)
        for idx, val in values.items():
            table[idx] = (val, special)
    sigma, cls = zip(*(table[i] for i in range(m)))  # KeyError on an index the tables miss
    return GkInstance(k=k, graph=validate(m, sigma), classification=cls)


def classify_edge(inst: GkInstance, i: int) -> EdgeClassification:
    return inst.classification[_check_index(inst.graph, i, "edge index")]


class GkVerdict(NamedTuple):
    ok: bool
    k: int
    c4_count: int
    p10_count: int
    expected_p10: int
    bad_witnesses: tuple[PetersenWitness, ...]


def verify_gk(inst: GkInstance) -> GkVerdict:
    """Census-verify the family claims: no matched 4-cycle, exactly 6k+6
    witnesses, and every witness is one full special group plus one edge
    outside that group.  Asserting the structure, not just the count,
    catches off-by-one transcription slips."""
    G = inst.graph
    c4 = len(enumerate_m_c4(G))
    wits = enumerate_m_p10(G)
    g1 = set(inst.special_group(1))
    g2 = set(inst.special_group(2))
    bad = tuple(
        X
        for X in wits
        if not (g1 <= set(X) or g2 <= set(X))
    )
    expected = 6 * inst.k + 6
    ok = c4 == 0 and len(wits) == expected and not bad
    return GkVerdict(
        ok=ok,
        k=inst.k,
        c4_count=c4,
        p10_count=len(wits),
        expected_p10=expected,
        bad_witnesses=bad,
    )
