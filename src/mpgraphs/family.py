"""The extremal family G_k: 4-cycle-free instances whose Petersen census
stays linear (6k+6 on 6k+14 vertices).

The matching splits into 2k vertical edges, k-1 skew edges and eight
special edges; the special edges form two groups of four, and every
witness is one full group plus one outside edge.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple, Sequence

from .census import enumerate_m_p10
from .core import MAX_M, MarkedPermutationGraph, PetersenWitness, _check_index, _integer, enumerate_m_c4, validate
from .errors import InvalidK


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
        lists: dict[str, list[int]] = {"vertical": [], "skew": [], "special_group_1": [], "special_group_2": []}
        for i, c in enumerate(self.classification):
            lists[c.kind.value if c.group is None else f"special_group_{c.group}"].append(i)
        return {"k": self.k, "m": self.m, **lists}


def generate_gk(k: int) -> GkInstance:
    """Build (G_k, M_k) with m = 3k+7.  k is read through operator.index;
    a non-integer k, k below 1, or k with 3k+7 above MAX_M raises InvalidK.

    The construction is five runs, 0-based, of (indices, sigma values):
      vertical  indices 0, 2, .., 2k-2      -> 0, 1, .., k-1
                indices 2k+3 .. 3k+2        -> k+4, k+6, .., 3k+2
      skew      indices 1, 3, .., 2k-3      -> 3k+1, 3k-1, .., k+5
      special   group 1 at indices 2k-1..2k+2   -> k+1, k+3, k, k+2
                group 2 at indices 3k+3..3k+6   -> 3k+4, 3k+6, 3k+3, 3k+5
    """
    k = _integer(k, InvalidK, "family parameter k=", k=k)
    if k < 1:
        raise InvalidK(f"family parameter must be >= 1, got {k}", k=k)
    m = 3 * k + 7
    if m > MAX_M:
        raise InvalidK(f"k={k} gives m={m} above the limit {MAX_M}", k=k, m=m, limit=MAX_M)
    classes = {
        "vertical": EdgeClassification(EdgeClass.VERTICAL),
        "skew": EdgeClassification(EdgeClass.SKEW),
        "special_group_1": EdgeClassification(EdgeClass.SPECIAL, group=1),
        "special_group_2": EdgeClassification(EdgeClass.SPECIAL, group=2),
    }
    sigma: list = [None] * m  # an index no run writes stays None, which validate refuses
    cls: list = [None] * m
    for indices, values, name in _runs(k):
        sigma[indices] = values
        cls[indices] = (classes[name],) * len(values)
    return GkInstance(k=k, graph=validate(m, sigma), classification=tuple(cls))


def _runs(k: int) -> tuple[tuple[slice, Sequence[int], str], ...]:
    """G_k's five runs, as generate_gk's docstring lists them: (index
    slice, sigma values, classification_json key)."""
    m = 3 * k + 7
    return (
        (slice(0, 2 * k - 1, 2), range(k), "vertical"),
        (slice(2 * k + 3, 3 * k + 3), range(k + 4, 3 * k + 3, 2), "vertical"),
        (slice(1, 2 * k - 2, 2), range(3 * k + 1, k + 4, -2), "skew"),
        (slice(2 * k - 1, 2 * k + 3), (k + 1, k + 3, k, k + 2), "special_group_1"),
        (slice(3 * k + 3, m), (3 * k + 4, 3 * k + 6, 3 * k + 3, 3 * k + 5), "special_group_2"),
    )


def _classification_line(k: int) -> Iterator[str]:
    """``mpg gk``'s second line, ``# classification: `` and then
    json.dumps(generate_gk(k).classification_json(), sort_keys=True), in
    pieces made from the runs' index ranges, at most 4,096 indices each, so
    no list of every index is made.  k is a checked family parameter."""
    m = 3 * k + 7
    ranges: dict[str, list[range]] = {}
    for indices, _, name in _runs(k):
        ranges.setdefault(name, []).append(range(m)[indices])
    yield f'# classification: {{"k": {k}, "m": {m}'
    for name in sorted(ranges):  # after "k" and "m", as sort_keys puts them
        sep = f', "{name}": ['
        for r in ranges[name]:
            for i in range(0, len(r), 4096):
                yield sep + ", ".join(map(str, r[i : i + 4096]))
                sep = ", "
        yield "]" if sep == ", " else sep + "]"
    yield "}\n"


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
