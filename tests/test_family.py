import hashlib
import tracemalloc

import pytest

from mpgraphs import (
    EdgeClass,
    classify_edge,
    enumerate_m_c4,
    generate_gk,
    is_cyclically_5_edge_connected,
    validate,
    verify_gk,
)
from mpgraphs.errors import IndexOutOfRange, InvalidK

from .conftest import gk_by_table


def transcribe_gk_one_based(k: int) -> tuple[int, ...]:
    """Independent re-derivation of the construction from its 1-based edge
    tables; every pair below is (A-vertex, A'-vertex) in 1-based labels."""
    pairs = []
    pairs += [(2 * i - 1, i) for i in range(1, k + 1)]
    pairs += [(2 * k + i + 3, k + 2 * i + 3) for i in range(1, k + 1)]
    pairs += [(2 * i, 3 * k + 4 - 2 * i) for i in range(1, k)]
    pairs += [
        (2 * k, k + 2),
        (2 * k + 1, k + 4),
        (2 * k + 2, k + 1),
        (2 * k + 3, k + 3),
        (3 * k + 4, 3 * k + 5),
        (3 * k + 5, 3 * k + 7),
        (3 * k + 6, 3 * k + 4),
        (3 * k + 7, 3 * k + 6),
    ]
    m = 3 * k + 7
    sigma = [None] * m
    for a1, b1 in pairs:
        assert sigma[a1 - 1] is None
        sigma[a1 - 1] = b1 - 1
    assert None not in sigma
    return tuple(sigma)


class TestGenerateGk:
    def test_k1(self):
        inst = generate_gk(1)
        assert inst.m == 10
        assert inst.graph.sigma == (0, 2, 4, 1, 3, 5, 7, 9, 6, 8)
        # no skew edges at k = 1
        assert all(c.kind is not EdgeClass.SKEW for c in inst.classification)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_independent_transcription(self, k):
        assert generate_gk(k).graph.sigma == transcribe_gk_one_based(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_vertex_count_and_c4_free(self, k):
        inst = generate_gk(k)
        assert inst.graph.n == 6 * k + 14
        assert enumerate_m_c4(inst.graph) == []

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            generate_gk(0)

    def test_k_read_as_an_integer(self):
        np = pytest.importorskip("numpy")
        inst = generate_gk(np.int64(2))
        assert inst == generate_gk(2) and type(inst.k) is int
        for bad in (2.0, "2", None):
            with pytest.raises(InvalidK, match="is not an integer") as exc:
                generate_gk(bad)
            assert exc.value.certificate == {"k": bad}

    def test_repr_digest(self):
        # recorded from the earlier two-list construction, which the
        # five runs must match byte for byte
        h = hashlib.sha256()
        for k in [*range(1, 400), 33331]:
            h.update(f"{generate_gk(k)!r}\n".encode())
        assert h.hexdigest() == "bb3b4a03432ef11f1094343c4927074759d2d3bebfb37dec3ba0f75466c44f58"

    def test_equals_the_table_construction(self):
        for k in [*range(1, 301), 33331]:
            inst, document = gk_by_table(k)
            runs = generate_gk(k)
            assert runs == inst, k
            assert runs.classification_json() == document, k

    def test_runs_hold_no_table(self):
        # the five runs fill two m-entry lists, and validate copies sigma
        # once, ~6.5 MB at k = 33331 (m = 10^5); a dict of (value, class)
        # tuples per index, unzipped, took ~25 MB
        tracemalloc.start()
        try:
            inst = generate_gk(33331)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inst.m == 10**5
        assert peak < 12_000_000

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_classification_partition(self, k):
        inst = generate_gk(k)
        kinds = [c.kind for c in inst.classification]
        assert kinds.count(EdgeClass.VERTICAL) == 2 * k
        assert kinds.count(EdgeClass.SKEW) == k - 1
        assert kinds.count(EdgeClass.SPECIAL) == 8
        assert len(inst.special_group(1)) == len(inst.special_group(2)) == 4


class TestClassifyEdge:
    def test_gk4_examples(self):
        inst = generate_gk(4)
        assert classify_edge(inst, 0).kind is EdgeClass.VERTICAL
        assert classify_edge(inst, 1).kind is EdgeClass.SKEW
        c = classify_edge(inst, 2 * 4 - 1)
        assert c.kind is EdgeClass.SPECIAL and c.group == 1
        c2 = classify_edge(inst, 3 * 4 + 3)
        assert c2.kind is EdgeClass.SPECIAL and c2.group == 2

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            classify_edge(generate_gk(1), 10)

    def test_index_read_as_an_integer(self):
        np = pytest.importorskip("numpy")
        inst = generate_gk(1)
        assert classify_edge(inst, np.int64(3)) == classify_edge(inst, 3)
        for bad in (3.0, "3"):
            with pytest.raises(IndexOutOfRange, match="is not an integer") as exc:
                classify_edge(inst, bad)
            assert exc.value.certificate == {"index": bad, "m": 10}


class TestVerifyGk:
    @pytest.mark.parametrize("k,expected", [(1, 12), (2, 18), (3, 24), (60, 366), (100, 606)])
    def test_counts(self, k, expected):
        v = verify_gk(generate_gk(k))
        assert v.ok
        assert v.c4_count == 0
        assert v.p10_count == expected
        assert not v.bad_witnesses

    def test_ok_on_g300(self, gk300):
        v = verify_gk(gk300)
        assert v.ok
        assert v.p10_count == 6 * 300 + 6

    def test_mutation_is_caught(self, gk2):
        sig = list(gk2.graph.sigma)
        sig[0], sig[1] = sig[1], sig[0]
        mutated = gk2._replace(graph=validate(gk2.m, sig))
        v = verify_gk(mutated)
        assert not v.ok

    def test_gk1_not_cyclically_5_connected(self, gk1):
        assert not is_cyclically_5_edge_connected(gk1.graph)
