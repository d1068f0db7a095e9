import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    InducedPath4,
    build_crossing_graph,
    find_induced_p4,
    generate_gk,
    validate,
)
from .conftest import (
    all_instances,
    first_p4_by_quads,
    instances,
    p4_free_by_twin_elimination,
    seeded_instances,
)

EMPTY3 = build_crossing_graph(validate(4, [0, 1, 2, 3]), 0)  # no edges on {1,2,3}
K4 = build_crossing_graph(validate(5, [0, 4, 3, 2, 1]), 0)  # complete on {1,2,3,4}
PETERSEN_H0 = build_crossing_graph(PETERSEN, 0)  # the path 1-3-2-4


class TestFindInducedP4:
    def test_petersen_h0(self):
        assert find_induced_p4(PETERSEN_H0) == InducedPath4(1, 3, 2, 4)

    def test_empty_graph(self):
        assert find_induced_p4(EMPTY3) is None

    def test_complete_graph(self):
        assert find_induced_p4(K4) is None

    def test_matches_quad_scan_exhaustively(self):
        # every anchor of every instance with 3 <= m <= 7, P4-free graphs
        # included: the same 4-set and the same orientation
        for m in range(3, 8):
            for G in all_instances(m):
                for a in range(m):
                    H = build_crossing_graph(G, a)
                    assert find_induced_p4(H) == first_p4_by_quads(H), (G.to_text(), a)

    @pytest.mark.parametrize("m", [20, 40, 60, 100])
    def test_matches_quad_scan_on_random(self, m):
        for G in seeded_instances(m):
            for a in range(m):
                H = build_crossing_graph(G, a)
                assert find_induced_p4(H) == first_p4_by_quads(H), (G.to_text(), a)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_quad_scan_on_gk(self, k):
        # sparse crossing graphs, whose first P4 sits far from vertex 1
        G = generate_gk(k).graph
        for a in range(G.m):
            H = build_crossing_graph(G, a)
            assert find_induced_p4(H) == first_p4_by_quads(H), (G.to_text(), a)

    @given(instances(), st.data())
    @settings(max_examples=100)
    def test_returned_path_is_induced(self, G, data):
        a = data.draw(st.integers(0, G.m - 1))
        H = build_crossing_graph(G, a)
        p = find_induced_p4(H)
        if p is None:
            return
        x, y, z, w = p
        assert len({x, y, z, w}) == 4
        assert H.has_edge(x, y) and H.has_edge(y, z) and H.has_edge(z, w)
        assert not (H.has_edge(x, z) or H.has_edge(x, w) or H.has_edge(y, w))
        assert x < w  # canonical endpoint order


class TestIsP4Free:
    """P4-freeness, read as ``find_induced_p4(H) is None``."""

    def test_examples(self):
        assert find_induced_p4(PETERSEN_H0) is not None
        assert find_induced_p4(K4) is None
        assert find_induced_p4(EMPTY3) is None

    @given(instances(), st.data())
    @settings(max_examples=150)
    def test_dichotomy_on_crossing_graphs(self, G, data):
        # P4-free iff twin deletion reduces H to one vertex, also at m = 8
        # and 9, beyond the exhaustive test below
        a = data.draw(st.integers(0, G.m - 1))
        H = build_crossing_graph(G, a)
        assert (find_induced_p4(H) is None) == p4_free_by_twin_elimination(H)

    def test_matches_twin_elimination_exhaustively(self):
        # every anchor of every instance with 3 <= m <= 7: 40,314 graphs
        for m in range(3, 8):
            for G in all_instances(m):
                for a in range(m):
                    H = build_crossing_graph(G, a)
                    assert (find_induced_p4(H) is None) == p4_free_by_twin_elimination(H), (G.to_text(), a)
