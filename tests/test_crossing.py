import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    PRISM,
    build_crossing_graph,
    standard_drawing,
    validate,
)
from mpgraphs.census import random_instance
from mpgraphs.crossing import _ROWS_ON_DEMAND_FROM_M, _drawing_lines, _engine_crossing_graph, _RowsOnDemand
from mpgraphs.errors import UnsupportedFormat

from .conftest import all_instances, count_segment_crossings, crossing_adj_by_pairs, instances, seeded_instances

REVERSED5 = validate(5, [0, 4, 3, 2, 1])


class TestBuildCrossingGraph:
    def test_petersen_anchor_0(self):
        H = build_crossing_graph(PETERSEN, 0)
        assert H.edges() == [(1, 3), (2, 3), (2, 4)]

    def test_identity_has_no_crossings(self):
        H = build_crossing_graph(validate(4, [0, 1, 2, 3]), 0)
        assert H.vertices == (1, 2, 3)
        assert H.edges() == []

    def test_reversal_is_complete(self):
        H = build_crossing_graph(REVERSED5, 0)
        assert H.edge_count() == 6
        assert all(H.has_edge(x, y) for x in H.vertices for y in H.vertices if x != y)

    @given(instances(), st.data())
    def test_symmetric_irreflexive(self, G, data):
        a = data.draw(st.integers(0, G.m - 1))
        H = build_crossing_graph(G, a)
        assert a not in H.vertices
        for x in H.vertices:
            assert not H.has_edge(x, x)
            for y in H.vertices:
                assert H.has_edge(x, y) == H.has_edge(y, x)

    @given(instances(), st.data())
    @settings(max_examples=150)
    def test_reanchoring_rules(self, G, data):
        # clause (i): a~x in H_b iff b~x in H_a
        # clause (ii): x~y in H_b iff an odd number of bx, by, xy in H_a
        a = data.draw(st.integers(0, G.m - 1))
        b = data.draw(st.integers(0, G.m - 1).filter(lambda v: v != a))
        Ha = build_crossing_graph(G, a)
        Hb = build_crossing_graph(G, b)
        others = [v for v in range(G.m) if v not in (a, b)]
        for x in others:
            assert Hb.has_edge(a, x) == Ha.has_edge(b, x)
        for i, x in enumerate(others):
            for y in others[i + 1 :]:
                cnt = sum(
                    (Ha.has_edge(b, x), Ha.has_edge(b, y), Ha.has_edge(x, y))
                )
                assert Hb.has_edge(x, y) == (cnt in (1, 3))

    def test_rows_match_pair_loop_exhaustively(self):
        # every anchor of every instance with 3 <= m <= 7: 40,314 graphs
        for m in range(3, 8):
            for G in all_instances(m):
                for a in range(m):
                    H = build_crossing_graph(G, a)
                    assert (H.vertices, H.adj) == crossing_adj_by_pairs(G, a), (G.to_text(), a)

    @pytest.mark.parametrize("m", [20, 40, 60, 100])
    def test_rows_match_pair_loop_on_random(self, m):
        for G in seeded_instances(m):
            for a in range(m):
                H = build_crossing_graph(G, a)
                assert (H.vertices, H.adj) == crossing_adj_by_pairs(G, a), (G.to_text(), a)

    def test_bitmask_rows_match_drawn_segments_exhaustively(self):
        # every anchor of every instance with m <= 6: x ~ y exactly when the
        # two drawn matching segments cross, and the other accessors agree
        for m in range(3, 7):
            for G in all_instances(m):
                for a in range(m):
                    H = build_crossing_graph(G, a)
                    segs = svg_matching_segments(standard_drawing(G, a, "svg"))
                    for x in range(m):
                        for y in range(m):
                            crossed = x != y and count_segment_crossings([segs[x], segs[y]]) == 1
                            assert H.has_edge(x, y) == crossed, (G.to_text(), a, x, y)
                    edges = [(x, y) for x in H.vertices for y in H.vertices if x < y and H.has_edge(x, y)]
                    assert H.edges() == edges
                    assert H.edge_count() == len(edges)


class TestRowsOnDemand:
    """The rows the witness engine reads from crossing._ROWS_ON_DEMAND_FROM_M
    on, each computed on its first read, are build_crossing_graph's rows."""

    @staticmethod
    def assert_rows_match_the_walk(G, a):
        rows, expected = _RowsOnDemand(G, a), build_crossing_graph(G, a).adj
        assert len(rows) == 1  # the anchor's 0 row, and no other yet
        for x in range(G.m):
            assert rows[x] == expected[x], (G.to_text(), a, x)
        assert len(rows) == G.m  # each row is computed once

    def test_exhaustively(self):
        # every anchor of every instance with 3 <= m <= 7: 40,314 graphs
        checked = 0
        for m in range(3, 8):
            for G in all_instances(m):
                for a in range(m):
                    self.assert_rows_match_the_walk(G, a)
                    checked += 1
        assert checked == 40_314

    @pytest.mark.parametrize("m", [29, 30, 31, 32, 33, 64, 100, 257])
    def test_seeded(self, m):
        # both sides of the crossover at m = 32, and of rows that fit one
        # 30-bit CPython digit (m <= 30)
        for G in seeded_instances(m):
            for a in range(m):
                self.assert_rows_match_the_walk(G, a)

    @pytest.mark.parametrize("m", [8, 64])
    def test_engine_graph_reads_as_the_built_one(self, m):
        # whole below the crossover, on demand above it; edges and
        # edge_count read the rows at the vertices either way
        for G in seeded_instances(m):
            for a in range(m):
                expected = build_crossing_graph(G, a)
                H = _engine_crossing_graph(G, a, expected.vertices)
                assert isinstance(H.adj, tuple) == (m < _ROWS_ON_DEMAND_FROM_M)
                assert H == expected._replace(adj=H.adj)
                assert H.edge_count() == expected.edge_count()  # before any row is read
                assert H.edges() == expected.edges()


def svg_matching_segments(doc: str):
    segs = []
    for m in re.finditer(
        r'<line class="matching" x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)"', doc
    ):
        x1, y1, x2, y2 = map(float, m.groups())
        segs.append(((x1, y1), (x2, y2)))
    return segs


def dot_matching_segments(doc: str):
    pos = {}
    for m in re.finditer(r'"(A\'?\d+)" \[pos="([-\d.]+),([-\d.]+)!"\]', doc):
        pos[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    segs = []
    for m in re.finditer(r'"(A\d+)" -- "(A\'\d+)" \[kind=matching\]', doc):
        segs.append((pos[m.group(1)], pos[m.group(2)]))
    return segs


def embedded_crossings(doc: str) -> int:
    m = re.search(r"crossings: (\d+)", doc)
    assert m, "crossing comment missing"
    return int(m.group(1))


class TestStandardDrawing:
    def test_petersen_svg_crossings(self):
        doc = standard_drawing(PETERSEN, 0, "svg")
        assert embedded_crossings(doc) == 3

    def test_prism_svg_no_crossings(self):
        doc = standard_drawing(PRISM, 0, "svg")
        assert embedded_crossings(doc) == 0

    def test_reversal_dot_crossings(self):
        doc = standard_drawing(REVERSED5, 0, "dot")
        assert embedded_crossings(doc) == 6

    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormat):
            standard_drawing(PETERSEN, 0, "png")

    @pytest.mark.parametrize("fmt", [None, b"svg", 1])
    def test_format_not_a_string(self, fmt):
        with pytest.raises(UnsupportedFormat) as exc:
            standard_drawing(PETERSEN, 0, format=fmt)
        assert exc.value.certificate == {"format": fmt}

    def test_deterministic(self):
        assert standard_drawing(PETERSEN, 2, "svg") == standard_drawing(PETERSEN, 2, "svg")

    @given(instances(3, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_geometric_count_matches_crossing_graph(self, G, data):
        # dual route: re-derive crossings from the emitted coordinates and
        # compare against the combinatorial crossing graph
        a = data.draw(st.integers(0, G.m - 1))
        fmt = data.draw(st.sampled_from(["svg", "dot"]))
        doc = standard_drawing(G, a, fmt)
        segs = svg_matching_segments(doc) if fmt == "svg" else dot_matching_segments(doc)
        assert len(segs) == G.m
        expected = build_crossing_graph(G, a).edge_count()
        assert count_segment_crossings(segs) == expected
        assert embedded_crossings(doc) == expected

    def test_embedded_count_is_crossing_graph_edge_count(self):
        # the drawing's count is the crossing graph's edge count; the O(m^2)
        # geometric recount lives in the tests, where src/ cannot call it
        for G, anchors in ((PETERSEN, (0, 2)), (random_instance(40, seed=1), (0, 23))):
            for a in anchors:
                expected = build_crossing_graph(G, a).edge_count()
                for fmt in ("svg", "dot"):
                    assert embedded_crossings(standard_drawing(G, a, fmt)) == expected, (a, fmt)

    def test_count_builds_no_crossing_graph(self, monkeypatch):
        # the count is the inversion count of pi_a, in O(m) memory; the
        # m^2/8-byte crossing graph is its test oracle only
        expected = {a: build_crossing_graph(PETERSEN, a).edge_count() for a in range(5)}

        def refuse(G, a):
            raise AssertionError("standard_drawing built a crossing graph")

        monkeypatch.setattr("mpgraphs.crossing.build_crossing_graph", refuse)
        for a in range(5):
            for fmt in ("svg", "dot"):
                assert embedded_crossings(standard_drawing(PETERSEN, a, fmt)) == expected[a], (a, fmt)

    @staticmethod
    def assert_count_matches_both_oracles(G, a):
        doc = standard_drawing(G, a, "dot")
        count = embedded_crossings(doc)
        assert count == build_crossing_graph(G, a).edge_count(), (G.sigma, a)
        assert count == count_segment_crossings(dot_matching_segments(doc)), (G.sigma, a)

    def test_count_matches_both_oracles_exhaustively(self):
        checked = 0
        for m in range(3, 8):
            for G in all_instances(m):
                for a in range(m):
                    self.assert_count_matches_both_oracles(G, a)
                    checked += 1
        assert checked == 3 * 6 + 4 * 24 + 5 * 120 + 6 * 720 + 7 * 5040

    @pytest.mark.parametrize("m", [8, 13, 40, 99, 300])
    def test_count_matches_both_oracles_seeded(self, m):
        for G in seeded_instances(m):
            for a in range(0, m, max(1, m // 10)):
                self.assert_count_matches_both_oracles(G, a)

    def test_svg_coordinates_are_plain_integers_at_m_25000(self):
        # width = 40m + 20 has 7 digits from here on, where a 6-significant-
        # digit float format prints exponent form and merges columns later
        m = 25_000
        doc = standard_drawing(random_instance(m, seed=1), 0, "svg")
        values = re.findall(r' (?:x1|y1|x2|y2|cx|cy|x|y|width|height)="([^"]*)"', doc)
        assert len(values) == 4 * (2 * (m - 1) + m) + 2 * 4 * m + 2  # lines, circles+labels, svg
        assert all(re.fullmatch(r"\d+", v) for v in values)
        assert re.search(r'<svg [^>]* width="(\d+)"', doc).group(1) == str(40 * m + 20)
        columns = {int(cx) for cx in re.findall(r'<circle cx="(\d+)" cy="30"', doc)}
        assert columns == {30 + 40 * t for t in range(m)}

    @pytest.mark.parametrize("fmt", ["dot", "svg"])
    def test_lines_hold_no_column_tables(self, fmt):
        # each column is computed where it is written, and the header
        # formats the instance text in one piece, so a full pass holds
        # ~0.1 MB at m = 10^4 (~1.2 MB at 10^5); two m-entry column lists
        # and a header joined from m strs took ~1.5 MB (~14.8 MB). m is
        # 10^4 because tracing every line's allocations is slow: the svg
        # pass at 10^5 takes about a minute under tracemalloc.
        G = random_instance(10**4, seed=1)
        tracemalloc.start()
        try:
            lines = sum(1 for _ in _drawing_lines(G, 0, fmt))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lines > 3 * 10**4
        assert peak < 750_000
