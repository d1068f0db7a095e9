import hashlib
import importlib
import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    PRISM,
    C4ReduceStep,
    EdgeClass,
    EdgeClassification,
    FourCycle,
    InducedPath4,
    P4FoundStep,
    SuppressedGraph,
    apply_symmetry,
    build_crossing_graph,
    census_report,
    check_lower_bound,
    check_redrawing,
    check_replace,
    check_zhang,
    enumerate_m_c4,
    enumerate_m_p10,
    find_cyclic_cut,
    find_p10_through,
    generate_gk,
    girth,
    is_cyclically_5_edge_connected,
    is_petersen,
    parse_instance,
    parse_instances,
    random_instance,
    relabel_witness,
    replay_trace,
    standard_drawing,
    suppress_match,
    validate,
    verify_gk,
)
from mpgraphs.census import ScanReport, ScanRow
from mpgraphs.core import MAX_M
from mpgraphs.errors import (
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

from .conftest import (
    FIXTURE_DIR,
    all_instances,
    cyclic_components_after,
    cyclic_cut_by_counting,
    cyclic_cut_by_subsets,
    girth_by_cycle_enumeration,
    instance_to_networkx,
    instances,
    is_petersen_by_isomorphism,
    seeded_instances,
    to_text_by_join,
    tokens_by_split,
)


class TestValidate:
    def test_prism_fixture(self):
        assert validate(3, [0, 1, 2]) == PRISM

    def test_petersen_fixture(self):
        G = validate(5, [0, 2, 4, 1, 3])
        assert G == PETERSEN
        # the all-edges match-subgraph is the Petersen graph itself
        S = suppress_match(G, range(5))
        assert girth_by_cycle_enumeration(S) == 5
        assert is_petersen_by_isomorphism(S)

    def test_duplicate_entry(self):
        with pytest.raises(NotAPermutation) as exc:
            validate(4, [0, 1, 0, 2])
        assert exc.value.certificate["value"] == 0

    def test_too_small(self):
        with pytest.raises(TooSmall):
            validate(2, [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate(4, [0, 1, 2])

    def test_out_of_range(self):
        with pytest.raises(NotAPermutation):
            validate(3, [0, 1, 5])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PRISM.m = 4

    def test_float_entry_refused_not_truncated(self):
        with pytest.raises(NotAPermutation) as exc:
            validate(5, [0, 2.7, 4, 1, 3])
        assert exc.value.certificate == {"index": 1, "value": 2.7}
        with pytest.raises(NotAPermutation) as exc:
            validate(5, [0, 2, 4, 1, 3.0])
        assert exc.value.certificate["index"] == 4

    def test_string_entries_refused(self):
        with pytest.raises(NotAPermutation) as exc:
            validate(3, ["0", "1", "2"])
        assert exc.value.certificate == {"index": 0, "value": "0"}

    @pytest.mark.parametrize("m", [3.0, 5.5, "5", None])
    def test_non_integral_m_refused(self, m):
        with pytest.raises(TooSmall) as exc:
            validate(m, [0, 2, 4, 1, 3])
        assert exc.value.certificate == {"m": m}

    def test_numpy_integers_accepted_as_ints(self):
        np = pytest.importorskip("numpy")
        G = validate(np.int64(5), np.array([0, 2, 4, 1, 3]))
        assert G == PETERSEN
        assert type(G.m) is int and all(type(v) is int for v in G.sigma)

    def test_sigma_built_once(self):
        # one list, one tuple and a bytearray, ~1.7 MB at m = 10^5; a set of
        # seen values and a second list and tuple took ~7.7 MB
        m = 10**5
        sigma = random.Random(1).sample(range(m), m)
        tracemalloc.start()
        try:
            G = validate(m, sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.sigma == tuple(sigma)
        assert peak < 3_000_000


# the reader's separators: str.splitlines' line boundaries, and whitespace
# that str.split splits at but no line ends at
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]
ODD_WORDS = st.sampled_from(["-1", "+0", "-0", "6", "1_3", "\u0663", "\uff13", "#x", "x", "9" * 5000])


@st.composite
def separators(draw) -> str:
    """A space, or a line break, maybe then a comment line; each new line
    with or without leading whitespace."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPACES))
    sep = draw(st.sampled_from(LINE_BREAKS)) + draw(st.sampled_from(["", *SPACES]))
    if draw(st.booleans()):
        sep += draw(st.sampled_from(["#", "#x 1", "# 3 0 1 2"]))
        sep += draw(st.sampled_from(LINE_BREAKS)) + draw(st.sampled_from(["", *SPACES]))
    return sep


@st.composite
def reader_texts(draw) -> str:
    """Up to three instances with m = 3..5, their words signed or not, a
    few odd words put among them, and separators before, between and
    after the words."""
    words = []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(3, 5))
        words += [draw(st.sampled_from(["", "+"])) + str(v) for v in (m, *draw(st.permutations(range(m))))]
    for _ in range(draw(st.integers(0, 2))):
        words.insert(draw(st.integers(0, len(words))), draw(ODD_WORDS))
    return "".join(draw(separators()) + word for word in words) + draw(separators())


def parse_outcome(text: str):
    """parse_instances(text), or the error it raises as its type, message
    and certificate."""
    try:
        return parse_instances(text)
    except MpgError as exc:
        return type(exc), str(exc), exc.certificate


class TestTextFormat:
    def test_fixture_files_parse_to_constants(self):
        assert parse_instance((FIXTURE_DIR / "prism.txt").read_text()) == PRISM
        assert parse_instance((FIXTURE_DIR / "petersen.txt").read_text()) == PETERSEN

    def test_round_trip(self):
        assert parse_instance(PETERSEN.to_text()) == PETERSEN

    def test_to_text_is_the_join_form(self):
        checked = 0
        for m in range(3, 8):
            for G in all_instances(m):
                assert G.to_text() == to_text_by_join(G), G.sigma
                checked += 1
        assert checked == 6 + 24 + 120 + 720 + 5040
        G = random_instance(10**4, seed=1)
        assert G.to_text() == to_text_by_join(G)

    def test_to_text_lists_no_strs(self):
        # one format string and the text, ~1.2 MB at m = 10^5; a join of
        # a list of m strs took ~6.8 MB
        G = random_instance(10**5, seed=1)
        tracemalloc.start()
        try:
            text = G.to_text()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == to_text_by_join(G)
        assert peak < 3_000_000

    def test_parse_copies_no_sigma_list(self):
        # beyond the instance it keeps, the parse holds the reader's one
        # list of m entries, 8 bytes each, which becomes sigma in place:
        # ~0.9 MB at m = 10^5; validate's copy of that list took ~1.7 MB
        m = 10**5
        text = random_instance(m, seed=1).to_text()
        tracemalloc.start()
        try:
            G = parse_instance(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.to_text() == text
        assert peak - kept < 1.5 * 8 * m, (kept, peak)

    def test_comments_and_multiple_instances(self):
        text = "# header\n3 0 1 2\n5 0 2 4 1 3\n"
        assert parse_instances(text) == [PRISM, PETERSEN]

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n  # another\n"], ids=["empty", "blank", "comments"])
    @pytest.mark.parametrize("parse", [parse_instance, parse_instances])
    def test_no_instance_is_refused(self, parse, text):
        with pytest.raises(InstanceTextError, match="^no instance found in input$") as exc:
            parse(text)
        assert exc.value.certificate == {"token": None}

    def test_parse_instance_rejects_several(self):
        with pytest.raises(InstanceTextError) as exc:
            parse_instance("# header\n3 0 1 2\n5 0 2 4 1 3\n")
        assert exc.value.certificate == {"instances": 2}

    def test_parse_instance_stops_at_the_second_header(self, monkeypatch):
        core_module = importlib.import_module("mpgraphs.core")
        calls = []
        real = core_module._validate_list

        def counting(m, sigma):  # the reader's validate, on its own list
            calls.append(m)
            return real(m, sigma)

        monkeypatch.setattr(core_module, "_validate_list", counting)
        text = "3 0 1 2\n5 0 2 4 1 3\n4 0 1 2 3\n"
        with pytest.raises(InstanceTextError) as exc:
            parse_instance(text)
        assert exc.value.certificate == {"instances": 2}
        assert calls == [3]
        third = validate(4, [0, 1, 2, 3])
        calls.clear()
        assert parse_instances(text) == [PRISM, PETERSEN, third]
        assert calls == [3, 5, 4]

    @pytest.mark.parametrize("second", ["3 0 x 2", f"{MAX_M + 1} 0 1 2", "3 0 1 5", "7 0 1"])
    def test_parse_instance_reads_no_further_than_the_second_header(self, second):
        # the second instance's entries are never read, so their faults
        # do not show; parse_instances reports them
        with pytest.raises(InstanceTextError) as exc:
            parse_instance(f"3 0 1 2\n{second}\n")
        assert exc.value.certificate == {"instances": 2}
        with pytest.raises((InstanceTextError, TooLarge, NotAPermutation)) as exc:
            parse_instances(f"3 0 1 2\n{second}\n")
        assert "instances" not in exc.value.certificate

    def test_faults_are_reported_in_reading_order(self):
        # the first instance is validated before the second is tokenised
        with pytest.raises(NotAPermutation):
            parse_instances("3 0 1 5\n3 0 x 2\n")
        with pytest.raises(InstanceTextError) as exc:
            parse_instances("3 0 1 2\n3 0 x 2\n")
        assert exc.value.certificate == {"token": "x"}

    def test_line_boundaries_are_those_of_splitlines(self):
        # a comment starts after any str.splitlines boundary
        for sep in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            assert parse_instances(f"3 0 1 2{sep}# 5 0 2 4 1 3{sep}5 0 2 4 1 3") == [PRISM, PETERSEN]

    @pytest.mark.parametrize("text, m, left", [("5 0 1 2", 5, 3), ("-1 0 1 2", -1, 3), ("3 0 1 2\n4 0", 4, 1)])
    def test_truncated_names_the_entries_left(self, text, m, left):
        with pytest.raises(InstanceTextError) as exc:
            parse_instances(text)
        assert exc.value.certificate == {"m": m}
        assert str(exc.value) == f"truncated instance: declared m={m} with {left} entries left"

    def test_bad_token(self):
        with pytest.raises(InstanceTextError):
            parse_instance("3 0 x 2")

    @pytest.mark.parametrize("tok", ["1_3", "\u0663", "\uff13"], ids=["underscore", "arabic_indic", "full_width"])
    def test_tokens_are_ascii_decimal_integers(self, tok):
        # int() reads these as 13, 3 and 3
        with pytest.raises(InstanceTextError, match="^non-integer token ") as exc:
            parse_instances(f"5 0 2 4 1 {tok}")
        assert exc.value.certificate == {"token": tok}

    def test_signed_tokens_are_read(self):
        assert parse_instance("+5 +0 2 4 1 3") == PETERSEN

    @settings(max_examples=300, deadline=None)
    @given(reader_texts())
    def test_reads_as_the_split_reader(self, text):
        with mock.patch("mpgraphs.core._tokens", tokens_by_split):
            expected = parse_outcome(text)
        assert parse_outcome(text) == expected

    def test_reads_each_token_where_it_lies(self):
        # one token's str and match at a time beside the instance, ~5.3 MB
        # at m = 10^5; a stripped copy of the line and a list of every
        # token's str took ~11.5 MB
        text = random_instance(10**5, 1).to_text()
        tracemalloc.start()
        try:
            G = parse_instance(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.m == 10**5
        assert peak < 8_000_000

    def test_truncated(self):
        with pytest.raises(InstanceTextError):
            parse_instance("5 0 1 2")

    @pytest.mark.parametrize(
        "text, m",
        [
            (f"{MAX_M + 1}", MAX_M + 1),
            (f"{10**11} 0 1 2", 10**11),
            (f"3 0 1 2\n{MAX_M + 1} 0 1 2", MAX_M + 1),
        ],
    )
    def test_declared_m_above_limit(self, text, m):
        with pytest.raises(TooLarge) as exc:
            parse_instances(text)
        assert exc.value.certificate == {"m": m, "limit": MAX_M}

    def test_declared_m_at_limit_is_read(self):
        # MAX_M itself passes the size check and fails as truncated
        with pytest.raises(InstanceTextError):
            parse_instances(f"{MAX_M} 0 1 2")


class TestEnumerateMC4:
    def test_prism(self):
        assert enumerate_m_c4(PRISM) == [FourCycle(0, 1), FourCycle(1, 2), FourCycle(2, 0)]

    def test_petersen(self):
        assert enumerate_m_c4(PETERSEN) == []

    def test_identity_m4(self):
        got = enumerate_m_c4(validate(4, [0, 1, 2, 3]))
        assert got == [FourCycle(0, 1), FourCycle(1, 2), FourCycle(2, 3), FourCycle(3, 0)]

    def test_every_m3_instance_has_three(self):
        import networkx as nx

        prism_nx = instance_to_networkx(PRISM)
        for G in all_instances(3):
            assert len(enumerate_m_c4(G)) == 3
            assert nx.is_isomorphic(instance_to_networkx(G), prism_nx)

    @given(instances())
    def test_pairs_really_are_4_cycles(self, G):
        # cyclically adjacent on the A side, sigma-adjacent on the A' side
        for c in enumerate_m_c4(G):
            assert c.j == (c.i + 1) % G.m
            d = (G.sigma[c.j] - G.sigma[c.i]) % G.m
            assert d in (1, G.m - 1)


class TestSuppressMatch:
    def test_full_petersen(self):
        S = suppress_match(PETERSEN, {0, 1, 2, 3, 4})
        assert S.n == 10
        assert sorted(S.degrees()) == [3] * 10
        assert is_petersen(S)

    def test_two_edges_parallel_collapse(self):
        # retained: A0, A1 and A'0, A'2; both cycles collapse to parallel
        # pairs, matching joins 0-0' and 1-2'
        S = suppress_match(PETERSEN, {0, 1})
        assert S.n == 4
        assert sorted(S.edges) == sorted(
            [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)]
        )
        assert girth(S) == 2

    def test_m4_opposite_pair(self):
        S = suppress_match(validate(4, [0, 1, 2, 3]), {0, 2})
        assert S.n == 4
        assert girth(S) == 2
        assert sorted(S.degrees()) == [3, 3, 3, 3]

    def test_too_few_edges(self):
        with pytest.raises(TooFewEdges):
            suppress_match(PETERSEN, {0})

    @given(instances(), st.data())
    def test_vertex_count_and_regularity(self, G, data):
        size = data.draw(st.integers(2, G.m))
        X = data.draw(
            st.permutations(list(range(G.m))).map(lambda p: tuple(p[:size]))
        )
        S = suppress_match(G, X)
        assert S.n == 2 * len(set(X))
        assert all(d == 3 for d in S.degrees())


class TestGirth:
    def test_petersen_adjacency(self):
        assert girth(suppress_match(PETERSEN, range(5))) == 5

    def test_triangle(self):
        S = SuppressedGraph(3, ((0, 1), (1, 2), (0, 2)))
        assert girth(S) == 3

    def test_parallel_pair(self):
        S = SuppressedGraph(2, ((0, 1), (0, 1)))
        assert girth(S) == 2

    def test_acyclic(self):
        with pytest.raises(NoCycle):
            girth(SuppressedGraph(3, ((0, 1), (1, 2))))

    def test_no_edges(self):
        with pytest.raises(NoCycle):
            girth(SuppressedGraph(2, ()))

    @pytest.mark.parametrize("edges", [((0, 0),), ((0, 0), (0, 0))], ids=["single", "doubled"])
    def test_loop(self, edges):
        assert girth(SuppressedGraph(1, edges)) == 1

    @pytest.mark.parametrize(
        "edges",
        [((3, 3), (0, 1), (1, 2), (0, 2)), ((0, 1), (1, 2), (0, 2), (3, 3))],
        ids=["loop-first", "loop-last"],
    )
    def test_loop_beside_triangle(self, edges):
        assert girth(SuppressedGraph(4, edges)) == 1

    def test_least_over_two_components(self):
        triangle = ((0, 1), (1, 2), (0, 2))
        pentagon = ((3, 4), (4, 5), (5, 6), (6, 7), (3, 7))
        assert girth(SuppressedGraph(8, triangle + pentagon)) == 3
        assert girth(SuppressedGraph(8, pentagon + triangle)) == 3

    def test_parallel_pair_after_other_edges(self):
        assert girth(SuppressedGraph(5, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 3)))) == 2

    @given(instances(3, 8), st.data())
    @settings(max_examples=150)
    def test_agrees_with_cycle_enumeration(self, G, data):
        size = data.draw(st.integers(2, G.m))
        X = data.draw(st.permutations(list(range(G.m))).map(lambda p: tuple(p[:size])))
        S = suppress_match(G, X)
        assert girth(S) == girth_by_cycle_enumeration(S)


def test_suppress_match_and_girth_digest():
    # repr and girth of all 44,448 suppressed graphs with m <= 6 and
    # |X| >= 2, in a fixed order; the digest was recorded from the earlier
    # implementations of suppress_match and girth, which their rewrites
    # must match byte for byte
    h = hashlib.sha256()
    for m in range(3, 7):
        for G in all_instances(m):
            for size in range(2, m + 1):
                for X in itertools.combinations(range(m), size):
                    S = suppress_match(G, X)
                    h.update(f"{S!r} {girth(S)}\n".encode())
    assert h.hexdigest() == "0f766b911b7105079259dce4fc6d746b18e70eb221e060eb871072ded71f84c7"


class TestIsPetersen:
    def test_pentagonal_prism_rejected(self):
        # aligned matching gives girth 4
        assert not is_petersen(suppress_match(validate(5, [0, 1, 2, 3, 4]), range(5)))

    def test_parallel_edge_rejected(self):
        S = suppress_match(validate(6, [0, 1, 2, 3, 4, 5]), {0, 1, 2, 3, 5})
        assert any(
            list(S.edges).count(e) >= 2 for e in set(S.edges)
        ) or girth(S) < 5
        assert not is_petersen(S)

    def test_wrong_order_rejected(self):
        assert not is_petersen(suppress_match(PETERSEN, {0, 1, 2}))

    def test_cubic_with_a_loop_rejected(self):
        # Petersen with A0's cycle edges to A1 and A4 traded for a loop at
        # A0 and the edge A1-A4: still 10 vertices, 15 edges, 3-regular
        S = suppress_match(PETERSEN, range(5))
        edges = [e for e in S.edges if e not in ((0, 1), (0, 4))] + [(0, 0), (1, 4)]
        S = S._replace(edges=tuple(edges))
        assert len(S.edges) == 15 and S.degrees() == [3] * 10
        assert not is_petersen(S)

    @given(instances(5, 9), st.data())
    @settings(max_examples=150)
    def test_agrees_with_isomorphism_oracle(self, G, data):
        X = tuple(sorted(data.draw(st.permutations(list(range(G.m))).map(lambda p: p[:5]))))
        S = suppress_match(G, X)
        assert is_petersen(S) == is_petersen_by_isomorphism(S)


class TestSymmetry:
    def test_swap_sides_petersen(self):
        assert apply_symmetry(PETERSEN, "swap_sides") == validate(5, [0, 3, 1, 4, 2])

    def test_rotate_a_prism(self):
        assert apply_symmetry(PRISM, "rotate_a", 1) == validate(3, [1, 2, 0])

    def test_reflect_preserves_counts(self):
        R = apply_symmetry(PETERSEN, "reflect")
        assert len(enumerate_m_c4(R)) == len(enumerate_m_c4(PETERSEN))
        assert len(enumerate_m_p10(R)) == len(enumerate_m_p10(PETERSEN))

    @given(instances(), st.data())
    def test_group_relations(self, G, data):
        k = data.draw(st.integers(0, G.m - 1))
        assert apply_symmetry(apply_symmetry(G, "rotate_a", k), "rotate_a", (-k) % G.m) == G
        assert apply_symmetry(apply_symmetry(G, "rotate_a_prime", k), "rotate_a_prime", (-k) % G.m) == G
        for op in ("reflect", "swap_sides"):
            assert apply_symmetry(apply_symmetry(G, op), op) == G

    @pytest.mark.parametrize("op", ["rotate_a", "rotate_a_prime", "reflect", "swap_sides"])
    @pytest.mark.parametrize("bad", [-1, 5, 9])
    def test_relabel_witness_checks_its_indices(self, op, bad):
        with pytest.raises(IndexOutOfRange) as exc:
            relabel_witness(PETERSEN, [0, 1, bad, 2, 3], op, 1)
        assert exc.value.certificate == {"index": bad, "m": 5}

    @pytest.mark.parametrize("op", ["rotate_a", "rotate_a_prime", "reflect", "swap_sides"])
    @pytest.mark.parametrize("bad", [1.5, "1", None], ids=["float", "string", "none"])
    def test_shift_that_is_not_an_integer_is_refused(self, op, bad):
        # every op reads k, though only the rotations use it: rotate_a
        # once leaked a TypeError, and relabel_witness under rotate_a_prime
        # returned a result
        for call in (
            lambda: apply_symmetry(PETERSEN, op, bad),
            lambda: relabel_witness(PETERSEN, (0, 1, 2, 3, 4), op, bad),
        ):
            with pytest.raises(InvalidSymmetry, match="is not an integer") as exc:
                call()
            assert exc.value.certificate == {"k": bad}

    @pytest.mark.parametrize("op", ["rotate", "", None])
    def test_unknown_op_is_refused(self, op):
        for call in (lambda: apply_symmetry(PETERSEN, op), lambda: relabel_witness(PETERSEN, [0], op, 1)):
            with pytest.raises(InvalidSymmetry, match="unknown symmetry op") as exc:
                call()
            assert exc.value.certificate == {"op": op}

    @given(instances(3, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_c4_count_invariant(self, G, data):
        op = data.draw(st.sampled_from(["rotate_a", "rotate_a_prime", "reflect", "swap_sides"]))
        k = data.draw(st.integers(0, G.m - 1))
        assert len(enumerate_m_c4(apply_symmetry(G, op, k))) == len(enumerate_m_c4(G))


class TestCyclicConnectivity:
    def test_petersen_is_cyclically_5_connected(self):
        assert is_cyclically_5_edge_connected(PETERSEN)

    def test_prism_matching_cut(self):
        cut = find_cyclic_cut(PRISM)
        assert cut is not None and len(cut) == 3
        # independent check: removing the cut leaves >= 2 cyclic components
        assert len(cyclic_components_after(PRISM, cut)) >= 2

    def test_gk2_not_cyclically_5_connected(self, gk2):
        assert not is_cyclically_5_edge_connected(gk2.graph)

    def test_same_cut_as_counting_exhaustively(self):
        for m in (3, 4, 5):
            for G in all_instances(m):
                assert find_cyclic_cut(G) == cyclic_cut_by_counting(G), G

    def test_same_cut_as_counting_on_named_instances(self, gk1, gk2):
        for G in (PRISM, PETERSEN, gk1.graph, gk2.graph):
            assert find_cyclic_cut(G) == cyclic_cut_by_counting(G), G

    @pytest.mark.parametrize(
        "m, seed, has_cut",
        [
            (8, 1, True),
            (8, 2, False),
            (8, 3, True),
            (8, 4, False),
            (9, 1, True),
            (9, 2, False),
            (10, 1, True),
            (10, 3, False),
        ],
    )
    def test_same_cut_as_counting_on_random_instances(self, m, seed, has_cut):
        # even seeds are drawn 4-cycle-free, as in conftest.seeded_instances
        G = random_instance(m, seed=seed, require_c4_free=seed % 2 == 0)
        cut = find_cyclic_cut(G)
        assert (cut is not None) == has_cut
        assert cut == cyclic_cut_by_counting(G)

    def test_same_cut_as_subsets_exhaustively(self):
        for m in (3, 4, 5, 6):
            for G in all_instances(m):
                assert find_cyclic_cut(G) == cyclic_cut_by_subsets(G), G

    @pytest.mark.parametrize("m", [7, 8, 9, 10, 11, 12])
    def test_same_cut_as_subsets_on_seeded_instances(self, m):
        # seeds 1 and 3 drawn freely, seeds 2 and 4 4-cycle-free
        for G in seeded_instances(m):
            assert find_cyclic_cut(G) == cyclic_cut_by_subsets(G), G

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_same_cut_as_subsets_on_gk(self, k):
        G = generate_gk(k).graph
        assert find_cyclic_cut(G) == cyclic_cut_by_subsets(G)

    def test_gk_cut_at_the_first_interval(self):
        # indices 1..3k+1 of G_k map onto 1'..(3k+1)', so the least cut
        # cuts them off from the other 12 vertices, which hold special
        # group 2
        for k in range(1, 31):
            G = generate_gk(k).graph
            cut = find_cyclic_cut(G)
            assert cut == (("A", 0), ("A", 3 * k + 1), ("A'", 0), ("A'", 3 * k + 1)), k
            sizes = sorted(len(c) for c in cyclic_components_after(G, cut))
            assert sizes == sorted([12, 2 * (3 * k + 1)]), k

    def test_accepted_instances_count_simple_permutations(self):
        # with sigma[0] = 0, pi_0 is sigma[1:], so cyclically 5-edge-connected
        # instances are the simple permutations of length m - 1, which number
        # 2, 6, 46, 338, 2926 for m = 5..9 (OEIS A111111)
        for m, simple in zip(range(5, 10), (2, 6, 46, 338, 2926)):
            accepted = sum(
                is_cyclically_5_edge_connected(validate(m, (0, *tail)))
                for tail in itertools.permutations(range(1, m))
            )
            assert accepted == simple, m

    def test_identity_at_m_1000(self):
        # every arc is its own image, so the least cut cuts off {1, 2} and
        # {1', 2'}; the subset search would first try all ~4.5 * 10^9 sets
        # of at most 3 edges
        G = validate(1000, range(1000))
        cut = find_cyclic_cut(G)
        assert cut == (("A", 0), ("A", 2), ("A'", 0), ("A'", 2))
        assert sorted(len(c) for c in cyclic_components_after(G, cut)) == [4, 1996]

    def test_doubling_at_m_1001_has_no_cut(self):
        # sigma(i) = 2i mod 1001.  An arc of L <= m/2 indices maps to L
        # values 2 apart, which leave a gap after each, so it is never an
        # A'-arc; a longer arc has such a short one as its complement, with
        # the same four cut edges.  So no cut, and m >= 5 rules out the
        # matching.
        G = validate(1001, [2 * i % 1001 for i in range(1001)])
        assert find_cyclic_cut(G) is None

    @given(instances(5, 12))
    @settings(max_examples=200, deadline=None)
    def test_matched_4_cycles_are_arc_cuts(self, G):
        # m >= 5: a matched 4-cycle (i, i+1) is an A-arc P = {i, i+1}
        # whose image is an A'-arc, so its four boundary edges leave two
        # cyclic components, one of them P + sigma(P).  A cyclically
        # 5-edge-connected instance is therefore 4-cycle-free, and every
        # edge meets the corollary's hypothesis that each matched 4-cycle
        # contains it.
        m = G.m
        for c in enumerate_m_c4(G):
            w = G.sigma[c.i] if (G.sigma[c.j] - G.sigma[c.i]) % m == 1 else G.sigma[c.j]
            cut = (("A", (c.i - 1) % m), ("A", c.j), ("A'", (w - 1) % m), ("A'", (w + 1) % m))
            assert sorted(len(p) for p in cyclic_components_after(G, cut)) == [4, 2 * m - 4]
        if is_cyclically_5_edge_connected(G):
            assert enumerate_m_c4(G) == []


# One sample of each immutable value type, with its repr as the library has
# always printed it: ``Name(field=value, ...)`` in field order, except the
# compact MarkedPermutationGraph and a CrossingGraph without its ``adj``.
GK1 = "MarkedPermutationGraph(10, [0, 2, 4, 1, 3, 5, 7, 9, 6, 8])"
VERT = "EdgeClassification(kind=<EdgeClass.VERTICAL: 'vertical'>, group=None)"
SPECIAL = "EdgeClassification(kind=<EdgeClass.SPECIAL: 'special'>, group={})"
VALUE_TYPE_SAMPLES = {
    "MarkedPermutationGraph": (lambda: PETERSEN, "MarkedPermutationGraph(5, [0, 2, 4, 1, 3])"),
    "SuppressedGraph": (
        lambda: suppress_match(PRISM, [0, 1]),
        "SuppressedGraph(n=4, edges=((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)), "
        "labels=('A0', 'A1', \"A'0\", \"A'1\"))",
    ),
    "CrossingGraph": (
        lambda: build_crossing_graph(PETERSEN, 0),
        "CrossingGraph(anchor=0, graph=MarkedPermutationGraph(5, [0, 2, 4, 1, 3]), "
        "vertices=(1, 2, 3, 4))",
    ),
    "InducedPath4": (lambda: InducedPath4(1, 3, 2, 4), "InducedPath4(x=1, y=3, z=2, w=4)"),
    "C4ReduceStep": (lambda: C4ReduceStep(1), "C4ReduceStep(z=1)"),
    "P4FoundStep": (
        lambda: P4FoundStep(0, InducedPath4(1, 3, 2, 4)),
        "P4FoundStep(a=0, path=InducedPath4(x=1, y=3, z=2, w=4))",
    ),
    "ZhangVerdict": (lambda: check_zhang(PETERSEN), "ZhangVerdict(ok=True, c4_count=0, p10_count=1)"),
    "LowerBoundVerdict": (
        lambda: check_lower_bound(PETERSEN),
        "LowerBoundVerdict(applicable=False, ok=True, p10_count=1, required=1)",
    ),
    "ReplaceVerdict": (
        lambda: check_replace(PETERSEN, 0, 1),
        "ReplaceVerdict(ok=True, branch='shared_witness', counterexample=None)",
    ),
    "RedrawingVerdict": (
        lambda: check_redrawing(PETERSEN, 0, 1),
        "RedrawingVerdict(ok=True, failing_clause=None, counterexample=None)",
    ),
    "CensusReport": (
        lambda: census_report(PETERSEN),
        "CensusReport(instance_id='5 0 2 4 1 3', m=5, four_cycles=(), "
        "blocks=((0, 1, 2, (3,), (4,)),), p10_count=1, per_edge=(1, 1, 1, 1, 1), "
        "zhang_ok=True, lower_bound_applicable=False, lower_bound_ok=True)",
    ),
    "ScanRow": (
        lambda: ScanRow(0, (0, 1, 2), 3, 0, 0),
        "ScanRow(instance_index=0, sigma=(0, 1, 2), c4_count=3, p10_count=0, violations=0)",
    ),
    "ScanReport": (
        lambda: ScanReport(3, 6, (), (), 0),
        "ScanReport(m=3, instance_count=6, rows=(), violations=(), witness_runs=0)",
    ),
    "EdgeClassification": (
        lambda: EdgeClassification(EdgeClass.SPECIAL, group=1),
        SPECIAL.format(1),
    ),
    "GkInstance": (
        lambda: generate_gk(1),
        f"GkInstance(k=1, graph={GK1}, classification=("
        + ", ".join([VERT] + [SPECIAL.format(1)] * 4 + [VERT] + [SPECIAL.format(2)] * 4)
        + "))",
    ),
    "GkVerdict": (
        lambda: verify_gk(generate_gk(1)),
        "GkVerdict(ok=True, k=1, c4_count=0, p10_count=12, expected_p10=12, bad_witnesses=())",
    ),
}


class TestValueTypes:
    @pytest.mark.parametrize("name", list(VALUE_TYPE_SAMPLES))
    def test_frozen_with_stable_repr(self, name):
        make, expected = VALUE_TYPE_SAMPLES[name]
        value = make()
        assert type(value).__name__ == name
        assert repr(value) == expected
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 0

    def test_values_are_tuples_of_their_fields(self):
        m, sigma = PETERSEN
        assert (m, sigma) == (5, (0, 2, 4, 1, 3))
        H = build_crossing_graph(PETERSEN, 0)
        assert H == build_crossing_graph(PETERSEN, 0) and H is not build_crossing_graph(PETERSEN, 0)
        assert H != build_crossing_graph(PETERSEN, 1)
        # a matched 4-cycle is its index pair, and an induced path its 4-tuple
        assert 0 in FourCycle(0, 1) and 1 in FourCycle(0, 1) and 2 not in FourCycle(0, 1)
        assert InducedPath4(1, 3, 2, 4) == (1, 3, 2, 4)


class TestIndexArguments:
    """Every index argument is read through operator.index, as validate
    reads sigma: numpy integers act as Python ints, and anything else is
    refused with IndexOutOfRange, not truncated or let through."""

    def test_numpy_integers_act_as_python_ints_at_m_100(self):
        np = pytest.importorskip("numpy")
        G = random_instance(100, seed=1, require_c4_free=True)
        a, b = 99, 98  # 1 << 99 does not fit an int64
        na, nb = np.int64(a), np.int64(b)
        H = build_crossing_graph(G, na)
        assert H == build_crossing_graph(G, a) and type(H.anchor) is int
        X, trace = find_p10_through(G, na)
        assert (X, trace) == find_p10_through(G, a)
        assert replay_trace(G, na, trace) == replay_trace(G, a, trace) == X
        assert check_redrawing(G, na, nb) == check_redrawing(G, a, b)
        assert check_replace(G, np.int64(0), np.int64(1)) == check_replace(G, 0, 1)
        assert standard_drawing(G, na, "dot") == standard_drawing(G, a, "dot")
        assert suppress_match(G, np.array(X)) == suppress_match(G, X)
        for op in ("rotate_a", "reflect", "swap_sides"):
            assert relabel_witness(G, np.array(X), op, 7) == relabel_witness(G, X, op, 7)

    @pytest.mark.parametrize("bad", [1.0, 0.5, "1", None], ids=["float", "fraction", "string", "none"])
    def test_non_integers_are_refused(self, bad):
        _, trace = find_p10_through(PETERSEN, 0)
        for call in (
            lambda: build_crossing_graph(PETERSEN, bad),
            lambda: find_p10_through(PETERSEN, bad),
            lambda: replay_trace(PETERSEN, bad, trace),
            lambda: check_redrawing(PETERSEN, 0, bad),
            lambda: check_replace(PETERSEN, bad, 1),
            lambda: standard_drawing(PETERSEN, bad),
            lambda: suppress_match(PETERSEN, [0, bad]),
            lambda: relabel_witness(PETERSEN, [bad], "reflect"),
        ):
            with pytest.raises(IndexOutOfRange, match="is not an integer") as exc:
                call()
            assert exc.value.certificate == {"index": bad, "m": 5}

    def test_replay_trace_checks_its_edge(self):
        # the trace of edge 0, replayed at an edge one past the last
        G = validate(6, [0, 1, 3, 5, 2, 4])
        _, trace = find_p10_through(G, 0)
        with pytest.raises(IndexOutOfRange) as exc:
            replay_trace(G, 6, trace)
        assert exc.value.message == "edge 6 outside 0..5"
        assert exc.value.certificate == {"index": 6, "m": 6}
