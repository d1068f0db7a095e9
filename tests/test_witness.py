import hashlib
import importlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    PRISM,
    InducedPath4,
    apply_symmetry,
    build_crossing_graph,
    enumerate_m_c4,
    enumerate_m_p10,
    find_induced_p4,
    find_p10_through,
    generate_gk,
    is_petersen,
    p10_from_p4,
    replay_trace,
    suppress_match,
    validate,
    witness_report_dict,
)
from mpgraphs.census import _qualifying_edges, random_instance
from mpgraphs.core import _subset_is_petersen
from mpgraphs.errors import (
    InternalInvariantViolated,
    MpgError,
    NotAC4ThroughE,
    NotAnInducedP4,
    PreconditionViolated,
    TooSmall,
)
from mpgraphs.witness import C4ReduceStep, P4FoundStep, _partners, _Peel, _survivor_graph

from .conftest import (
    all_instances,
    c4_reduce,
    crosses_by_positions,
    find_p10_through_by_chain,
    induced_path_order,
    instances,
    long_chain_instance,
    p10_from_p4_by_rows,
    seeded_instances,
)

# The module, whose _subset_is_petersen the certification tests patch.
witness_module = importlib.import_module("mpgraphs.witness")
core_module = importlib.import_module("mpgraphs.core")
crossing_module = importlib.import_module("mpgraphs.crossing")

# one matched 4-cycle (0,1); both its edges satisfy the extraction
# precondition, so the engine must take the C4-reduction path
ONE_C4 = validate(6, [0, 1, 3, 5, 2, 4])

PETERSEN_H0 = build_crossing_graph(PETERSEN, 0)  # the path 1-3-2-4


def outcome(f, *args):
    """f(*args), or the class, message and certificate of the MpgError it raises."""
    try:
        return f(*args)
    except MpgError as exc:
        return type(exc), exc.message, exc.certificate


class TestP10FromP4:
    def test_petersen(self):
        assert p10_from_p4(PETERSEN_H0, InducedPath4(1, 3, 2, 4)) == (0, 1, 2, 3, 4)

    def test_not_a_path(self):
        with pytest.raises(NotAnInducedP4):
            p10_from_p4(PETERSEN_H0, InducedPath4(1, 2, 3, 4))

    def test_chord_rejected(self):
        # 2-3-4-1 has its three path edges in H_0, and the chord 2-4
        H = build_crossing_graph(validate(5, [0, 2, 4, 3, 1]), 0)
        with pytest.raises(NotAnInducedP4, match="^chord 2-4$") as exc:
            p10_from_p4(H, InducedPath4(2, 3, 4, 1))
        assert exc.value.certificate == {"path": [2, 3, 4, 1], "anchor": 0, "chord": [2, 4]}

    def test_anchor_in_path_rejected(self):
        with pytest.raises(NotAnInducedP4):
            p10_from_p4(build_crossing_graph(PETERSEN, 1), InducedPath4(1, 3, 2, 4))

    def test_plain_tuple_path(self):
        # an InducedPath4 is its 4-tuple, so the tuple itself serves
        assert p10_from_p4(PETERSEN_H0, (1, 3, 2, 4)) == (0, 1, 2, 3, 4)

    def test_float_index_rejected(self):
        # indices are read through operator.index, so 1.0 is no index
        path = InducedPath4(1.0, 3, 2, 4)
        with pytest.raises(NotAnInducedP4, match="4 integer indices") as exc:
            p10_from_p4(PETERSEN_H0, path)
        assert exc.value.certificate == {"path": repr(path), "anchor": 0}

    @staticmethod
    def assert_pair_test_is_the_rows(G):
        # the oracle crosses_by_positions, on every ordered pair of
        # non-anchor indices at every anchor gives build_crossing_graph's rows
        for a in range(G.m):
            H = build_crossing_graph(G, a)
            for x in H.vertices:
                row = sum(crosses_by_positions(G, a, x, y) << y for y in H.vertices if y != x)
                assert row == H.adj[x], (G.to_text(), a, x)

    def test_pair_test_is_the_rows_exhaustively(self):
        for m in range(3, 8):
            for G in all_instances(m):
                self.assert_pair_test_is_the_rows(G)

    @pytest.mark.parametrize("m", [30, 60, 100])
    def test_pair_test_is_the_rows_seeded(self, m):
        for G in seeded_instances(m):
            self.assert_pair_test_is_the_rows(G)

    def test_certifier_is_the_row_oracle_exhaustively(self):
        # every ordered 4-tuple of non-anchor indices at m <= 6 (m >= 5 has
        # one): the same witness, or the same error class, message and
        # certificate
        witnesses = 0
        for m in range(5, 7):
            for G in all_instances(m):
                for a in range(m):
                    H = build_crossing_graph(G, a)
                    for path in itertools.permutations(H.vertices, 4):
                        expected = outcome(p10_from_p4_by_rows, H, path)
                        assert outcome(p10_from_p4, H, path) == expected, (G.to_text(), a, path)
                        witnesses += isinstance(expected[0], int)
        assert witnesses > 0

    @pytest.mark.parametrize("m", [30, 60, 100])
    def test_certifier_is_the_row_oracle_seeded(self, m):
        # at three anchors of each seeded instance: the first induced P4,
        # each of its 24 orderings, and 200 random 4-tuples of vertices
        rng = random.Random(m)
        witnesses = 0
        for G in seeded_instances(m):
            for a in rng.sample(range(m), 3):
                H = build_crossing_graph(G, a)
                paths = [rng.sample(H.vertices, 4) for _ in range(200)]
                p = find_induced_p4(H)
                paths += itertools.permutations(p) if p is not None else ()
                for path in paths:
                    expected = outcome(p10_from_p4_by_rows, H, path)
                    assert outcome(p10_from_p4, H, path) == expected, (G.to_text(), a, path)
                    witnesses += isinstance(expected[0], int)
        assert witnesses > 0

    @given(instances(5, 9), st.data())
    @settings(max_examples=100)
    def test_every_found_p4_certifies(self, G, data):
        from mpgraphs import find_induced_p4

        a = data.draw(st.integers(0, G.m - 1))
        H = build_crossing_graph(G, a)
        p = find_induced_p4(H)
        if p is None:
            return
        X = p10_from_p4(H, p)
        assert a in X
        assert is_petersen(suppress_match(G, X))


class TestC4Reduce:
    """The chain oracle's reduction step, which the engine's peel replaces."""

    def test_identity_m4(self):
        red = c4_reduce(validate(4, [0, 1, 2, 3]), 0, 1)
        assert red.graph == validate(3, [0, 1, 2])
        assert red.index_map == (0, 2, 3)

    def test_petersen_has_no_c4(self):
        with pytest.raises(NotAC4ThroughE):
            c4_reduce(PETERSEN, 0, 1)

    def test_prism_too_small(self):
        with pytest.raises(TooSmall):
            c4_reduce(PRISM, 0, 1)

    @given(instances(4, 9))
    @settings(max_examples=100)
    def test_reduces_every_c4(self, G):
        for c4 in enumerate_m_c4(G):
            red = c4_reduce(G, c4.i, c4.j)
            assert red.graph.m == G.m - 1
            assert c4.j not in red.index_map
            # surviving indices keep cyclic order
            assert red.index_map == tuple(sorted(red.index_map))


def witnesses_from_p4s(H) -> set:
    """{a} + Q over the 4-sets Q of H_a's vertices that induce a P4."""
    a = H.anchor
    quads = itertools.combinations(H.vertices, 4)
    return {tuple(sorted((a,) + q)) for q in quads if induced_path_order(H, q) is not None}


class TestP4Lemma:
    """X containing a is a Petersen witness iff X - a induces a P4 in H_a.

    Both sides depend only on the rank pattern of sigma on X and on a's
    place in it: H_a[X - a] compares the cyclic orders of X on the two
    rows, seen from a.  So the 120 patterns times 5 anchors at m = 5 are
    every case there is, and the first test is the proof for all m.  The
    engine's P4Found move therefore succeeds on every 4-cycle-free state,
    by the paper's theorem, and an edge lies in no witness iff its
    crossing graph is a cograph."""

    def test_proof_on_every_m5_pattern_and_anchor(self):
        cases = hits = 0
        for G in all_instances(5):
            X = (0, 1, 2, 3, 4)
            petersen = _subset_is_petersen(G, X)
            assert petersen == is_petersen(suppress_match(G, X))
            for a in X:
                H = build_crossing_graph(G, a)
                quad = tuple(v for v in X if v != a)
                assert H.vertices == quad
                assert (induced_path_order(H, quad) is not None) == petersen, (G.to_text(), a)
                cases += 1
                hits += petersen
        assert (cases, hits) == (600, 50)  # the 10 Petersen patterns, 5 anchors each

    def test_witnesses_through_every_anchor_exhaustively(self):
        # every anchor of every instance with 3 <= m <= 7, with and without
        # matched 4-cycles
        for m in range(3, 8):
            for G in all_instances(m):
                W = enumerate_m_p10(G)
                for a in range(m):
                    H = build_crossing_graph(G, a)
                    assert witnesses_from_p4s(H) == {X for X in W if a in X}, (G.to_text(), a)

    @pytest.mark.parametrize("m", [20, 30, 40])
    def test_witnesses_through_seeded_anchors(self, m):
        rng = random.Random(m)
        for G in seeded_instances(m):
            W = enumerate_m_p10(G)
            for a in rng.sample(range(m), 3):
                H = build_crossing_graph(G, a)
                assert witnesses_from_p4s(H) == {X for X in W if a in X}, (G.to_text(), a)

    def test_c4_partner_is_isolated_or_universal_exhaustively(self):
        # z is next to a on both rows, so it crosses all of H_a or none of
        # it and lies in no induced P4: by the lemma no witness through a
        # contains z, and the peel, which deletes z, keeps them all
        pairs = 0
        for m in range(3, 9):
            for G in all_instances(m):
                for c4 in enumerate_m_c4(G):
                    for a, z in ((c4.i, c4.j), (c4.j, c4.i)):
                        H = build_crossing_graph(G, a)
                        others = sum(1 << v for v in H.vertices if v != z)
                        assert H.adj[z] & others in (0, others), (G.to_text(), a, z)
                        pairs += 1
        assert pairs == 212_024 + 6 * 6  # m = 3: all 6 instances, 3 cycles each, both ends


class TestPeelArgument:
    """Steps 3 and 4 of the argument in the mpgraphs.witness docstring, one
    C4 reduction at a time; step 2 is
    TestP4Lemma::test_c4_partner_is_isolated_or_universal_exhaustively, and
    by induction over the steps the engine equals the chain."""

    def test_reduced_crossing_graph_is_the_survivors_exhaustively(self):
        # for every C4 partner z of a qualifying edge a: the engine's
        # partners are the 4-cycles' partners, its survivors are the
        # chain's index map, the chain's crossing graph at a is H_a on the
        # survivors relabelled monotonically, and so is its first induced
        # P4, path orientation included
        pairs = found = 0
        for m in range(4, 8):
            for G in all_instances(m):
                c4s = enumerate_m_c4(G)
                for a in _qualifying_edges(G, c4s) if c4s else ():
                    _, partners = _partners(G, a, _Peel())
                    assert set(partners) == {c4.i if c4.j == a else c4.j for c4 in c4s}
                    for z, peel in partners.items():
                        red = c4_reduce(G, a, z)
                        H = _survivor_graph(G, a, peel)
                        survivors = sorted((a, *H.vertices))
                        assert tuple(survivors) == red.index_map
                        new = {v: i for i, v in enumerate(survivors)}
                        reduced = build_crossing_graph(red.graph, new[a])
                        assert reduced.vertices == tuple(new[v] for v in H.vertices)
                        for v in H.vertices:
                            row = sum(1 << new[w] for w in H.vertices if H.has_edge(v, w))
                            assert reduced.adj[new[v]] == row, (G.to_text(), a, z, v)
                        path = find_induced_p4(H)
                        relabelled = None if path is None else InducedPath4(*(new[v] for v in path))
                        assert relabelled == find_induced_p4(reduced), (G.to_text(), a, z)
                        pairs += 1
                        found += path is not None
        assert (pairs, found) == (2640, 2640)

    def test_engine_equals_chain_exhaustively(self):
        # every qualifying run with m <= 8; the chain is the oracle
        runs = chained = 0
        for m in range(3, 9):
            for G in all_instances(m):
                c4s = enumerate_m_c4(G)
                for e in _qualifying_edges(G, c4s):
                    X, trace = find_p10_through(G, e)
                    assert (X, trace) == find_p10_through_by_chain(G, e), (G.to_text(), e)
                    assert replay_trace(G, e, trace) == X
                    runs += 1
                    chained += len(trace) > 1
        assert (runs, chained) == (46_308, 21_132)

    def test_engine_equals_chain_on_gk(self):
        # G_k has no matched 4-cycle, so this checks the run without a peel
        for k in range(1, 11):
            G = generate_gk(k).graph
            for e in _qualifying_edges(G, enumerate_m_c4(G)):
                X, trace = find_p10_through(G, e)
                assert (X, trace) == find_p10_through_by_chain(G, e), (k, e)
                assert replay_trace(G, e, trace) == X

    @pytest.mark.parametrize("m", range(20, 101, 10))
    def test_engine_equals_chain_on_seeded_instances_with_c4s(self, m):
        # the first three seeds whose instance has 4-cycles and a qualifying
        # edge, and the long chain at m, which takes at least 2(m // 4) steps
        cases = [(long_chain_instance(m), m - 1 - m // 4)]
        seed = 0
        while len(cases) < 4:
            seed += 1
            G = random_instance(m, seed=seed)
            c4s = enumerate_m_c4(G)
            cases += [(G, e) for e in (_qualifying_edges(G, c4s) if c4s else ())][:1]
        for G, e in cases:
            X, trace = find_p10_through(G, e)
            assert (X, trace) == find_p10_through_by_chain(G, e), (G.to_text(), e)
            assert replay_trace(G, e, trace) == X
        assert len(find_p10_through(*cases[0])[1]) > 2 * (m // 4)


def assert_least_census_witness(G) -> int:
    """The engine's witness through every qualifying edge e of G is
    min(X for X in enumerate_m_p10(G) if e in X); returns the pairs run."""
    W = enumerate_m_p10(G)  # lexicographic, so the first hit is the least
    edges = _qualifying_edges(G, enumerate_m_c4(G))
    for e in edges:
        assert find_p10_through(G, e)[0] == next(X for X in W if e in X), (G.to_text(), e)
    return len(edges)


class TestLeastCensusWitness:
    """Step 5 of the mpgraphs.witness docstring: the engine returns the
    least census witness through its edge."""

    def test_exhaustively(self):
        assert sum(assert_least_census_witness(G) for m in range(3, 8) for G in all_instances(m)) == 4_964

    def test_on_gk(self):
        # G_16 and G_20 (m = 55, 67) add ~0.9 s: the search reads every row there
        for k in (*range(1, 13), 16, 20):
            assert assert_least_census_witness(generate_gk(k).graph) == 3 * k + 7

    @pytest.mark.parametrize("m", [10, 20, 30, 40])
    def test_on_seeded_instances(self, m):
        assert sum(assert_least_census_witness(G) for G in seeded_instances(m)) >= 2 * m


class TestFindP10Through:
    def test_petersen(self):
        X, trace = find_p10_through(PETERSEN, 0)
        assert X == (0, 1, 2, 3, 4)
        assert trace == (P4FoundStep(0, InducedPath4(1, 3, 2, 4)),)

    def test_prism_precondition(self):
        with pytest.raises(PreconditionViolated) as exc:
            find_p10_through(PRISM, 0)
        assert exc.value.certificate["c4"] == [1, 2]

    def test_precondition_is_the_listed_cycles_exhaustively(self):
        # every edge of every instance with m <= 7: the engine refuses e
        # exactly when enumerate_m_c4 lists a cycle that avoids e, and
        # names the first such cycle in listing order
        refusals = 0
        for m in range(3, 8):
            for G in all_instances(m):
                c4s = enumerate_m_c4(G)
                for e in range(m):
                    first = next((c4 for c4 in c4s if e not in c4), None)
                    try:
                        find_p10_through(G, e)
                    except PreconditionViolated as exc:
                        assert first is not None, (G.to_text(), e)
                        assert exc.message == f"matched 4-cycle ({first.i},{first.j}) avoids edge {e}"
                        assert exc.certificate == {"c4": [first.i, first.j], "edge": e}
                        refusals += 1
                    else:
                        assert first is None, (G.to_text(), e)
        assert refusals == 35_350

    @pytest.mark.parametrize(
        "sigma, e, c4",
        [
            ([0, 1, 2], 0, [1, 2]),
            ([0, 2, 1], 1, [2, 0]),
            ([1, 0, 2], 2, [0, 1]),
            ([0, 1, 2, 3], 0, [1, 2]),
            ([0, 1, 2, 3], 3, [0, 1]),
            ([0, 2, 1, 3], 1, [3, 0]),
            ([0, 2, 1, 3], 0, [1, 2]),
            # ONE_C4 rotated by one: (5, 0) is the only matched 4-cycle
            ([1, 3, 5, 2, 4, 0], 1, [5, 0]),
            ([1, 3, 5, 2, 4, 0], 4, [5, 0]),
        ],
    )
    def test_precondition_refusal(self, sigma, e, c4):
        G = validate(len(sigma), sigma)
        with pytest.raises(PreconditionViolated) as exc:
            find_p10_through(G, e)
        assert exc.value.message == f"matched 4-cycle ({c4[0]},{c4[1]}) avoids edge {e}"
        assert exc.value.certificate == {"c4": c4, "edge": e}

    def test_wrap_pair_alone_admits_its_own_ends(self):
        # the only matched 4-cycle is (5, 0), which the pass from e + 1
        # round to e - 1 skips for e = 5 and e = 0 and reads for the rest
        G = validate(6, [1, 3, 5, 2, 4, 0])
        assert enumerate_m_c4(G) == [(5, 0)]
        for e in (5, 0):
            X, trace = find_p10_through(G, e)
            assert trace[0] == C4ReduceStep(0 if e == 5 else 5)
            assert X in enumerate_m_p10(G) and replay_trace(G, e, trace) == X
        for e in range(1, 5):
            with pytest.raises(PreconditionViolated):
                find_p10_through(G, e)

    def test_c4_reduction_path(self):
        X, trace = find_p10_through(ONE_C4, 0)
        assert X == (0, 2, 3, 4, 5)
        assert trace[0] == C4ReduceStep(1)
        assert isinstance(trace[-1], P4FoundStep)
        assert X in enumerate_m_p10(ONE_C4)

    def test_gk1_witness_is_group_plus_edge(self, gk1):
        g1 = set(gk1.special_group(1))
        g2 = set(gk1.special_group(2))
        for e in (0, 5):  # the two vertical edges
            X, _ = find_p10_through(gk1.graph, e)
            assert e in X
            assert g1 <= set(X) or g2 <= set(X)
            assert X in enumerate_m_p10(gk1.graph)

    def test_every_petersen_edge(self):
        for e in range(5):
            X, _ = find_p10_through(PETERSEN, e)
            assert X == (0, 1, 2, 3, 4)

    def test_every_edge_of_cyclically_5_connected_instance(self):
        # the double-rotation instance on 16 vertices is cyclically
        # 5-edge-connected, so all of its matching edges must be witnessed
        from mpgraphs import is_cyclically_5_edge_connected

        G = validate(8, [0, 3, 6, 1, 4, 7, 2, 5])
        assert is_cyclically_5_edge_connected(G)
        for e in range(8):
            X, _ = find_p10_through(G, e)
            assert e in X and is_petersen(suppress_match(G, X))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_sound_on_random_c4_free(self, seed):
        m = 8 + seed % 5
        G = random_instance(m, seed=seed, require_c4_free=True)
        e = seed % m
        X, trace = find_p10_through(G, e)
        assert e in X
        assert is_petersen(suppress_match(G, X))
        assert replay_trace(G, e, trace) == X

    def test_every_witness_passes_the_general_test_exhaustively(self):
        # the engine certifies by the rank-pattern table, and so does the
        # census that the scan compares it with; suppress-and-girth stays
        # the independent check on every witness the engine returns
        for m in range(3, 8):
            for G in all_instances(m):
                for e in _qualifying_edges(G, enumerate_m_c4(G)):
                    X, _ = find_p10_through(G, e)
                    assert e in X and is_petersen(suppress_match(G, X)), (G, e, X)

    def test_p4_certification_runs(self, monkeypatch):
        monkeypatch.setattr(witness_module, "_subset_is_petersen", lambda G, X: False)
        with pytest.raises(InternalInvariantViolated, match="did not yield a Petersen"):
            p10_from_p4(PETERSEN_H0, InducedPath4(1, 3, 2, 4))
        with pytest.raises(InternalInvariantViolated, match="did not yield a Petersen"):
            find_p10_through(PETERSEN, 0)

    def test_final_reverification_runs_on_the_original_instance(self, monkeypatch):
        # after a C4Reduce step the witness is certified once, in the
        # original instance, and a rejection there aborts the run
        calls = []

        def table(G, X):
            calls.append((G, X))
            return False

        monkeypatch.setattr(witness_module, "_subset_is_petersen", table)
        with pytest.raises(InternalInvariantViolated, match="did not yield a Petersen") as exc:
            find_p10_through(ONE_C4, 0)
        assert calls == [(ONE_C4, (0, 2, 3, 4, 5))]
        assert exc.value.certificate["instance"] == ONE_C4.to_text()

    @pytest.mark.parametrize("G", [PETERSEN, ONE_C4], ids=["c4_free", "after_c4"])
    def test_p4_free_state_is_an_invariant_violation(self, monkeypatch, G):
        # the lemma and the paper's theorem rule this out; the error names
        # the original instance and edge, from which the peel is determined
        monkeypatch.setattr(witness_module, "find_induced_p4", lambda H: None)
        with pytest.raises(InternalInvariantViolated, match="counterexample to the extraction theorem") as exc:
            find_p10_through(G, 0)
        assert exc.value.certificate == {"instance": G.to_text(), "anchor": 0}

    def test_peel_to_the_base_case_is_an_invariant_violation(self):
        # no instance meeting the precondition peels down to 3 edges, where
        # every pair is a matched 4-cycle; a replay on one that does not
        # meet it can, and is refused with the original instance and edge
        G = validate(4, [0, 1, 2, 3])
        trace = (C4ReduceStep(1), C4ReduceStep(1))
        with pytest.raises(InternalInvariantViolated, match="6-vertex base case") as exc:
            replay_trace(G, 0, trace)
        assert exc.value.certificate == {"instance": G.to_text(), "edge": 0}

    @given(instances(3, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_census_or_raises(self, G, data):
        e = data.draw(st.integers(0, G.m - 1))
        qualifying = _qualifying_edges(G, enumerate_m_c4(G))
        if e in qualifying:
            X, trace = find_p10_through(G, e)
            assert e in X
            assert X in enumerate_m_p10(G)
            assert replay_trace(G, e, trace) == X
        else:
            with pytest.raises(PreconditionViolated):
                find_p10_through(G, e)


class TestTraceReplay:
    @staticmethod
    def assert_replay_is_the_row_oracle(G, e, reduces):
        # replay maps every 4-tuple of current indices, the anchor's
        # included, through the survivors as the survivors' graph does, and
        # certifies it as the row oracle does on that graph
        p = _Peel()
        for step in reduces:
            p = _partners(G, e, p)[1][step.z]
        H = _survivor_graph(G, e, p)
        survivors = sorted((e, *H.vertices))
        a = survivors.index(e)
        for path in itertools.permutations(range(len(survivors)), 4):
            expected = outcome(p10_from_p4_by_rows, H, tuple(survivors[v] for v in path))
            got = outcome(replay_trace, G, e, (*reduces, P4FoundStep(a, path)))
            assert got == expected, (G.to_text(), e, reduces, path)

    def test_replay_is_the_row_oracle_after_every_peel_exhaustively(self):
        # every prefix of the engine's peel, wrapping ones included, m <= 6
        peels = 0
        for m in range(4, 7):
            for G in all_instances(m):
                for e in _qualifying_edges(G, enumerate_m_c4(G)):
                    reduces = find_p10_through(G, e)[1][:-1]
                    for k in range(len(reduces) + 1):
                        self.assert_replay_is_the_row_oracle(G, e, reduces[:k])
                    peels += len(reduces)
        assert peels > 0

    @pytest.mark.parametrize("k", range(16))
    def test_replay_is_the_row_oracle_after_a_long_peel(self, k):
        # the long chain at m = 16 peels 8 partners, and rotating it by k
        # wraps the peeled interval past index 0 in every way
        G = apply_symmetry(long_chain_instance(16), "rotate_a", k)
        e = (11 - k) % 16
        reduces = find_p10_through(G, e)[1][:-1]
        assert len(reduces) == 8
        self.assert_replay_is_the_row_oracle(G, e, reduces)
        assert find_p10_through(G, e) == find_p10_through_by_chain(G, e)

    def test_engine_wraps_a_long_peel_past_index_0(self):
        # rotated so that edge 19,999's 10,000-step peel crosses index 0;
        # the digest of the document was recorded from the engine that
        # ranked the survivors by bisecting their sorted list
        G, e = apply_symmetry(long_chain_instance(20000), "rotate_a", 15000), 19_999
        X, steps = find_p10_through(G, e)
        assert X == (5000, 5001, 5003, 5005, 19_999) and len(steps) == 10_001
        assert steps[-1] == P4FoundStep(9999, InducedPath4(1, 0, 5, 3))
        doc = json.dumps(witness_report_dict(X, steps), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "2b765c3ac5b30ceecc6771dcc5a4f661a6cdba86db2c2c76db5d209af2ae06c2"
        )
        assert replay_trace(G, e, steps) == X

    def test_replay_c4_path(self):
        X, trace = find_p10_through(ONE_C4, 1)
        assert replay_trace(ONE_C4, 1, trace) == X

    def test_exhaustive_m6_replays(self):
        for sigma in itertools.permutations(range(6)):
            G = validate(6, sigma)
            for e in _qualifying_edges(G, enumerate_m_c4(G)):
                X, trace = find_p10_through(G, e)
                assert replay_trace(G, e, trace) == X

    @pytest.mark.parametrize("which", ["after_c4", "p4"])
    def test_wrong_anchor_raises(self, which):
        if which == "after_c4":
            _, trace = find_p10_through(ONE_C4, 0)
            reduce, found = trace
            G, steps = ONE_C4, (reduce, P4FoundStep(found.a + 1, found.path))
        else:
            G, steps = PETERSEN, (P4FoundStep(1, InducedPath4(1, 3, 2, 4)),)
        with pytest.raises(InternalInvariantViolated, match="anchor mismatch"):
            replay_trace(G, 0, steps)

    def test_foreign_step_is_an_invariant_violation(self):
        # a step of no known type, here one as a parsed JSON trace holds it,
        # is refused by the step interpreter, not by an AttributeError
        foreign = {"step": "TwinContract", "a": 0, "x": 1, "y": 2}
        _, trace = find_p10_through(ONE_C4, 0)
        for steps in ((foreign,), (trace[0], foreign)):
            with pytest.raises(InternalInvariantViolated, match="unknown trace step") as exc:
                replay_trace(ONE_C4, 0, steps)
            assert exc.value.certificate == {"step": repr(foreign)}

    def test_c4_reduce_of_a_non_partner_raises(self):
        # z is checked by the engine's partner test in current indices,
        # before and after earlier steps moved the anchor
        G, e = long_chain_instance(20), 14
        _, trace = find_p10_through(G, e)
        assert trace[:3] == (C4ReduceStep(15), C4ReduceStep(13), C4ReduceStep(14))
        # the third step's anchor is 13: one peeled index, 13, lies below e
        for prefix, z, a in ((0, 13, 14), (0, 99, 14), (2, 12, 13), (2, 15, 13)):
            steps = trace[:prefix] + (C4ReduceStep(z),) + trace[prefix + 1 :]
            with pytest.raises(NotAC4ThroughE) as exc:
                replay_trace(G, e, steps)
            assert exc.value.certificate == {"a": a, "z": z}
        with pytest.raises(NotAC4ThroughE):
            replay_trace(PETERSEN, 0, (C4ReduceStep(1),) + find_p10_through(PETERSEN, 0)[1])

    @pytest.mark.parametrize("bad", [5, -1, 0], ids=["past_the_end", "negative", "anchor"])
    def test_p4_found_path_outside_the_survivors_raises(self, bad):
        # after C4Reduce(1), ONE_C4 has 5 current indices and the anchor is 0
        _, trace = find_p10_through(ONE_C4, 0)
        reduce, found = trace
        assert found.a == 0 and 0 not in found.path
        path = InducedPath4(bad, *found.path[1:])
        with pytest.raises(NotAnInducedP4):
            replay_trace(ONE_C4, 0, (reduce, P4FoundStep(0, path)))

    @pytest.mark.parametrize(
        "path", [(1, 3, 2), (1, 3, 2, 4, 0), (1.0, 3, 2, 4), None], ids=["three", "five", "float", "none"]
    )
    def test_p4_found_path_that_is_not_four_indices_raises(self, path):
        # PETERSEN has no peel, so current indices are G's and the
        # certificate holds the path as handed to p10_from_p4
        with pytest.raises(NotAnInducedP4, match="4 integer indices") as exc:
            replay_trace(PETERSEN, 0, (P4FoundStep(0, path),))
        assert exc.value.certificate == {"path": repr(path), "anchor": 0}

    def test_survivor_graph_drops_the_peeled_vertices(self):
        # the peeled partner 1 of ONE_C4's edge 0 is no vertex of the
        # graph that P4Found is checked on, so no path through it passes
        _, partners = _partners(ONE_C4, 0, _Peel())
        H = _survivor_graph(ONE_C4, 0, partners[1])
        survivors = sorted((0, *H.vertices))
        assert survivors == [0, 2, 3, 4, 5] and H.vertices == (2, 3, 4, 5)
        assert H.adj[1] == 0 and not any(row >> 1 & 1 for row in H.adj)
        for path in itertools.permutations((1, 2, 3, 4)):
            with pytest.raises(NotAnInducedP4, match="distinct non-anchor"):
                p10_from_p4(H, InducedPath4(*path))

    def test_trace_without_p4_found_raises(self):
        _, trace = find_p10_through(ONE_C4, 1)
        for steps in ((), trace[:-1]):
            with pytest.raises(InternalInvariantViolated, match="without P4Found"):
                replay_trace(ONE_C4, 1, steps)


class TestOneCrossingGraphPerState:
    """The engine makes one crossing graph, at the original anchor,
    whatever the number of C4Reduce steps: built whole below
    crossing._ROWS_ON_DEMAND_FROM_M, and from it on with each row computed
    when it is first read.  Replay makes none: it certifies the path from
    the points."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # (m, anchor) of each crossing graph made, whole or on demand
        built = []
        real = witness_module._engine_crossing_graph

        def counting(G, a):
            built.append((G.m, a))
            return real(G, a)

        monkeypatch.setattr(witness_module, "_engine_crossing_graph", counting)
        return built

    @pytest.fixture
    def rows_computed(self, monkeypatch):
        # the rows each on-demand graph computes, in the order read
        computed = []
        real = crossing_module._RowsOnDemand.__missing__

        def counting(rows, x):
            computed.append(x)
            return real(rows, x)

        monkeypatch.setattr(crossing_module._RowsOnDemand, "__missing__", counting)
        return computed

    @pytest.mark.parametrize("m", [5, 6, 7, 30, 60, 100])
    def test_one_public_build_per_call_below_the_crossover(self, monkeypatch, m):
        # every qualifying edge, of every instance with m <= 7 and of the
        # seeded ones above: the public build runs once per engine call, at
        # the edge, below crossing._ROWS_ON_DEMAND_FROM_M, and never from it
        # on, as the benchmark tracer's builds_per_engine_call reads it
        built = []
        real = crossing_module.build_crossing_graph

        def counting(G, a):
            built.append(a)
            return real(G, a)

        monkeypatch.setattr(crossing_module, "build_crossing_graph", counting)
        calls = 0
        for G in all_instances(m) if m <= 7 else seeded_instances(m):
            for e in _qualifying_edges(G, enumerate_m_c4(G)):
                find_p10_through(G, e)
                assert built == ([e] if m < crossing_module._ROWS_ON_DEMAND_FROM_M else []), (G.to_text(), e)
                built.clear()
                calls += 1
        assert calls

    def test_petersen_edge_0(self, builds):
        X, trace = find_p10_through(PETERSEN, 0)
        assert builds == [(5, 0)]
        builds.clear()
        assert replay_trace(PETERSEN, 0, trace) == X
        assert builds == []

    def test_no_build_for_a_c4_state(self, builds):
        X, trace = find_p10_through(ONE_C4, 0)
        assert isinstance(trace[0], C4ReduceStep)
        assert builds == [(6, 0)]
        builds.clear()
        assert replay_trace(ONE_C4, 0, trace) == X
        assert builds == []

    def test_replay_builds_nothing(self, builds):
        # two matched 4-cycles through edge 21: three C4Reduce steps, then
        # one graph, of the original instance at edge 21, which replay
        # does not make
        G = random_instance(30, seed=1)
        X, trace = find_p10_through(G, 21)
        assert [type(s) for s in trace] == [C4ReduceStep] * 3 + [P4FoundStep]
        assert builds == [(30, 21)]
        builds.clear()
        assert replay_trace(G, 21, trace) == X
        assert builds == []

    def test_p4_search_visits_only_the_survivors(self, monkeypatch):
        # the long chain at m = 40 peels 20 partners; the P4 search gets
        # the other 19 vertices, and no instance is rebuilt; the
        # precondition holds, so no matched 4-cycle is listed either
        searched = []
        real = witness_module.find_induced_p4

        def recording(H):
            searched.append(H)
            return real(H)

        listed = []

        def listing(G):
            listed.append(G)
            return enumerate_m_c4(G)

        def no_validate(m, sigma):
            raise AssertionError("validate called")

        monkeypatch.setattr(witness_module, "find_induced_p4", recording)
        monkeypatch.setattr(witness_module, "enumerate_m_c4", listing)
        monkeypatch.setattr(witness_module, "validate", no_validate, raising=False)
        monkeypatch.setattr(core_module, "validate", no_validate)
        G, e = long_chain_instance(40), 29
        X, trace = find_p10_through(G, e)
        assert len(trace) == 21 and listed == []
        (H,) = searched
        peeled = set(range(19, 40)) - {e}
        assert H.anchor == e and len(H.vertices) == 19 and peeled.isdisjoint(H.vertices)

    def test_survivor_graph_keeps_the_rows_of_h_e(self):
        # after the whole peel the rows are H_e's own, peeled bits included:
        # no induced P4 of H_e holds a peeled partner, so none needs masking.
        # m = 40 computes its rows on demand, and ONE_C4 (m = 6) builds them
        for G, e in ((long_chain_instance(40), 29), (ONE_C4, 0)):
            p = _Peel()
            while partners := _partners(G, e, p)[1]:
                p = partners[min(partners)]
            assert p != _Peel()
            rows, expected = _survivor_graph(G, e, p).adj, build_crossing_graph(G, e).adj
            assert [rows[x] for x in range(G.m)] == list(expected), (G.m, e)

    def test_rows_on_demand_at_m_10000(self, builds, rows_computed):
        # the engine computes the 3 rows of H_0 that its search reads, of
        # 9,999: the path's fourth vertex 329 is oriented from its bits in
        # them, and p10_from_p4 reads none; replay computes none
        G = random_instance(10_000, seed=1, require_c4_free=True)
        X, trace = find_p10_through(G, 0)
        assert X == (0, 1, 2, 3, 329)
        assert builds == [(10_000, 0)] and rows_computed == [1, 2, 3]
        builds.clear()
        rows_computed.clear()
        assert replay_trace(G, 0, trace) == X
        assert builds == [] and rows_computed == []

    @pytest.fixture(scope="class")
    def m_100000(self):
        return random_instance(100_000, seed=1, require_c4_free=True)

    def test_engine_memory_at_m_100000(self, m_100000):
        # a few rows of 12.5 kB each, and O(m) tuples: ~8 MB, where the
        # m - 1 rows of H_0 took 1.3 GB
        tracemalloc.start()
        try:
            X, trace = find_p10_through(m_100000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X == (0, 1, 2, 3, 14) and peak < 64 * 2**20, peak

    def test_replay_memory_at_m_100000(self, m_100000):
        # replay holds the peel and five points, not O(m) survivors or
        # rows: ~1 kB, where building its graph's rows peaked at 8.4 MB
        X, trace = find_p10_through(m_100000, 0)
        tracemalloc.start()
        try:
            assert replay_trace(m_100000, 0, trace) == X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
