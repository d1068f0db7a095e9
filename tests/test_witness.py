import importlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    PRISM,
    Arc,
    InducedPath4,
    ReductionTrace,
    Side,
    TwinContractStep,
    TwinKind,
    TwinPair,
    build_crossing_graph,
    c4_reduce,
    enumerate_m_c4,
    enumerate_m_p10,
    find_induced_p4,
    find_p10_through,
    find_twins,
    is_petersen,
    p10_from_p4,
    replay_trace,
    suppress_match,
    twin_contract,
    validate,
)
from mpgraphs.census import _qualifying_edges, random_instance
from mpgraphs.errors import (
    DegenerateArc,
    InternalInvariantViolated,
    NotAC4ThroughE,
    NotAnInducedP4,
    NotTwins,
    PreconditionViolated,
    TooSmall,
)
from mpgraphs.witness import C4ReduceStep, P4FoundStep, _apply_step, _Run

from .conftest import all_instances, instances

# The module, whose _subset_is_petersen the certification tests patch.
witness_module = importlib.import_module("mpgraphs.witness")

# one matched 4-cycle (0,1); both its edges satisfy the extraction
# precondition, so the engine must take the C4-reduction path
ONE_C4 = validate(6, [0, 1, 3, 5, 2, 4])

# At anchor 0 the twins 2, 7 contract onto an m = 7 instance whose crossing
# graph has an induced P4.  No instance with m <= 7 has a twin contraction
# followed by an induced P4, at any anchor and for any twin pair, so this
# is as small as such a trace gets.  The engine would not take this route:
# the crossing graph at anchor 0 already has an induced P4.
TWIN_THEN_P4 = validate(8, [0, 1, 2, 4, 6, 3, 5, 7])

PETERSEN_H0 = build_crossing_graph(PETERSEN, 0)  # the path 1-3-2-4


def twin_then_p4_trace():
    """A hand-built TwinContract, P4Found trace on TWIN_THEN_P4 at anchor 0,
    and the witness it must replay to."""
    tc = twin_contract(build_crossing_graph(TWIN_THEN_P4, 0), TwinPair(2, 7, TwinKind.FALSE_TWINS))
    a = tc.index_map.index(0)
    H = build_crossing_graph(tc.graph, a)
    p4 = find_induced_p4(H)
    trace = ReductionTrace((TwinContractStep(0, tc.x, tc.y, tc.q_prime), P4FoundStep(a, p4)))
    return trace, tuple(sorted(tc.index_map[v] for v in p10_from_p4(H, p4)))


class TestP10FromP4:
    def test_petersen(self):
        assert p10_from_p4(PETERSEN_H0, InducedPath4(1, 3, 2, 4)) == (0, 1, 2, 3, 4)

    def test_not_a_path(self):
        with pytest.raises(NotAnInducedP4):
            p10_from_p4(PETERSEN_H0, InducedPath4(1, 2, 3, 4))

    def test_anchor_in_path_rejected(self):
        with pytest.raises(NotAnInducedP4):
            p10_from_p4(build_crossing_graph(PETERSEN, 1), InducedPath4(1, 3, 2, 4))

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


class TestTwinContract:
    def test_identity_m4(self):
        H = build_crossing_graph(validate(4, [0, 1, 2, 3]), 0)
        tc = twin_contract(H, TwinPair(1, 2, TwinKind.FALSE_TWINS))
        assert tc.graph == validate(3, [0, 1, 2])
        assert tc.q_prime == Arc(Side.A_PRIME, 1, 2)

    def test_reversal_true_twins(self):
        H = build_crossing_graph(validate(5, [0, 4, 3, 2, 1]), 0)
        tc = twin_contract(H, TwinPair(1, 2, TwinKind.TRUE_TWINS))
        assert tc.graph == validate(3, [0, 2, 1])
        assert tc.index_map == (0, 1, 2)
        # adjacent twins flip the matched path's direction
        assert tc.q_prime == Arc(Side.A_PRIME, 3, 4)

    def test_identity_m5(self):
        H = build_crossing_graph(validate(5, [0, 1, 2, 3, 4]), 0)
        tc = twin_contract(H, TwinPair(1, 2, TwinKind.FALSE_TWINS))
        assert tc.graph == validate(3, [0, 1, 2])

    def test_not_twins(self):
        with pytest.raises(NotTwins):
            twin_contract(PETERSEN_H0, TwinPair(1, 2, TwinKind.FALSE_TWINS))

    def test_degenerate_arc(self):
        # twins 1 and 3 around the anchor of (4, identity): the outside arc
        # has no interior beyond the anchor, signalling a matched 4-cycle
        H = build_crossing_graph(validate(4, [0, 1, 2, 3]), 0)
        with pytest.raises(DegenerateArc):
            twin_contract(H, TwinPair(1, 3, TwinKind.FALSE_TWINS))

    @given(instances(5, 9), st.data())
    @settings(max_examples=150)
    def test_matched_arcs_pair_up(self, G, data):
        # the twin lemma: matching restricted to the kept arc lands in Q'
        a = data.draw(st.integers(0, G.m - 1))
        H = build_crossing_graph(G, a)
        t = find_twins(H)
        if t is None:
            return
        try:
            tc = twin_contract(H, t)
        except DegenerateArc:
            assert enumerate_m_c4(G)  # only possible when a 4-cycle exists
            return
        m = G.m
        arc_vertices = Arc(Side.A, tc.x, tc.y).vertices(m)
        q_vertices = set(tc.q_prime.vertices(m))
        assert {G.sigma[v] for v in arc_vertices} == q_vertices
        assert tc.graph.m < m
        assert tc.graph.m == len(arc_vertices) + 1


class TestFindP10Through:
    def test_petersen(self):
        X, trace = find_p10_through(PETERSEN, 0)
        assert X == (0, 1, 2, 3, 4)
        assert trace.steps == (P4FoundStep(0, InducedPath4(1, 3, 2, 4)),)

    def test_prism_precondition(self):
        with pytest.raises(PreconditionViolated) as exc:
            find_p10_through(PRISM, 0)
        assert exc.value.certificate["c4"] == [1, 2]

    def test_c4_reduction_path(self):
        X, trace = find_p10_through(ONE_C4, 0)
        assert X == (0, 2, 3, 4, 5)
        assert trace.steps[0] == C4ReduceStep(1)
        assert isinstance(trace.steps[-1], P4FoundStep)
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
        G = random_instance(m, seed=seed, require_c4_free=True, max_attempts=500)
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
        # accept at P4Found, in the reduced instance, then reject the lifted
        # witness in the original one
        calls = []

        def table(G, X):
            calls.append((G, X))
            return len(calls) == 1

        monkeypatch.setattr(witness_module, "_subset_is_petersen", table)
        with pytest.raises(InternalInvariantViolated, match="failed re-verification"):
            find_p10_through(ONE_C4, 0)
        assert len(calls) == 2
        assert calls[0][0].m == 5
        assert calls[1] == (ONE_C4, (0, 2, 3, 4, 5))

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
    def test_replay_c4_path(self):
        X, trace = find_p10_through(ONE_C4, 1)
        assert replay_trace(ONE_C4, 1, trace) == X

    def test_exhaustive_m6_replays(self):
        for sigma in itertools.permutations(range(6)):
            G = validate(6, sigma)
            for e in _qualifying_edges(G, enumerate_m_c4(G)):
                X, trace = find_p10_through(G, e)
                assert replay_trace(G, e, trace) == X

    def test_replay_twin_contract_then_p4(self):
        trace, lifted = twin_then_p4_trace()
        X = replay_trace(TWIN_THEN_P4, 0, trace)
        assert X == lifted
        assert 0 in X and is_petersen(suppress_match(TWIN_THEN_P4, X))

    @pytest.mark.parametrize("which", ["twin", "p4"])
    def test_wrong_anchor_raises(self, which):
        if which == "twin":
            trace, _ = twin_then_p4_trace()
            G, first = TWIN_THEN_P4, trace.steps[0]
            steps = (TwinContractStep(1, first.x, first.y, first.q_prime),) + trace.steps[1:]
        else:
            G, steps = PETERSEN, (P4FoundStep(1, InducedPath4(1, 3, 2, 4)),)
        with pytest.raises(InternalInvariantViolated, match="anchor mismatch"):
            replay_trace(G, 0, ReductionTrace(steps))

    @pytest.mark.parametrize("corruption", ["q_prime", "swapped"])
    def test_corrupted_twin_step_raises(self, corruption):
        trace, _ = twin_then_p4_trace()
        first = trace.steps[0]
        if corruption == "q_prime":
            bad = TwinContractStep(first.a, first.x, first.y, Arc(Side.A_PRIME, 1, 1))
        else:
            bad = TwinContractStep(first.a, first.y, first.x, first.q_prime)
        with pytest.raises(InternalInvariantViolated, match="differs from the contraction") as exc:
            replay_trace(TWIN_THEN_P4, 0, ReductionTrace((bad,) + trace.steps[1:]))
        assert exc.value.certificate["recorded"] == bad.to_json_dict()
        assert exc.value.certificate["performed"] == first.to_json_dict()

    def test_trace_without_p4_found_raises(self):
        _, trace = find_p10_through(ONE_C4, 1)
        for steps in ((), trace.steps[:-1]):
            with pytest.raises(InternalInvariantViolated, match="without P4Found"):
                replay_trace(ONE_C4, 1, ReductionTrace(steps))

    def test_found_twin_pair_is_recorded_normalized(self):
        # the engine hands over a TwinPair, in whatever order it was found;
        # the step it records passes the recorded-step check on replay
        trace, lifted = twin_then_p4_trace()
        start = _Run(TWIN_THEN_P4, 0, tuple(range(8)))
        H = build_crossing_graph(TWIN_THEN_P4, 0)
        found = _apply_step(start, TwinPair(7, 2, TwinKind.FALSE_TWINS), H)
        assert found.steps == trace.steps[:1]
        assert found == _apply_step(start, trace.steps[0], H)
        assert replay_trace(TWIN_THEN_P4, 0, ReductionTrace(found.steps + trace.steps[1:])) == lifted

    def test_degenerate_twin_arc_is_an_invariant_violation(self):
        G = validate(4, [0, 1, 2, 3])
        with pytest.raises(InternalInvariantViolated, match="degenerate twin arc") as exc:
            _apply_step(
                _Run(G, 0, tuple(range(4))), TwinPair(1, 3, TwinKind.FALSE_TWINS), build_crossing_graph(G, 0)
            )
        assert isinstance(exc.value.__cause__, DegenerateArc)


class TestOneCrossingGraphPerState:
    """The engine and replay build one crossing graph per state that needs
    one, and hand it to the step code, which builds none of its own."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        real = witness_module.build_crossing_graph

        def counting(G, a):
            built.append((G.m, a))
            return real(G, a)

        monkeypatch.setattr(witness_module, "build_crossing_graph", counting)
        return built

    def test_petersen_edge_0(self, builds):
        X, trace = find_p10_through(PETERSEN, 0)
        assert builds == [(5, 0)]
        builds.clear()
        assert replay_trace(PETERSEN, 0, trace) == X
        assert builds == [(5, 0)]

    def test_twin_then_p4(self, builds):
        # no known engine run takes the twin branch, so the engine side is
        # its loop body by hand: each state's graph is built through the
        # counted name and handed to _apply_step
        trace, lifted = twin_then_p4_trace()
        run = _Run(TWIN_THEN_P4, 0, tuple(range(8)))
        H = witness_module.build_crossing_graph(run.graph, run.a)
        run = _apply_step(run, TwinPair(2, 7, TwinKind.FALSE_TWINS), H)
        H = witness_module.build_crossing_graph(run.graph, run.a)
        run = _apply_step(run, P4FoundStep(run.a, find_induced_p4(H)), H)
        assert run.steps == trace.steps and run.witness == lifted
        assert builds == [(8, 0), (run.graph.m, run.a)]
        builds.clear()
        assert replay_trace(TWIN_THEN_P4, 0, trace) == lifted
        assert builds == [(8, 0), (run.graph.m, run.a)]

    def test_no_build_for_a_c4_state(self, builds):
        X, trace = find_p10_through(ONE_C4, 0)
        assert isinstance(trace.steps[0], C4ReduceStep)
        assert [m for m, _ in builds] == [5]
        builds.clear()
        assert replay_trace(ONE_C4, 0, trace) == X
        assert [m for m, _ in builds] == [5]
