import csv
import importlib
import io
import itertools
import math
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    PRISM,
    apply_symmetry,
    build_crossing_graph,
    census_report,
    check_lower_bound,
    check_redrawing,
    check_replace,
    check_zhang,
    count_per_edge,
    enumerate_m_c4,
    enumerate_m_p10,
    exhaustive_scan,
    find_p10_through,
    generate_gk,
    is_petersen,
    random_instance,
    relabel_witness,
    suppress_match,
    validate,
)
from mpgraphs.census import MAX_ATTEMPTS, _count, _expand, _petersen_blocks, _placements
from mpgraphs.core import PETERSEN_PATTERNS, _subset_is_petersen
from mpgraphs.errors import ExhaustedAttempts, InvalidJobs, OutOfScanRange

from .conftest import (
    SCAN_FAULT_INDEX,
    all_instances,
    induced_p4_count_by_bitmask,
    induced_path_order,
    inject_scan_faults,
    instances,
    line_locals,
    line_runs,
    pair_ok_by_side_masks,
    petersen_blocks_by_rank_table,
    petersen_by_sorted_slices,
    redrawing_by_pairs,
    replace_by_census,
    replace_by_four_sets,
    seeded_instances,
)


class TestEnumerateMP10:
    def test_petersen_single_witness(self):
        assert enumerate_m_p10(PETERSEN) == [(0, 1, 2, 3, 4)]

    def test_prism_empty(self):
        assert enumerate_m_p10(PRISM) == []

    def test_gk1_count(self, gk1):
        assert len(enumerate_m_p10(gk1.graph)) == 12

    def test_jobs_do_not_change_output(self, gk1):
        serial = enumerate_m_p10(gk1.graph, jobs=1)
        assert enumerate_m_p10(gk1.graph, jobs=2) == serial
        g = generate_gk(4).graph
        assert enumerate_m_p10(g, jobs=4) == enumerate_m_p10(g, jobs=1)

    def test_pattern_table_agrees_with_direct_exhaustively(self):
        for m in (5, 6):
            for G in all_instances(m):
                for X in itertools.combinations(range(m), 5):
                    assert _subset_is_petersen(G, X) == is_petersen(suppress_match(G, X))

    @given(instances(5, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pattern_table_agrees_with_direct_random(self, G, data):
        X = tuple(sorted(data.draw(st.permutations(list(range(G.m))).map(lambda p: p[:5]))))
        assert _subset_is_petersen(G, X) == is_petersen(suppress_match(G, X))


def brute_force_p10(G):
    """The reference census: every 5-subset, kept when its rank pattern is
    in the table."""
    return [X for X in itertools.combinations(range(G.m), 5) if _subset_is_petersen(G, X)]


def census_digest(witnesses):
    """A witness list's length and hash, so that two large censuses can be
    compared without holding both lists."""
    return len(witnesses), hash(tuple(witnesses))


class TestPetersenSearch:
    def test_closed_form_table_is_the_petersen_verdict(self):
        # on m = 5 the whole instance is the subset, so sigma is its pattern
        assert len(PETERSEN_PATTERNS) == 10
        for G in all_instances(5):
            assert (G.sigma in PETERSEN_PATTERNS) == is_petersen(suppress_match(G, range(5)))

    def test_table_is_closed_under_inversion(self):
        # _subset_is_petersen looks up the inverse of the rank pattern,
        # which gives the pattern's own verdict only if the table holds
        # the inverse of each of its patterns
        for P in PETERSEN_PATTERNS:
            inverse = [0] * 5
            for i, r in enumerate(P):
                inverse[r] = i
            assert tuple(inverse) in PETERSEN_PATTERNS, P

    def test_equals_brute_force_exhaustively(self):
        for m in range(3, 9):
            for G in all_instances(m):
                assert enumerate_m_p10(G) == brute_force_p10(G), G

    @pytest.mark.parametrize("k", range(1, 13))
    def test_equals_brute_force_on_gk(self, k):
        G = generate_gk(k).graph
        assert enumerate_m_p10(G) == brute_force_p10(G)

    @pytest.mark.parametrize("m,seed,c4_free", [(20, 1, False), (20, 2, True), (30, 3, False), (30, 1, True), (40, 4, True)])
    def test_equals_brute_force_on_random(self, m, seed, c4_free):
        G = random_instance(m, seed=seed, require_c4_free=c4_free)
        assert enumerate_m_p10(G) == brute_force_p10(G)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_equals_sorted_slices_on_gk(self, k):
        G = generate_gk(k).graph
        assert enumerate_m_p10(G) == petersen_by_sorted_slices(G.sigma)

    @pytest.mark.parametrize("c4_free", [False, True])
    @pytest.mark.parametrize("m", [50, 60, 80])
    def test_equals_sorted_slices_on_random(self, m, c4_free):
        G = random_instance(m, seed=2, require_c4_free=c4_free)
        assert bool(enumerate_m_c4(G)) != c4_free
        # up to ~2M witnesses at m = 80: hold one list at a time
        expected = census_digest(petersen_by_sorted_slices(G.sigma))
        assert census_digest(enumerate_m_p10(G)) == expected


class TestPetersenBlocks:
    """The pair walk's blocks against the walk that visits every triple and
    reads its bounds from a rank table: the same blocks, tuple for tuple,
    in the same order."""

    def test_equals_rank_table_walk_exhaustively(self):
        for m in range(3, 9):
            for sigma in itertools.permutations(range(m)):
                assert list(_petersen_blocks(sigma)) == list(petersen_blocks_by_rank_table(sigma)), sigma

    @pytest.mark.parametrize("k", range(1, 31))
    def test_equals_rank_table_walk_on_gk(self, k):
        sigma = generate_gk(k).graph.sigma
        assert list(_petersen_blocks(sigma)) == list(petersen_blocks_by_rank_table(sigma))

    @pytest.mark.parametrize("m", range(8, 81))
    def test_equals_rank_table_walk_on_random(self, m):
        # the first seed whose instance has a matched 4-cycle, and one drawn
        # without any
        with_c4 = next(G for s in itertools.count(1) if enumerate_m_c4(G := random_instance(m, seed=s)))
        without = random_instance(m, seed=m, require_c4_free=True)
        assert not enumerate_m_c4(without)
        for G in (with_c4, without):
            assert list(_petersen_blocks(G.sigma)) == list(petersen_blocks_by_rank_table(G.sigma)), G


def assert_blocks_live(sigma):
    # every slice entry completes a witness: each x3 precedes the last x4
    # and each x4 follows the first x3, so no reader of the blocks skips
    # an entry, and the census --json writer's first row opens the list
    for block in _petersen_blocks(sigma):
        x3s, x4s = block[3:]
        assert x3s and x4s, (sigma, block)
        assert all(x3 < x4s[-1] for x3 in x3s), (sigma, block)
        assert all(x4 > x3s[0] for x4 in x4s), (sigma, block)


class TestBlockLiveness:
    def test_every_block_yields_a_witness_exhaustively(self):
        for m in range(3, 8):
            for sigma in itertools.permutations(range(m)):
                assert_blocks_live(sigma)

    def test_every_block_yields_a_witness_on_gk(self):
        for k in range(1, 31):
            assert_blocks_live(generate_gk(k).graph.sigma)

    def test_every_block_yields_a_witness_on_random(self):
        for m in range(30, 81, 10):
            for c4_free in (True, False):
                assert_blocks_live(random_instance(m, seed=m, require_c4_free=c4_free).sigma)


class TestPairWalkScaling:
    """Each pair keeps, per side, only the x2s whose values lie beyond that
    side's threshold, so on G_k every x2 the walk visits yields a block and
    the census grows with the pairs, not the triples."""

    @pytest.mark.parametrize("k", range(1, 31))
    def test_every_visit_yields_a_block_on_gk(self, k):
        sigma = generate_gk(k).graph.sigma
        blocks = []
        visits = line_runs(
            _petersen_blocks, "x2 = bit.bit_length() - 1", lambda: blocks.extend(_petersen_blocks(sigma))
        )
        assert visits == len(blocks) > 0

    def test_gk300_census_within_seconds(self, gk300):
        # ~0.4 s on a 2-core VM (Python 3.11); a walk that visits every x2
        # the pair's side masks allow takes ~13 s there
        start = time.perf_counter()
        count = len(enumerate_m_p10(gk300.graph))
        elapsed = time.perf_counter() - start
        assert count == 6 * 300 + 6
        assert elapsed < 3, elapsed


def switch_rows(sigma: tuple[int, ...]) -> list[int]:
    """swx from its definition: bit y of swx[v], for 0 <= y <= m - 2, is
    set iff exactly one of sigma[y], sigma[y + 1] is below v."""
    m = len(sigma)
    return [sum(1 << y for y in range(m - 1) if (sigma[y] < v) != (sigma[y + 1] < v)) for v in range(m + 1)]


def pair_ok_by_switch_rows(sigma: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Every pair's ok by lemmas A and B of _petersen_blocks: the side
    switches after x1 are the bits above x1 of swx[s0] ^ swx[s1], and ok is
    the indices x1 + 1 .. y', y' the second-highest switch, or nothing
    when there are fewer than two."""
    m = len(sigma)
    swx = switch_rows(sigma)
    oks = {}
    for x0 in range(m - 4):
        for x1 in range(x0 + 1, m - 3):
            sw = (swx[sigma[x0]] ^ swx[sigma[x1]]) >> x1 + 1 << x1 + 1
            ok = 0
            if sw.bit_count() >= 2:
                y2 = (sw ^ 1 << sw.bit_length() - 1).bit_length() - 1
                ok = (2 << y2) - (2 << x1)
            oks[x0, x1] = ok
    return oks


def assert_pair_stage(sigmas, walk=True):
    """The lemmas' ok equals the two side masks' on every pair of every
    sigma; with ``walk``, the walk keeps exactly the pairs whose ok is not
    empty, each with that ok, read by one line tracer over all of them."""
    sigmas = list(sigmas)
    kept = {}
    if walk:
        for sigma, x0, x1, ok in line_locals(
            _petersen_blocks,
            "lo, hi = (s0, s1) if s0 < s1 else (s1, s0)",
            ("sigma", "x0", "x1", "ok"),
            lambda: [list(_petersen_blocks(sigma)) for sigma in sigmas],
        ):
            kept.setdefault(sigma, {})[x0, x1] = ok
    for sigma in sigmas:
        expected = pair_ok_by_side_masks(sigma)
        assert pair_ok_by_switch_rows(sigma) == expected, sigma
        if walk:
            assert kept.get(sigma, {}) == {pair: ok for pair, ok in expected.items() if ok}, sigma


class TestPairSwitchRows:
    """The walk's pair stage, one XOR of two switch rows per pair, against
    the two side masks it replaced: the same ok on every pair."""

    def test_equals_side_masks_exhaustively(self):
        assert_pair_stage(sigma for m in range(3, 8) for sigma in itertools.permutations(range(m)))

    def test_equals_side_masks_on_gk(self):
        assert_pair_stage(generate_gk(k).graph.sigma for k in range(1, 61))

    def test_equals_side_masks_on_random(self):
        # the first seed whose instance has a matched 4-cycle, and one drawn
        # without any; the walk itself is traced at a few sizes, since
        # tracing every x2 visit of the larger instances would take minutes
        for m in range(30, 101):
            with_c4 = next(G for s in itertools.count(1) if enumerate_m_c4(G := random_instance(m, seed=s)))
            without = random_instance(m, seed=m, require_c4_free=True)
            assert_pair_stage((with_c4.sigma, without.sigma), walk=m in (30, 40, 60))


class TestDoublingClosedForm:
    """sigma(i) = 2i mod m, for odd m, is the generalized Petersen graph
    GP(m, 2).  Rotating A by 1 and A' by 2 maps it to itself, so every
    edge lies in the same number of witnesses.  That number is
    C((m + 3) / 2, 4), a closed form fitted on small m and not yet
    proved, so the census is m C((m + 3) / 2, 4) / 5: an exact answer far
    above the exhaustive range, on a family that is not G_k."""

    @pytest.mark.parametrize("m", range(5, 62, 2))
    def test_census_equals_closed_form(self, m):
        G = validate(m, [2 * i % m for i in range(m)])
        per_edge = math.comb((m + 3) // 2, 4)
        assert _count(G.sigma) * 5 == m * per_edge
        assert count_per_edge(G) == [per_edge] * m


class TestJobsBounds:
    @pytest.mark.parametrize("jobs", [0, -1, -100000])
    def test_nonpositive_jobs_rejected_before_any_pool(self, jobs):
        # enumerate_m_p10 is the one function left that takes jobs
        for G in (generate_gk(4).graph, PRISM):
            with pytest.raises(InvalidJobs) as exc:
                enumerate_m_p10(G, jobs=jobs)
            assert exc.value.certificate == {"jobs": jobs}

    @pytest.mark.parametrize("jobs", ["2", 1.5])
    def test_non_integer_jobs_rejected(self, jobs):
        # read through operator.index, like every other integer argument
        with pytest.raises(InvalidJobs) as exc:
            enumerate_m_p10(PETERSEN, jobs=jobs)
        assert exc.value.certificate == {"jobs": jobs}
        assert exc.value.message == f"jobs={jobs!r} is not an integer"


class TestCountPerEdge:
    def test_petersen_all_ones(self):
        assert count_per_edge(PETERSEN) == [1, 1, 1, 1, 1]

    def test_prism_all_zero(self):
        assert count_per_edge(PRISM) == [0, 0, 0]

    def test_gk1_counts(self, gk1):
        # verticals sit in one witness per group; each special edge sits in
        # all six witnesses of its own group plus one cross-group witness
        assert count_per_edge(gk1.graph) == [2, 7, 7, 7, 7, 2, 7, 7, 7, 7]

    @given(instances(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_five_per_witness(self, G):
        assert sum(count_per_edge(G)) == 5 * len(enumerate_m_p10(G))


def per_edge_by_listing(m, witnesses):
    """The per-edge counts by one pass over a witness list."""
    counts = [0] * m
    for X in witnesses:
        for x in X:
            counts[x] += 1
    return counts


def assert_per_edge_counts_induced_p4s(G):
    # the P4 lemma: X containing a is a witness iff X - a induces a P4 in H_a
    report = census_report(G)
    expected = [induced_p4_count_by_bitmask(build_crossing_graph(G, a)) for a in range(G.m)]
    assert list(report.per_edge) == expected, G
    assert sum(report.per_edge) == 5 * report.p10_count


class TestCensusBlocks:
    """The three consumers of the census blocks, the listing, the count
    and the per-edge tally, against each other and against an induced-P4
    count in the crossing graphs."""

    def test_p4_counter_counts_the_inducing_quads_exhaustively(self):
        for m in range(3, 7):
            for G in all_instances(m):
                for a in range(m):
                    H = build_crossing_graph(G, a)
                    quads = itertools.combinations(H.vertices, 4)
                    expected = sum(induced_path_order(H, q) is not None for q in quads)
                    assert induced_p4_count_by_bitmask(H) == expected, (G, a)

    def test_per_edge_counts_induced_p4s_exhaustively(self):
        for m in range(3, 8):
            for G in all_instances(m):
                assert_per_edge_counts_induced_p4s(G)

    @pytest.mark.parametrize("m", [20, 30])
    def test_per_edge_counts_induced_p4s_on_seeded(self, m):
        for G in seeded_instances(m):
            assert_per_edge_counts_induced_p4s(G)

    def test_tally_count_and_listing_agree_exhaustively(self):
        for m in range(3, 9):
            for G in all_instances(m):
                wits = enumerate_m_p10(G)
                expected = per_edge_by_listing(m, wits)
                assert count_per_edge(G) == expected, G
                assert check_zhang(G).p10_count == len(wits), G
                report = census_report(G)
                assert report.witnesses == tuple(wits) and list(report.per_edge) == expected, G

    @pytest.mark.parametrize("k", range(1, 31))
    def test_tally_count_and_listing_agree_on_gk(self, k):
        G = generate_gk(k).graph
        wits = enumerate_m_p10(G)
        expected = per_edge_by_listing(G.m, wits)
        assert count_per_edge(G) == expected
        assert check_zhang(G).p10_count == check_lower_bound(G).p10_count == len(wits)
        report = census_report(G)
        assert report.witnesses == tuple(wits) and list(report.per_edge) == expected

    @pytest.mark.parametrize("m", [50, 60, 80])
    def test_tally_count_and_listing_agree_on_random(self, m):
        G = random_instance(m, seed=2)
        # up to ~2M witnesses at m = 80: hold one list at a time
        wits = enumerate_m_p10(G)
        listed = census_digest(wits)
        expected = per_edge_by_listing(m, wits)
        del wits
        report = census_report(G)
        assert census_digest(report.witnesses) == listed
        assert list(report.per_edge) == expected
        del report
        assert count_per_edge(G) == expected
        assert check_zhang(G).p10_count == check_lower_bound(G).p10_count == listed[0]

    def test_checkers_count_without_listing(self):
        G = random_instance(60, seed=1, require_c4_free=True)
        for count in (
            lambda: check_lower_bound(G).p10_count,
            lambda: check_zhang(G).p10_count,
            lambda: sum(count_per_edge(G)) // 5,
        ):
            tracemalloc.start()
            try:
                n = count()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert n == 497028
            # the list of 497,028 witnesses alone takes ~60 MB
            assert peak < 5_000_000
        assert len(enumerate_m_p10(G)) == 497028


class TestCheckZhang:
    def test_prism_via_c4(self):
        v = check_zhang(PRISM)
        assert v.ok and v.c4_count == 3 and v.p10_count == 0

    def test_petersen_via_p10(self):
        v = check_zhang(PETERSEN)
        assert v.ok and v.c4_count == 0 and v.p10_count == 1

    def test_exhaustive_m5(self):
        assert all(check_zhang(G).ok for G in all_instances(5))


class TestCheckLowerBound:
    def test_gk5_applicable_and_ok(self):
        v = check_lower_bound(generate_gk(5).graph)
        assert v.applicable and v.ok
        assert v.p10_count == 36 and v.required == 18

    def test_petersen_too_small(self):
        assert not check_lower_bound(PETERSEN).applicable

    def test_c4_blocks_applicability(self):
        big = validate(20, list(range(20)))  # aligned: full of 4-cycles
        assert not check_lower_bound(big).applicable


class TestCheckReplace:
    def test_petersen_shared_witness(self):
        v = check_replace(PETERSEN, 0, 1)
        assert v.ok and v.branch == "shared_witness"

    def test_gk1_verticals_swap_equivalent(self, gk1):
        # no witness holds two vertical edges, so the swap branch must carry
        v = check_replace(gk1.graph, 0, 5)
        assert v.ok and v.branch == "swap_equivalent"

    def test_exhaustive_m5(self):
        for G in all_instances(5):
            for a, b in itertools.permutations(range(5), 2):
                assert check_replace(G, a, b).ok

    def test_same_verdict_as_four_sets_exhaustively(self):
        for m in (3, 4, 5, 6):
            for G in all_instances(m):
                for a, b in itertools.permutations(range(m), 2):
                    expected = replace_by_four_sets(G, a, b, lambda X: _subset_is_petersen(G, X))
                    assert check_replace(G, a, b) == expected, (G, a, b)

    def test_counterexample_branch_on_doctored_witnesses(self, gk1, gk2, monkeypatch):
        # The lemma holds on every instance, so the counterexample branch is
        # reached only through a census that is not the true one: here the
        # blocks expand without one, or every, witness through a.  The
        # four-set scan is given the same list.
        dropped = []
        monkeypatch.setattr(
            "mpgraphs.census._expand", lambda blocks: [X for X in _expand(blocks) if X not in dropped]
        )
        reached = 0
        for G in (gk1.graph, gk2.graph, generate_gk(3).graph):
            census = enumerate_m_p10(G)
            for a, b in itertools.permutations(range(G.m), 2):
                if check_replace(G, a, b).branch != "swap_equivalent":
                    continue
                through_a = [X for X in census if a in X]
                for drop in [[X] for X in through_a] + [through_a]:
                    dropped[:] = drop
                    given = [X for X in census if X not in dropped]
                    expected = replace_by_four_sets(G, a, b, set(given).__contains__)
                    verdict = check_replace(G, a, b)
                    assert not verdict.ok and verdict.branch is None
                    assert verdict == expected, (G, a, b, dropped)
                    reached += 1
                dropped[:] = []
        assert reached > 0

    def test_own_walk_agrees_with_the_given_census(self):
        # only the witnesses through a or b are kept, against a walk of the
        # whole census; the G_k vertical pairs take the swap branch, the
        # seeded pairs the shared-witness branch.  The four-set scan visits
        # C(m-2, 4) sets per swap pair, ~35 s for G_10's 380 pairs, so it
        # checks the G_k only up to k = 6 and the seeded pairs
        branches = set()
        cases = []
        for k in range(1, 11):
            inst = generate_gk(k)
            verticals = inst.classification_json()["vertical"]
            cases.append((inst.graph, list(itertools.permutations(verticals, 2)), k <= 6))
        for m in range(20, 61, 10):
            for G in seeded_instances(m)[:2]:
                cases.append((G, [(0, 1), (m - 1, 0), (2, m // 2)], True))
        for G, pairs, scan in cases:
            census = set(enumerate_m_p10(G))
            for a, b in pairs:
                verdict = check_replace(G, a, b)
                assert verdict == replace_by_census(census, a, b), (G, a, b)
                if scan:
                    assert verdict == replace_by_four_sets(G, a, b, census.__contains__), (G, a, b)
                branches.add(verdict.branch)
        assert branches == {"shared_witness", "swap_equivalent"}

    def test_holds_only_the_witnesses_through_its_edges(self):
        G = random_instance(60, seed=1, require_c4_free=True)
        tracemalloc.start()
        try:
            verdict = check_replace(G, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.ok and verdict.branch == "shared_witness"
        # the list of all 497,028 witnesses takes ~44 MB here; those
        # through edge 0 or 1 take ~7 MB
        assert peak < 15_000_000

    def test_stops_at_the_first_shared_block(self, monkeypatch):
        # at m = 150 the walk up to max(a, b) = 149 is the whole census,
        # 50,664,590 witnesses; the first block through 148 and 149 ends it
        G = random_instance(150, 1, True)
        first = next(
            n for n, block in enumerate(_petersen_blocks(G.sigma))
            if any(148 in X and 149 in X for X in _expand([block]))
        )
        drawn = 0

        def counting(sigma):
            nonlocal drawn
            for block in _petersen_blocks(sigma):
                drawn += 1
                yield block

        monkeypatch.setattr("mpgraphs.census._petersen_blocks", counting)
        tracemalloc.start()
        try:
            verdict = check_replace(G, 148, 149)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.ok and verdict.branch == "shared_witness"
        assert drawn == first + 1
        # a walk that keeps every witness through 148 or 149 holds ~300 MB
        assert peak < 20_000_000


class TestCheckRedrawing:
    def test_petersen(self):
        assert check_redrawing(PETERSEN, 0, 1).ok

    def test_prism(self):
        assert check_redrawing(PRISM, 0, 1).ok

    @given(instances(3, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random(self, G, data):
        a = data.draw(st.integers(0, G.m - 1))
        b = data.draw(st.integers(0, G.m - 1).filter(lambda v: v != a))
        assert check_redrawing(G, a, b).ok

    def test_matches_pair_loop_exhaustively(self):
        checked = 0
        for m in range(3, 7):
            for G in all_instances(m):
                H = [build_crossing_graph(G, v) for v in range(m)]
                for a, b in itertools.permutations(range(m), 2):
                    assert check_redrawing(G, a, b) == redrawing_by_pairs(H[a], H[b]), (G.sigma, a, b)
                    checked += 1
        assert checked == 24324

    @pytest.mark.parametrize(
        "G",
        [PETERSEN, generate_gk(1).graph, random_instance(20, seed=1)],
        ids=["petersen", "G_1", "random20"],
    )
    def test_flipped_crossings_fail_like_pair_loop(self, G, monkeypatch):
        """Flip the crossings of one vertex x of H_a or of H_b (both bits of
        each): with one other vertex y, for every pair x < y of that graph's
        non-anchor vertices, and with every vertex but x, a and b.  The
        verdict, clause and counterexample must equal the pair loop's on the
        same graphs; the second kind leaves more than one failing pair, so
        the least must be chosen."""
        clauses = {1: 0, 2: 0}
        for a, b in ((0, 1), (4, 2)):
            for target in (a, b):
                rest = [v for v in range(G.m) if v != target]
                for x in rest:
                    row = tuple(y for y in rest if y not in (x, a, b))
                    for ys in [(y,) for y in rest if y > x] + [row]:
                        H = {a: build_crossing_graph(G, a), b: build_crossing_graph(G, b)}
                        adj = list(H[target].adj)
                        for y in ys:
                            adj[x] ^= 1 << y
                            adj[y] ^= 1 << x
                        H[target] = H[target]._replace(adj=tuple(adj))
                        monkeypatch.setattr("mpgraphs.crossing.build_crossing_graph", lambda G, v: H[v])
                        verdict = check_redrawing(G, a, b)
                        assert verdict == redrawing_by_pairs(H[a], H[b]), (a, b, target, x, ys)
                        assert not verdict.ok
                        clauses[verdict.failing_clause] += 1
        assert clauses[1] > 0 and clauses[2] > 0, clauses


class TestExhaustiveScan:
    def test_m3(self):
        r = exhaustive_scan(3)
        assert r.instance_count == 6
        assert r.violation_count == 0
        # the prism never has a qualifying edge
        assert r.witness_runs == 0
        assert all(row.c4_count == 3 for row in r.rows)

    def test_m5(self):
        r = exhaustive_scan(5)
        assert r.instance_count == 120
        assert r.violation_count == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfScanRange):
            exhaustive_scan(9)
        with pytest.raises(OutOfScanRange):
            exhaustive_scan(2)

    def test_m_read_as_an_integer(self):
        np = pytest.importorskip("numpy")
        assert exhaustive_scan(np.int64(4)) == exhaustive_scan(4)
        for bad in (5.0, "5", None):
            with pytest.raises(OutOfScanRange, match="is not an integer") as exc:
                exhaustive_scan(bad)
            assert exc.value.certificate == {"m": bad}

    @pytest.mark.parametrize("m", range(3, 8))
    def test_rows_match_an_independent_census(self, m):
        r = exhaustive_scan(m)
        expected = []
        for i, sigma in enumerate(itertools.permutations(range(m))):
            G = validate(m, sigma)
            expected.append((i, sigma, len(enumerate_m_c4(G)), len(brute_force_p10(G)), 0))
        assert r.rows == tuple(expected)
        assert r.instance_count == len(expected) == math.factorial(m)

    @pytest.mark.parametrize("m", range(3, 8))
    def test_placements_match_the_census_walk(self, m):
        # the scan's one pass over pattern placements against the walk that
        # every single-instance caller runs: the same witnesses, in the same
        # order, for every sigma, keyed in permutations order
        placed = _placements(m)
        assert list(placed) == list(itertools.permutations(range(m)))
        for sigma, wits in placed.items():
            assert list(wits) == enumerate_m_p10(validate(m, sigma)), sigma

    def test_scan_runs_the_public_engine(self, monkeypatch):
        # every engine run goes through the public find_p10_through, which
        # the scan reads from the witness module, so a wrapper there sees each one
        witness_module = importlib.import_module("mpgraphs.witness")
        calls = []

        def counting(G, e):
            calls.append((G.sigma, e))
            return find_p10_through(G, e)

        monkeypatch.setattr(witness_module, "find_p10_through", counting)
        report = exhaustive_scan(6)
        assert report.violation_count == 0
        assert len(calls) == report.witness_runs > 0
        assert len(set(calls)) == len(calls)

    # each record names its instance and kind, then its own fields
    PETERSEN_RECORD = {"instance_index": SCAN_FAULT_INDEX, "sigma": [0, 2, 4, 1, 3]}

    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("zhang_fail", {}),
            ("witness_error", {"edge": 1, "detail": "RuntimeError('injected engine fault')"}),
            ("witness_unsound", {"edge": 3, "witness": [4, 3, 2, 1, 0]}),
        ],
    )
    def test_violation_record(self, monkeypatch, kind, extra):
        clean = exhaustive_scan(5)
        inject_scan_faults(monkeypatch, kind)
        r = exhaustive_scan(5)
        assert r.violations == ({**self.PETERSEN_RECORD, "kind": kind, **extra},)
        assert list(r.violations[0]) == ["instance_index", "sigma", "kind", *extra]
        assert r.rows[SCAN_FAULT_INDEX] == clean.rows[SCAN_FAULT_INDEX]._replace(violations=1)
        assert r.rows[:SCAN_FAULT_INDEX] + r.rows[SCAN_FAULT_INDEX + 1 :] == (
            clean.rows[:SCAN_FAULT_INDEX] + clean.rows[SCAN_FAULT_INDEX + 1 :]
        )
        assert r.witness_runs == clean.witness_runs

    def test_violation_records_in_scan_order(self, monkeypatch):
        # the Zhang record comes first, then the engine's in edge order; a
        # raising engine run records its error and nothing else
        inject_scan_faults(monkeypatch, "witness_unsound", "zhang_fail", "witness_error")
        r = exhaustive_scan(5)
        assert [(v["kind"], v.get("edge")) for v in r.violations] == [
            ("zhang_fail", None),
            ("witness_error", 1),
            ("witness_unsound", 3),
        ]
        assert r.rows[SCAN_FAULT_INDEX].violations == r.violation_count == 3

    def test_csv_shape(self):
        r = exhaustive_scan(3)
        lines = r.to_csv().strip().split("\n")
        assert lines[0] == "m,instance_index,c4_count,p10_count,violations"
        assert len(lines) == 7

    def test_csv_is_what_the_csv_module_writes(self, monkeypatch):
        inject_scan_faults(monkeypatch, "zhang_fail")
        r = exhaustive_scan(5)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "instance_index", "c4_count", "p10_count", "violations"])
        writer.writerows((5, row.instance_index, row.c4_count, row.p10_count, row.violations) for row in r.rows)
        assert r.to_csv() == buf.getvalue()
        assert ",1\n" in r.to_csv()


class TestRandomInstance:
    def test_deterministic(self):
        assert random_instance(8, seed=7) == random_instance(8, seed=7)

    def test_numpy_integers_act_as_python_ints(self):
        np = pytest.importorskip("numpy")
        G = random_instance(np.int64(30), np.int64(1), require_c4_free=True)
        assert G == random_instance(30, 1, require_c4_free=True) and type(G.m) is int

    @pytest.mark.parametrize("flag", ["no", 2, None])
    def test_non_bool_c4_free_flag_refused(self, flag):
        # a truthy string or integer would otherwise read as True
        with pytest.raises(TypeError, match="require_c4_free"):
            random_instance(5, 1, flag)

    def test_bool_like_c4_free_flags_accepted(self):
        np = pytest.importorskip("numpy")
        for flag in (1, np.bool_(True)):
            assert random_instance(30, 1, flag) == random_instance(30, 1, True)
        for flag in (0, np.bool_(False)):
            assert random_instance(30, 1, flag) == random_instance(30, 1, False)

    def test_any_permutation_validates(self):
        G = random_instance(5, seed=1)
        assert G.m == 5

    def test_m3_never_c4_free(self):
        # every one of the 3! instances with m = 3 has a matched 4-cycle
        assert all(enumerate_m_c4(G) for G in all_instances(3))

    def test_default_attempt_cap_is_the_cli_default(self):
        # m = 3 has no 4-cycle-free instance, so every draw up to the cap is spent
        with pytest.raises(ExhaustedAttempts) as exc:
            random_instance(3, seed=0, require_c4_free=True)
        assert exc.value.certificate == {"m": 3, "seed": 0, "attempts": MAX_ATTEMPTS}
        assert MAX_ATTEMPTS == 100000

    def test_c4_free_m10_reachable(self):
        G = random_instance(10, seed=7, require_c4_free=True)
        assert enumerate_m_c4(G) == []


class TestCensusReport:
    def test_petersen_report(self):
        r = census_report(PETERSEN)
        assert r.c4_count == 0 and r.p10_count == 1
        assert r.zhang_ok and not r.lower_bound_applicable
        d = r.to_json_dict()
        assert d["p10_list"] == [(0, 1, 2, 3, 4)]
        assert sum(d["per_edge_counts"]) == 5 * r.p10_count

    def test_prism_report(self):
        r = census_report(PRISM)
        assert r.c4_count == 3 and r.p10_count == 0 and r.zhang_ok

    def test_flags_are_the_checkers_verdicts(self):
        # every instance with m <= 8, where the lower bound never applies,
        # and G_k and seeded instances with m >= 20, where it can
        cases = [G for m in range(3, 9) for G in all_instances(m)]
        cases += [generate_gk(k).graph for k in range(1, 13)]
        cases += seeded_instances(20) + seeded_instances(30)
        applicable = 0
        for G in cases:
            r = census_report(G)
            lb = check_lower_bound(G)
            assert r.zhang_ok == check_zhang(G).ok, G
            assert (r.lower_bound_applicable, r.lower_bound_ok) == (lb.applicable, lb.ok), G
            applicable += lb.applicable
        assert applicable > 0

    def test_package_attribute_is_the_module(self):
        import mpgraphs

        assert mpgraphs.census is sys.modules["mpgraphs.census"]

    @given(instances(3, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_invariant_under_symmetry(self, G, data):
        op = data.draw(st.sampled_from(["rotate_a", "rotate_a_prime", "reflect", "swap_sides"]))
        k = data.draw(st.integers(0, G.m - 1))
        H = apply_symmetry(G, op, k)
        wits_g = enumerate_m_p10(G)
        wits_h = enumerate_m_p10(H)
        assert len(wits_g) == len(wits_h)
        assert len(enumerate_m_c4(G)) == len(enumerate_m_c4(H))
        # witnesses map pointwise through the relabeling
        assert sorted(relabel_witness(G, X, op, k) for X in wits_g) == wits_h

    @pytest.mark.parametrize("m", range(3, 7))
    def test_relabel_witness_is_equivariant_exhaustively(self, m):
        # each op's index map carries G's census, its matched 4-cycles and
        # its witnesses, onto the census of the instance the op builds
        for G in all_instances(m):
            c4s, wits = enumerate_m_c4(G), enumerate_m_p10(G)
            for op in ("rotate_a", "rotate_a_prime", "reflect", "swap_sides"):
                for k in {0, 1, m - 1}:
                    H, case = apply_symmetry(G, op, k), (G.sigma, op, k)
                    c4s_h = sorted(tuple(sorted(c4)) for c4 in enumerate_m_c4(H))
                    assert sorted(relabel_witness(G, c4, op, k) for c4 in c4s) == c4s_h, case
                    assert sorted(relabel_witness(G, X, op, k) for X in wits) == enumerate_m_p10(H), case
