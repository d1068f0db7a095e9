import importlib
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import (
    PETERSEN,
    PRISM,
    apply_symmetry,
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
from mpgraphs.census import MAX_ATTEMPTS
from mpgraphs.core import PETERSEN_PATTERNS, _subset_is_petersen
from mpgraphs.errors import ExhaustedAttempts, InvalidAttempts, InvalidJobs, OutOfScanRange

from .conftest import all_instances, instances, petersen_by_sorted_slices, replace_by_four_sets


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


class TestJobsBounds:
    @pytest.mark.parametrize("jobs", [0, -1, -100000])
    def test_nonpositive_jobs_rejected_before_any_pool(self, jobs):
        # enumerate_m_p10 is the one function left that takes jobs
        for G in (generate_gk(4).graph, PRISM):
            with pytest.raises(InvalidJobs) as exc:
                enumerate_m_p10(G, jobs=jobs)
            assert exc.value.certificate == {"jobs": jobs}


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
        wits = enumerate_m_p10(G)
        assert sum(count_per_edge(G, wits)) == 5 * len(wits)


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
            wits = enumerate_m_p10(G)
            for a, b in itertools.permutations(range(5), 2):
                assert check_replace(G, a, b, witnesses=wits).ok

    def test_same_verdict_as_four_sets_exhaustively(self):
        for m in (3, 4, 5, 6):
            for G in all_instances(m):
                wits = enumerate_m_p10(G)
                for a, b in itertools.permutations(range(m), 2):
                    expected = replace_by_four_sets(G, a, b, lambda X: _subset_is_petersen(G, X))
                    assert check_replace(G, a, b, witnesses=wits) == expected, (G, a, b)
                    assert check_replace(G, a, b) == expected, (G, a, b)

    def test_counterexample_branch_on_doctored_witnesses(self, gk1, gk2):
        # The lemma holds on every instance, so the counterexample branch is
        # reached only through witness lists that are not the census: here
        # the census with one, or every, witness through a dropped.  The
        # four-set scan is given the same list.
        reached = 0
        for G in (gk1.graph, gk2.graph, generate_gk(3).graph):
            census = enumerate_m_p10(G)
            for a, b in itertools.permutations(range(G.m), 2):
                if check_replace(G, a, b, witnesses=census).branch != "swap_equivalent":
                    continue
                through_a = [X for X in census if a in X]
                for dropped in [[X] for X in through_a] + [through_a]:
                    given = [X for X in census if X not in dropped]
                    expected = replace_by_four_sets(G, a, b, set(given).__contains__)
                    verdict = check_replace(G, a, b, witnesses=given)
                    assert not verdict.ok and verdict.branch is None
                    assert verdict == expected, (G, a, b, dropped)
                    reached += 1
        assert reached > 0


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

    @pytest.mark.parametrize("m", range(3, 7))
    def test_rows_match_an_independent_census(self, m):
        r = exhaustive_scan(m)
        expected = []
        for i, sigma in enumerate(itertools.permutations(range(m))):
            G = validate(m, sigma)
            expected.append((i, sigma, len(enumerate_m_c4(G)), len(brute_force_p10(G)), 0))
        assert r.rows == tuple(expected)
        assert r.instance_count == len(expected) == math.factorial(m)

    def test_engine_reuses_the_scan_c4_list(self, monkeypatch):
        # the scan lists each instance's 4-cycles once and hands the list to
        # the engine, which then lists them only after each C4Reduce step:
        # one call per engine run fewer than the public find_p10_through
        census_module = importlib.import_module("mpgraphs.census")
        witness_module = importlib.import_module("mpgraphs.witness")
        calls = []

        def counting(G):
            calls.append(G)
            return enumerate_m_c4(G)

        monkeypatch.setattr(census_module, "enumerate_m_c4", counting)
        monkeypatch.setattr(witness_module, "enumerate_m_c4", counting)
        report = exhaustive_scan(6)
        scan_calls = len(calls)
        calls.clear()
        runs = 0
        for sigma in itertools.permutations(range(6)):
            G = validate(6, sigma)
            for e in census_module._qualifying_edges(G, enumerate_m_c4(G)):
                find_p10_through(G, e)
                runs += 1
        assert runs == report.witness_runs > 0
        assert scan_calls == report.instance_count + len(calls) - report.witness_runs

    def test_csv_shape(self):
        r = exhaustive_scan(3)
        lines = r.to_csv().strip().split("\n")
        assert lines[0] == "m,instance_index,c4_count,p10_count,violations"
        assert len(lines) == 7


class TestRandomInstance:
    def test_deterministic(self):
        assert random_instance(8, seed=7) == random_instance(8, seed=7)

    def test_any_permutation_validates(self):
        G = random_instance(5, seed=1)
        assert G.m == 5

    def test_m3_never_c4_free(self):
        with pytest.raises(ExhaustedAttempts) as exc:
            random_instance(3, seed=0, require_c4_free=True, max_attempts=100)
        assert exc.value.certificate["attempts"] == 100

    def test_default_attempt_cap_is_the_cli_default(self):
        # m = 3 has no 4-cycle-free instance, so every default draw is spent
        with pytest.raises(ExhaustedAttempts) as exc:
            random_instance(3, seed=0, require_c4_free=True)
        assert exc.value.certificate["attempts"] == MAX_ATTEMPTS == 100000

    def test_c4_free_m10_reachable(self):
        G = random_instance(10, seed=7, require_c4_free=True, max_attempts=100000)
        assert enumerate_m_c4(G) == []

    @pytest.mark.parametrize("attempts", [0, -1])
    @pytest.mark.parametrize("c4_free", [False, True])
    def test_attempt_cap_below_1_refused(self, attempts, c4_free):
        with pytest.raises(InvalidAttempts) as exc:
            random_instance(5, seed=1, require_c4_free=c4_free, max_attempts=attempts)
        assert exc.value.certificate == {"max_attempts": attempts}


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
