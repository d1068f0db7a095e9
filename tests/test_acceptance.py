"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or in captured
output) so the suite doubles as a human-readable report.  Scans are shared
module-wide because two criteria read the same results.
"""

import io
import itertools
import time

import pytest

from mpgraphs import (
    PETERSEN,
    PRISM,
    apply_symmetry,
    census_report,
    check_lower_bound,
    check_redrawing,
    check_replace,
    enumerate_m_c4,
    enumerate_m_p10,
    exhaustive_scan,
    find_p10_through,
    generate_gk,
    is_cyclically_5_edge_connected,
    is_petersen,
    random_instance,
    suppress_match,
    validate,
)
from mpgraphs.cli import run

SCAN_RANGE = (3, 4, 5, 6, 7)


def cli(argv, stdin_text=""):
    out = io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


@pytest.fixture(scope="module")
def scans():
    return {m: exhaustive_scan(m) for m in SCAN_RANGE}


def test_criterion_1_gk_counts():
    """G_k census: c4 = 0 and p10 = 6k+6 exactly, for k = 1..30, via the CLI."""
    t0 = time.time()
    import json

    for k in range(1, 31):
        code, gk_text = cli(["gk", str(k)])
        assert code == 0
        code, out = cli(["census", "-", "--json"], stdin_text=gk_text)
        assert code == 0
        report = json.loads(out)
        assert report["c4_count"] == 0, f"k={k}"
        assert report["p10_count"] == 6 * k + 6, f"k={k}"
    elapsed = time.time() - t0
    print(f"\nPASS criterion 1: G_k censuses exact (c4=0, p10=6k+6, k=1..30) in {elapsed:.1f}s")


def test_criterion_2_main_theorem_scans(scans):
    """Exhaustive m=3..7: every qualifying edge yields a sound witness."""
    t0 = time.time()
    total_runs = 0
    for m in SCAN_RANGE:
        report = scans[m]
        bad = [v for v in report.violations if v["kind"] != "zhang_fail"]
        assert bad == [], f"m={m}: {bad[:3]}"
        total_runs += report.witness_runs
    assert total_runs > 0
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 2: witness extraction sound on all m=3..7 "
        f"({total_runs} engine runs, 0 violations) in {elapsed:.1f}s"
    )


def test_criterion_3_zhang_scans(scans):
    """Every instance in the same scans has 2 four-cycles or a witness."""
    for m in SCAN_RANGE:
        report = scans[m]
        assert not any(v["kind"] == "zhang_fail" for v in report.violations), f"m={m}"
        for row in report.rows:
            assert row.c4_count >= 2 or row.p10_count >= 1, (m, row)
    print("\nPASS criterion 3: two-C4-or-P10 dichotomy holds on all m=3..7")


def test_criterion_4_fixture_counts():
    """PETERSEN census {c4: 0, p10: 1}; PRISM census {c4: 3, p10: 0}."""
    pet = census_report(PETERSEN)
    pri = census_report(PRISM)
    assert (pet.c4_count, pet.p10_count) == (0, 1)
    assert (pri.c4_count, pri.p10_count) == (3, 0)
    print("\nPASS criterion 4: fixture censuses exact (petersen 0/1, prism 3/0)")


def test_criterion_5_lower_bound():
    """p10 >= m-4 on 4-cycle-free instances with n >= 40: the G_k family
    for k=5,6,7 and 50 rejection-sampled random instances, m in 20..25."""
    t0 = time.time()
    for k in (5, 6, 7):
        v = check_lower_bound(generate_gk(k).graph)
        assert v.applicable and v.ok, (k, v)
        assert v.p10_count == 6 * k + 6 and v.required == 3 * k + 3
    sampled = 0
    seed = 0
    while sampled < 50:
        m = 20 + sampled % 6
        G = random_instance(m, seed=1000 + seed, require_c4_free=True)
        seed += 1
        v = check_lower_bound(G)
        assert v.applicable, (m, G.sigma)
        assert v.ok, (m, G.sigma, v.p10_count, v.required)
        sampled += 1
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 5: linear lower bound holds on G_5..G_7 and 50 random "
        f"C4-free instances (m=20..25) in {elapsed:.1f}s"
    )


def test_criterion_6_lemma_property_suites():
    """Redrawing and replace checkers: exhaustive for m <= 6, plus 1000
    seeded random triples with m <= 12; zero failures allowed."""
    t0 = time.time()
    checked = 0
    for m in (3, 4, 5, 6):
        for sigma in itertools.permutations(range(m)):
            G = validate(m, sigma)
            for a, b in itertools.permutations(range(m), 2):
                assert check_redrawing(G, a, b).ok, (m, sigma, a, b)
                assert check_replace(G, a, b).ok, (m, sigma, a, b)
                checked += 1
    random_checked = 0
    for i in range(250):
        m = 5 + i % 8  # 5..12
        G = random_instance(m, seed=5000 + i)
        pairs = [(j % m, (j * 3 + 1) % m) for j in range(i, i + 4)]
        for a, b in pairs:
            if a == b:
                b = (b + 1) % m
            assert check_redrawing(G, a, b).ok, (m, G.sigma, a, b)
            assert check_replace(G, a, b).ok, (m, G.sigma, a, b)
            random_checked += 1
    assert random_checked == 1000
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 6: redrawing+replace hold on {checked} exhaustive and "
        f"{random_checked} random triples in {elapsed:.1f}s"
    )


def test_criterion_7_cyclic_connectivity():
    """PETERSEN is cyclically 5-edge-connected and every matching edge
    yields a witness; G_2 is not cyclically 5-edge-connected."""
    assert is_cyclically_5_edge_connected(PETERSEN) is True
    for e in range(5):
        X, _ = find_p10_through(PETERSEN, e)
        assert e in X and is_petersen(suppress_match(PETERSEN, X))
    assert is_cyclically_5_edge_connected(generate_gk(2).graph) is False
    print("\nPASS criterion 7: cyclic 5-edge-connectivity verdicts exact; all petersen edges witnessed")


def test_criterion_8_determinism_and_symmetry():
    """Two identical census runs give identical bytes; counts invariant
    under all four symmetry operations on 200 random instances."""
    t0 = time.time()
    _, gk_text = cli(["gk", "5"])
    _, first = cli(["census", "-", "--json"], stdin_text=gk_text)
    _, second = cli(["census", "-", "--json"], stdin_text=gk_text)
    assert first == second
    for i in range(200):
        m = 5 + i % 5
        G = random_instance(m, seed=9000 + i)
        c4 = len(enumerate_m_c4(G))
        p10 = len(enumerate_m_p10(G))
        for op in ("rotate_a", "rotate_a_prime", "reflect", "swap_sides"):
            H = apply_symmetry(G, op, k=(i % m))
            assert len(enumerate_m_c4(H)) == c4, (G.sigma, op)
            assert len(enumerate_m_p10(H)) == p10, (G.sigma, op)
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 8: repeated census byte-identical; counts invariant "
        f"under all 4 symmetries on 200 instances in {elapsed:.1f}s"
    )
