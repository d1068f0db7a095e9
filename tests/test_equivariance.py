"""The four symmetry ops as an oracle above the exhaustive range.

Each op of apply_symmetry maps G onto an image H and G's A-indices onto
H's by one index map, the one relabel_witness applies.  So three
relations hold at every m with no brute force, where the other tests
check equivariance only for m <= 8: count_per_edge permutes by the index
map, the engine's witness through e maps to a witness of H through e's
image, and find_cyclic_cut finds a cut on H exactly when it finds one on
G.  Each input is one seeded instance per size.
"""

import pytest

from mpgraphs import (
    apply_symmetry,
    count_per_edge,
    find_cyclic_cut,
    find_p10_through,
    random_instance,
    relabel_witness,
    validate,
)
from mpgraphs.core import _subset_is_petersen

OPS = ("rotate_a", "rotate_a_prime", "reflect", "swap_sides")


def index_map(G, op, k):
    """Where op sends each A-index of G, as a list."""
    return [relabel_witness(G, [x], op, k)[0] for x in range(G.m)]


@pytest.fixture(scope="module")
def g100k():
    # ~0.7 s to draw; every matched 4-cycle is rejected, so every edge qualifies
    return random_instance(100_000, seed=1, require_c4_free=True)


@pytest.mark.parametrize("op", OPS)
def test_count_per_edge_permutes_by_the_index_map(op):
    G, k = random_instance(60, seed=1, require_c4_free=True), 17
    counts = count_per_edge(G)
    assert len(set(counts)) > 1  # so a wrong permutation shows
    image = count_per_edge(apply_symmetry(G, op, k))
    f = index_map(G, op, k)
    assert [image[f[x]] for x in range(G.m)] == counts


@pytest.mark.parametrize("op", OPS)
def test_engine_witness_maps_to_a_witness_of_the_image(g100k, op):
    G, k = g100k, 31_415
    H = apply_symmetry(G, op, k)
    for e in (0, 50_000, 99_999):
        X, _steps = find_p10_through(G, e)
        Y = relabel_witness(G, X, op, k)
        assert relabel_witness(G, [e], op, k)[0] in Y, (op, e, X, Y)
        assert _subset_is_petersen(H, Y), (op, e, X, Y)


@pytest.mark.parametrize(
    "G, has_cut",
    [
        (validate(1001, [2 * i % 1001 for i in range(1001)]), False),  # GP(1001, 2): no cut
        (random_instance(1000, seed=1), True),
    ],
    ids=["2i mod 1001", "random 1000 --seed 1"],
)
@pytest.mark.parametrize("op", OPS)
def test_cyclic_cut_on_the_image_iff_on_the_instance(G, has_cut, op):
    assert (find_cyclic_cut(G) is not None) == has_cut
    assert (find_cyclic_cut(apply_symmetry(G, op, 333)) is not None) == has_cut
