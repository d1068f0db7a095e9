"""Work counts on fixed inputs, against the committed BENCH_counts.json.

Each counter is a clock-free count of the steps one layer takes on one
input: the census walk's live pairs, those with at least two side
switches after x1, and its x2 visits (both read by a line tracer), its
blocks, witnesses and slice entries, the per-edge tally's bisects, the
crossing-graph rows the witness engine computes over every qualifying
edge, the peel's C4Reduce steps and the cut search's (l, r) steps.
Counts do not drift from run to run as times do, so a change that does
less work shows it exactly, in the diff of the file.

Any counter that moves, up or down, without the file changing fails the
test, which names it.  After a change that moves counts on purpose,
rewrite the file from the root of the checkout and commit it with the
change:

    PYTHONPATH=src python -m tests.test_work_counts
"""

from __future__ import annotations

import json
from bisect import bisect
from pathlib import Path
from unittest import mock

import pytest

from mpgraphs import crossing as crossing_module
from mpgraphs import witness as witness_module
from mpgraphs.census import _petersen_blocks, _qualifying_edges, _tally, random_instance
from mpgraphs.core import enumerate_m_c4, find_cyclic_cut, validate
from mpgraphs.family import generate_gk

from .conftest import line_counts, long_chain_instance

COUNTS_FILE = Path(__file__).resolve().parent.parent / "BENCH_counts.json"


def census_counts(G) -> dict[str, int]:
    blocks = []
    live_pairs, visits = line_counts(
        _petersen_blocks,
        ["ok = later & under[sw.bit_length() + 1]", "x2 = bit.bit_length() - 1"],
        lambda: blocks.extend(_petersen_blocks(G.sigma)),
    )
    x3_bisects, x4_bisects = line_counts(
        _tally,
        ["c = k - bisect(x4s, x3)", "counts[x4] += bisect_left(x3s, x4)"],
        lambda: _tally(G.m, blocks),
    )
    return {
        "census.live_pairs": live_pairs,
        "census.walk_visits": visits,
        "census.blocks": len(blocks),
        "census.witnesses": sum(len(x4s) - bisect(x4s, x3) for *_, x3s, x4s in blocks for x3 in x3s),
        "census.slice_entries": sum(len(x3s) + len(x4s) for *_, x3s, x4s in blocks),
        "census.tally_x3_bisects": x3_bisects,
        "census.tally_x4_bisects": x4_bisects,
    }


def engine_counts(G) -> dict[str, int]:
    """find_p10_through on every qualifying edge: the crossing graphs the
    engine makes, and the rows computed in them, whole graphs (below the
    on-demand crossover) counting every row."""
    graphs, rows = [], []
    real_graph = witness_module._engine_crossing_graph
    real_build = crossing_module.build_crossing_graph
    real_row = crossing_module._RowsOnDemand.__missing__

    def counting_graph(*args):
        graphs.append(args[1])
        return real_graph(*args)

    def counting_build(*args):
        H = real_build(*args)
        rows.extend(range(len(H.adj)))
        return H

    def counting_row(self, x):
        rows.append(x)
        return real_row(self, x)

    edges = _qualifying_edges(G, enumerate_m_c4(G))
    with (
        mock.patch.object(witness_module, "_engine_crossing_graph", counting_graph),
        mock.patch.object(crossing_module, "build_crossing_graph", counting_build),
        mock.patch.object(crossing_module._RowsOnDemand, "__missing__", counting_row),
    ):
        for e in edges:
            witness_module.find_p10_through(G, e)
    return {"engine.calls": len(edges), "engine.graphs": len(graphs), "engine.rows_computed": len(rows)}


def peel_counts(G) -> dict[str, int]:
    """find_p10_through at the edge a = m - 1 - m // 4 that
    long_chain_instance(m) chains from: its C4Reduce steps."""
    e = G.m - 1 - G.m // 4
    (steps,) = line_counts(
        witness_module.find_p10_through,
        ["steps.append(C4ReduceStep(z))"],
        lambda: witness_module.find_p10_through(G, e),
    )
    return {"engine.c4_reduce_steps": steps}


def cut_counts(G) -> dict[str, int]:
    """find_cyclic_cut's (l, r) steps: all of them when G has no cut."""
    (steps,) = line_counts(find_cyclic_cut, ["v = pi[r]"], lambda: find_cyclic_cut(G))
    return {"cyclic.lr_steps": steps}


def _gk(k: int):
    return lambda: generate_gk(k).graph


def _random(m: int):
    return lambda: random_instance(m, seed=1, require_c4_free=True)


# instance name (the mpg command that prints it, where there is one) ->
# the instance, then the counts read on it.  The c4-free instances take
# no C4Reduce step, and G_k and the random ones are cut early, so the
# peel and the cut search are counted where every step is taken: on a
# 100-step chain, and on sigma(i) = 2i mod 101, which has no cut.
INSTANCES = {
    "gk 4": (_gk(4), census_counts),
    "gk 12": (_gk(12), census_counts, engine_counts),
    "gk 30": (_gk(30), census_counts),
    "gk 100": (_gk(100), census_counts),
    "random 30 --seed 1 --c4-free": (_random(30), census_counts, engine_counts),
    "random 40 --seed 1 --c4-free": (_random(40), census_counts),
    "random 60 --seed 1 --c4-free": (_random(60), census_counts, engine_counts),
    "long_chain_instance(200)": (lambda: long_chain_instance(200), peel_counts),
    "sigma(i) = 2i mod 101": (lambda: validate(101, [2 * i % 101 for i in range(101)]), cut_counts),
}


def work_counts(name: str) -> dict[str, int]:
    build, *readers = INSTANCES[name]
    G = build()
    counts = {}
    for read in readers:
        counts |= read(G)
    return counts


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(COUNTS_FILE.read_text())["counts"]


def test_file_names_every_instance(recorded):
    assert sorted(recorded) == sorted(INSTANCES)


@pytest.mark.parametrize("name", INSTANCES)
def test_work_counts_match_the_file(name, recorded):
    counts, expected = work_counts(name), recorded.get(name, {})
    moved = [
        f"{counter}: {expected.get(counter)} in {COUNTS_FILE.name}, {counts.get(counter)} now"
        for counter in sorted(counts.keys() | expected.keys())
        if counts.get(counter) != expected.get(counter)
    ]
    assert not moved, f"{name}: " + "; ".join(moved)
    if "census.slice_entries" in counts:
        # the walk yields only live entries, and the tally bisects each once
        assert counts["census.slice_entries"] == counts["census.tally_x3_bisects"] + counts["census.tally_x4_bisects"]


if __name__ == "__main__":
    document = {
        "about": "work counts on fixed inputs, compared by tests/test_work_counts.py, which rewrites this file "
        "when run as: PYTHONPATH=src python -m tests.test_work_counts",
        "counts": {name: work_counts(name) for name in INSTANCES},
    }
    COUNTS_FILE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
