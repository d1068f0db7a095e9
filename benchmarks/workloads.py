"""Workload definitions: inputs generated from a seed, and the operations
one pass of each workload performs.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``cli`` runs one subprocess at a
time.  The program only ever sees the generated instances, never the seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import oracle

BENCH_DIR = Path(__file__).resolve().parent

# Sizes of one pass.  census-dense puts two thirds of its calls on m = 30 and
# witness ~40 % on m = 60, so the median call sits inside one size group and
# the tail percentiles inside the largest, never on a boundary between them.
# A witness pass is about one run long: many distinct instances keep the
# latency percentiles from depending on a few instances of one seed.
DENSE_SIZES = (30, 30, 30, 30, 40, 40)
WITNESS_C4_FREE = {30: 55, 60: 35, 100: 15}
WITNESS_WITH_C4 = {30: 8, 60: 8, 100: 8}
SCAN_M = 7
GK_SPARSE = (4, 8, 12)
# cyclic is 3 of 19 invocations (16 %), so the p90 call lies inside the
# cyclic group and the median inside the start-up-bound group.
CLI_REPEATS = 2
CLI_CYCLIC_REPEATS = 3


@dataclass
class Op:
    """One operation.  ``key`` names its input for the output oracle,
    ``work`` is what it contributes to ``work_per_s``, ``run`` performs it
    (the timed part), ``render`` turns its result into the text the oracle
    digests and ``check`` verifies that text independently.  ``emits`` marks
    operations whose text is ``mpg`` stdout followed by ``exit=<code>``."""

    key: str
    work: int
    run: Callable[[object], object]
    render: Callable[[object], str] = str
    check: Callable[[str], str | None] = lambda text: None
    emits: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    child_rss_kb: list[int] = field(default_factory=list)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _c4_free_perm(m: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random permutation without matched 4-cycles."""
    while True:
        sigma = list(range(m))
        rng.shuffle(sigma)
        if not oracle.four_cycles(sigma):
            return tuple(sigma)


def _common_edges(c4s: list[tuple[int, int]], m: int) -> set[int]:
    edges = set(range(m))
    for c in c4s:
        edges &= set(c)
    return edges


def _with_c4s(m: int, rng: random.Random, run: int) -> tuple[int, ...]:
    """A permutation whose only matched 4-cycles are the ``run - 1`` that
    consecutive values at positions 0..run-1 make: one 4-cycle for run 2,
    two sharing edge 1 for run 3."""
    while True:
        start, step = rng.randrange(m), rng.choice((1, -1))
        head = [(start + step * k) % m for k in range(run)]
        rest = [v for v in range(m) if v not in head]
        rng.shuffle(rest)
        sigma = tuple(head + rest)
        if oracle.four_cycles(sigma) == [(k, k + 1) for k in range(run - 1)]:
            return sigma


def _text(sigma: tuple[int, ...]) -> str:
    return f"{len(sigma)} " + " ".join(map(str, sigma)) + "\n"


def _inputs(root: Path, name: str) -> Path:
    return root / ".bench_out" / "inputs" / name


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# census-sparse and census-dense: in-process ``cli.run(["census", f, "--json"])``
# ---------------------------------------------------------------------------

def _census_op(path: str, sigma: tuple[int, ...], check_gk: int | None) -> Op:
    import mpgraphs.cli as cli

    def run(_tracer) -> str:
        buf = io.StringIO()
        rc = cli.run(["census", path, "--json"], stdout=buf)
        return f"{buf.getvalue()}exit={rc}\n"

    def check(text: str) -> str | None:
        body, _, code = text.rpartition("exit=")
        if code != "0\n":
            return f"census exited {code.strip()}"
        report = json.loads(body)
        if check_gk is not None and (report["p10_count"], report["c4_count"]) != (6 * check_gk + 6, 0):
            return f"G_{check_gk} census is {report['p10_count']}, not {6 * check_gk + 6}"
        if check_gk is None and not (report["lower_bound_applicable"] and report["lower_bound_ok"]):
            return "lower bound m - 4 not met on a 4-cycle-free instance"
        return oracle.check_census_json(sigma, body)

    return Op(f"census|{oracle.digest(_text(sigma))}", comb(len(sigma), 5), run, check=check, emits=True)


def _census_sparse(seed: int, root: Path) -> Workload:
    from mpgraphs.family import generate_gk

    out = _inputs(root, "census-sparse")
    ops = []
    for k in GK_SPARSE:
        sigma = generate_gk(k).graph.sigma
        ops.append(_census_op(_write(out / f"g{k}.txt", _text(sigma)), sigma, k))
    return Workload("census-sparse", ops)


def _census_dense(seed: int, root: Path) -> Workload:
    out = _inputs(root, "census-dense")
    rng = _rng("census-dense", seed)
    ops = []
    for n, m in enumerate(DENSE_SIZES):
        sigma = _c4_free_perm(m, rng)
        ops.append(_census_op(_write(out / f"dense{n}.txt", _text(sigma)), sigma, None))
    return Workload("census-dense", ops)


# ---------------------------------------------------------------------------
# witness: find_p10_through then replay_trace, for every qualifying edge
# ---------------------------------------------------------------------------

def _witness_op(G, e: int) -> Op:
    import mpgraphs.core as core
    import mpgraphs.witness as witness

    def run(_tracer) -> dict:
        X, trace = witness.find_p10_through(G, e)
        if witness.replay_trace(G, e, trace) != X:
            raise AssertionError(f"trace for edge {e} does not replay to {X}")
        return witness.witness_report_dict(X, trace)

    def render(report: dict) -> str:
        return json.dumps(report, sort_keys=True)

    def check(text: str) -> str | None:
        problem = oracle.check_witness_json(G.sigma, e, text)
        if problem is None and not core.is_petersen(core.suppress_match(G, json.loads(text)["edges"])):
            problem = "is_petersen(suppress_match(...)) rejects the witness"
        return problem

    return Op(f"witness|{oracle.digest(_text(G.sigma))}|{e}", 1, run, render, check)


def _witness(seed: int, root: Path) -> Workload:
    from mpgraphs.core import validate

    rng = _rng("witness", seed)
    sigmas = []
    for m, count in WITNESS_C4_FREE.items():
        sigmas += [_c4_free_perm(m, rng) for _ in range(count)]
    for m, count in WITNESS_WITH_C4.items():
        sigmas += [_with_c4s(m, rng, 2 + n % 2) for n in range(count)]
    ops = []
    for sigma in sigmas:
        G = validate(len(sigma), sigma)
        for e in sorted(_common_edges(oracle.four_cycles(sigma), len(sigma))):
            ops.append(_witness_op(G, e))
    return Workload("witness", ops)


# ---------------------------------------------------------------------------
# scan: exhaustive_scan(7)
# ---------------------------------------------------------------------------

def _scan(seed: int, root: Path) -> Workload:
    import math

    census = sys.modules["mpgraphs.census"]  # the package attribute is the census() function

    def run(_tracer):
        return census.exhaustive_scan(SCAN_M)

    def render(report) -> str:
        return json.dumps(report.to_json_dict(), sort_keys=True) + "\n" + report.to_csv()

    def check(text: str) -> str | None:
        report = json.loads(text.partition("\n")[0])
        if report["instance_count"] != math.factorial(SCAN_M) or report["violation_count"]:
            return f"scan {SCAN_M} reported {report['violation_count']} violations"
        return None

    return Workload("scan", [Op(f"scan|{SCAN_M}", math.factorial(SCAN_M), run, render, check)])


# ---------------------------------------------------------------------------
# cli: real ``python -m mpgraphs`` subprocesses, one at a time
# ---------------------------------------------------------------------------

def _cli(seed: int, root: Path) -> Workload:
    from mpgraphs.family import generate_gk

    out = _inputs(root, "cli")
    petersen = _write(out / "petersen.txt", "5\n0 2 4 1 3\n")
    g4_sigma = generate_gk(4).graph.sigma
    g4 = _write(out / "g4.txt", _text(g4_sigma))
    g1 = _write(out / "g1.txt", _text(generate_gk(1).graph.sigma))
    wl = Workload("cli", [])
    petersen_sigma = (0, 2, 4, 1, 3)

    def census_of(sigma):
        return lambda body: oracle.check_census_json(sigma, body)

    commands = [
        (["validate", petersen], None, 0, lambda body: None if body == "5 0 2 4 1 3\n" else "wrong canonical form"),
        (["census", petersen, "--json"], None, 0, census_of(petersen_sigma)),
        (["witness", petersen, "--edge", "0"], None, 0, lambda body: oracle.check_witness_json(petersen_sigma, 0, body)),
        (["draw", petersen], None, 0, None),
        (["gk", "4"], None, 0, None),
        (["census", "-", "--json"], g4, 0, census_of(g4_sigma)),
        (["check", g4, "--lemma", "replace", "--args", "0", "1"], None, 0, None),
        (["check", g4, "--lemma", "redrawing", "--args", "0", "1"], None, 0, None),
    ]
    ops = [_cli_op(wl, root, *c) for c in commands] * CLI_REPEATS
    ops += [_cli_op(wl, root, ["cyclic", g1], None, 1, None)] * CLI_CYCLIC_REPEATS
    wl.ops = ops
    return wl


def child_env(root: Path) -> dict[str, str]:
    """The environment of a child process that imports mpgraphs from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], root: Path, stdin_path: str | None) -> tuple[str, int, int]:
    """Run one subprocess to completion; return (stdout and stderr, exit
    code, peak RSS in KiB of that process alone)."""
    with open(stdin_path or os.devnull, "rb") as fin:
        proc = subprocess.Popen(
            argv,
            stdin=fin,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=root,
            env=child_env(root),
        )
        try:
            output = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return output.decode("utf-8"), proc.returncode, usage.ru_maxrss


def _cli_op(
    wl: Workload,
    root: Path,
    args: list[str],
    stdin_path: str | None,
    want_rc: int,
    check_body: Callable[[str], str | None] | None,
) -> Op:
    rel = [os.path.relpath(a, root) if os.path.isabs(a) else a for a in args]
    stdin_rel = os.path.relpath(stdin_path, root) if stdin_path else None

    def run(tracer) -> str:
        if tracer is None:
            argv = [sys.executable, "-m", "mpgraphs", *rel]
            output, rc, rss = run_child(argv, root, stdin_path)
        else:
            spans = root / ".bench_out" / "child-spans.json"
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), *rel]
            spawned = time.perf_counter_ns()
            output, rc, rss = run_child(argv, root, stdin_path)
            with open(spans, encoding="utf-8") as fh:
                tracer.merge_child(json.load(fh), spawned)
        wl.child_rss_kb.append(rss)
        return f"{output}exit={rc}\n"

    def check(text: str) -> str | None:
        body, _, code = text.rpartition("exit=")
        if code != f"{want_rc}\n":
            return f"mpg {' '.join(rel)} exited {code.strip()}, expected {want_rc}"
        return check_body(body) if check_body else None

    key = "cli|" + " ".join(rel) + (f" < {stdin_rel}" if stdin_rel else "")
    return Op(key, 1, run, check=check, emits=True)


BUILDERS = {
    "census-sparse": _census_sparse,
    "census-dense": _census_dense,
    "witness": _witness,
    "scan": _scan,
    "cli": _cli,
}


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate the workload's inputs (writing instance files under
    ``.bench_out/inputs`` of the checkout) and its operations."""
    return BUILDERS[name](seed, root)
