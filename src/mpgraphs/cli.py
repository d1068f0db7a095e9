"""Command-line surface.

Subcommands: validate, census, witness, gk, scan, random, draw, cyclic,
check.  ``-`` means stdin wherever a FILE is expected.  JSON output has
sorted keys and embeds the tool version, so byte-stable golden files are
possible.  Every document is ``json.dumps(obj, sort_keys=True, indent=2)``
plus a newline; the census witness list alone is written to stdout one
census block at a time, between the head and tail of its document.  Exit
codes: 0 ok / verdict holds, 1 verdict fails, 2 usage or input error, or
out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from bisect import bisect
from itertools import islice
from typing import IO, Iterator

from . import __version__
from .census import (
    MAX_ATTEMPTS,
    CensusReport,
    census_report,
    check_redrawing,
    check_replace,
    check_lower_bound,
    check_zhang,
    exhaustive_scan,
    random_instance,
)
from .core import (
    MAX_M,
    MarkedPermutationGraph,
    find_cyclic_cut,
    parse_instance,
)
from .errors import InvalidLemmaArgs, MpgError, PreconditionViolated

SCHEMA_VERSION = 1


def _emit_json(obj: dict, stdout: IO[str]) -> None:
    stdout.write(_dumps(obj) + "\n")


def _dumps(obj: dict) -> str:
    obj = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **obj}
    return json.dumps(obj, sort_keys=True, indent=2)


def _witness_rows(report: CensusReport) -> Iterator[str]:
    """``report``'s witness list as json.dumps writes it at a top-level key,
    one piece per block.  A row is ``,``, its x0..x3 cells and its x4 tail;
    cells and tails are formatted once per index, and the row head is the
    pair's, made once per (x0, x1), plus x2's cell.  ``ends`` is "" and the
    tails of the block's x4s, so the rows of an x3 with j x4s before it
    are ends[j:] joined by their head once ends[j] is blanked: one str.join
    per x3, and j never falls, so no later x3 reads the blanked tail.  Each
    x3 makes at least one row (see census._petersen_blocks), so the first
    row's ``,`` becomes the list's ``[``."""
    row, cell = "\n    ", "\n      "
    cells = [f"{cell}{i}," for i in range(report.m)]
    tails = [f"{cell}{i}{row}]" for i in range(report.m)]
    first, p0, p1 = "[", -1, -1
    for x0, x1, x2, x3s, x4s in report.blocks:
        if x1 != p1 or x0 != p0:
            p0, p1 = x0, x1
            pair_head = "," + row + "[" + cells[x0] + cells[x1]
        head = pair_head + cells[x2]
        ends = [""]
        ends += map(tails.__getitem__, x4s)
        groups = []
        for x3 in x3s:
            j = bisect(x4s, x3)
            ends[j] = ""
            groups.append((head + cells[x3]).join(ends[j:]))
        if first:
            groups[0] = first + groups[0][1:]
            first = ""
        yield "".join(groups)
    yield "[]" if first else "\n  ]"


def _load_instance(path: str, stdin: IO[str]) -> MarkedPermutationGraph:
    if path == "-":
        return parse_instance(stdin.read())
    # bytes that are not UTF-8 become lone surrogates, as they do on stdin,
    # so the parser reports them as an InstanceTextError
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_instance(fh.read())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The mpg parser, built on the first call and shared after that."""
    parser = argparse.ArgumentParser(
        prog="mpg",
        description="Marked permutation graphs: censuses, Petersen witnesses, drawings.",
    )
    parser.add_argument("--version", action="version", version=f"mpg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance and echo its canonical form")
    p.add_argument("file")

    p = sub.add_parser("census", help="enumerate all matched 4-cycles and Petersen witnesses")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("witness", help="certified Petersen subdivision through an edge")
    p.add_argument("file")
    p.add_argument("--edge", type=int, required=True)

    p = sub.add_parser("gk", help="emit the extremal family instance G_k")
    p.add_argument("k", type=int, help=f"at least 1, with m = 3k+7 at most {MAX_M}")

    p = sub.add_parser("scan", help="exhaustively verify all instances of a half-order")
    p.add_argument("m", type=int)
    p.add_argument("--out", help="write the per-instance CSV summary here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("random", help="seeded random instance")
    p.add_argument("m", type=int, help=f"half-order, at most {MAX_M}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--c4-free",
        action="store_true",
        help=f"redraw until no matched 4-cycle remains, at most {MAX_ATTEMPTS} draws",
    )

    p = sub.add_parser("draw", help="standard two-row drawing (svg or dot)")
    p.add_argument("file")
    p.add_argument("--anchor", type=int, default=0)
    p.add_argument("--format", default="svg", choices=["svg", "dot"])

    p = sub.add_parser(
        "cyclic",
        help="cyclic 5-edge-connectivity with certificate cut",
        description="Decided by a scan over the intervals of the anchored permutation, "
        "O(m^2) steps at most, that stops at the first cut: under 0.05 s at m = 1,001 "
        "with no cut.",
    )
    p.add_argument("file")

    p = sub.add_parser(
        "check",
        help="run one lemma checker",
        description="--lemma redrawing compares whole rows of the crossing graphs at its "
        "two anchors, O(m) big-int operations: about 0.25 s at m = 20,000. The other "
        "lemmas read the Petersen census.",
    )
    p.add_argument("file")
    p.add_argument(
        "--lemma", required=True, choices=["redrawing", "replace", "zhang", "lower"]
    )
    p.add_argument(
        "--args",
        type=int,
        nargs="*",
        default=[],
        help="edge/anchor indices: two for redrawing and replace, none for zhang and lower",
    )
    return parser


def run(
    argv: list[str],
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Run one mpg command and return its exit code.

    The parser is built on the first call in a process, not at import,
    and reused by every later call.  Sharing it is safe: parse_args reads
    the parser and writes only to the namespace it returns, and it looks up
    sys.stdout and sys.stderr for help and usage messages when it prints
    them, not when the parser is built.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage itself; normalize exit code
        return 0 if exc.code in (0, None) else 2

    try:
        return _dispatch(args, stdin, stdout)
    except PreconditionViolated as exc:
        _emit_json(exc.to_json_dict(), stdout)
        return 1
    except MpgError as exc:
        _emit_json(exc.to_json_dict(), stdout)
        return 2
    except (OSError, MemoryError) as exc:
        # a MemoryError usually carries no message; exit 1 would read as a refuted lemma
        stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2


def _dispatch(args: argparse.Namespace, stdin: IO[str], stdout: IO[str]) -> int:
    if args.command == "check":  # the arity is checked before the FILE is read
        takes_pair = args.lemma in ("redrawing", "replace")
        if len(args.args) != (2 if takes_pair else 0):
            raise InvalidLemmaArgs(
                f"--lemma {args.lemma} "
                + ("needs two indices via --args A B" if takes_pair else "takes no --args"),
                lemma=args.lemma,
                args=args.args,
            )
    if "file" in args:  # every subcommand with a FILE reads it here, once
        G = _load_instance(args.file, stdin)

    if args.command == "validate":
        stdout.write(G.to_text() + "\n")
        return 0

    if args.command == "census":
        if args.json:
            report = census_report(G)
            # the document with an empty list, which the rows replace
            head, tail = _dumps(report._replace(blocks=()).to_json_dict()).split('"p10_list": []')
            stdout.write(head + '"p10_list": ')
            stdout.writelines(_witness_rows(report))
            stdout.write(tail + "\n")
        else:
            # the four lines need counts only, so the census is not listed
            zh = check_zhang(G)
            stdout.write(
                f"instance: {G.to_text()}\n"
                f"c4_count: {zh.c4_count}\n"
                f"p10_count: {zh.p10_count}\n"
                f"zhang_ok: {zh.ok}\n"
            )
        return 0

    # draw, gk and witness import their modules here, so that no other
    # subcommand compiles or loads them
    if args.command == "witness":
        from .witness import find_p10_through, witness_report_dict

        X, trace = find_p10_through(G, args.edge)
        _emit_json(witness_report_dict(X, trace), stdout)
        return 0

    if args.command == "gk":
        from .family import _classification_line, generate_gk

        inst = generate_gk(args.k)
        stdout.write(inst.graph.to_text() + "\n")
        stdout.writelines(_classification_line(inst.k))
        return 0

    if args.command == "scan":
        report = exhaustive_scan(args.m)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_csv())
        if args.json:
            _emit_json(report.to_json_dict(), stdout)
        else:
            stdout.write(
                f"m: {report.m}\n"
                f"instances: {report.instance_count}\n"
                f"witness_runs: {report.witness_runs}\n"
                f"violations: {report.violation_count}\n"
            )
        return 0 if report.violation_count == 0 else 1

    if args.command == "random":
        G = random_instance(args.m, seed=args.seed, require_c4_free=args.c4_free)
        stdout.write(G.to_text() + "\n")
        stdout.write(f"# seed: {args.seed}\n")
        return 0

    if args.command == "draw":
        from .crossing import _drawing_lines

        lines = _drawing_lines(G, args.anchor, args.format)
        # one write per 4,096 lines: at m = 10^6 a write per line took 3 s more
        while chunk := "".join(islice(lines, 4096)):
            stdout.write(chunk)
        return 0

    if args.command == "cyclic":
        cut = find_cyclic_cut(G)
        _emit_json(
            {
                "cyclically_5_edge_connected": cut is None,
                "violating_cut": None if cut is None else [[kind, i] for kind, i in cut],
            },
            stdout,
        )
        return 0 if cut is None else 1

    if args.command == "check":
        # built per call from this module's globals, so a checker rebound here
        # after import, as benchmarks/tracing.py rebinds each to its wrapper,
        # is the one that runs; a dict built at import would keep the originals
        checker = {
            "redrawing": check_redrawing,
            "replace": check_replace,
            "zhang": check_zhang,
            "lower": check_lower_bound,
        }[args.lemma]
        verdict = checker(G, *args.args)
        _emit_json({"lemma": args.lemma, **verdict._asdict()}, stdout)
        return 0 if verdict.ok else 1

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    if sys.stdin is not None:
        # read stdin as _load_instance reads files, whatever the locale
        sys.stdin.reconfigure(errors="surrogateescape")
    sys.exit(run(sys.argv[1:]))
