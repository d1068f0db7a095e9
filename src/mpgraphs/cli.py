"""Command-line surface.

Subcommands: validate, census, witness, gk, scan, random, draw, cyclic,
check.  ``-`` means stdin wherever a FILE is expected.  JSON output has
sorted keys and embeds the tool version, so byte-stable golden files are
possible.  It is streamed to stdout in pieces, never built as one string,
and its bytes equal ``json.dumps(obj, sort_keys=True, indent=2)`` plus a
newline; lists of int rows, such as the census witness list, are formatted
a block of rows at a time.  Exit codes: 0 ok / verdict holds, 1 verdict
fails, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import IO, Any, Iterator

from . import __version__
from .census import (
    MAX_ATTEMPTS,
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
from .crossing import standard_drawing
from .errors import InvalidLemmaArgs, MpgError, PreconditionViolated
from .family import generate_gk
from .witness import find_p10_through, witness_report_dict

SCHEMA_VERSION = 1
ROW_BLOCK = 4096  # rows of ints formatted per piece of streamed JSON


def _emit_json(obj: dict, stdout: IO[str]) -> None:
    obj = dict(obj)
    obj.setdefault("schema_version", SCHEMA_VERSION)
    obj.setdefault("tool_version", __version__)
    stdout.writelines(_json_pieces(obj, "\n"))
    stdout.write("\n")


def _json_pieces(obj: Any, nl: str) -> Iterator[str]:
    """Yield ``json.dumps(obj, sort_keys=True, indent=2)`` in pieces; ``nl``
    is a newline followed by the indent of ``obj``'s own line."""
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            # json writes a non-string key as the string of its JSON form
            yield sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
            yield from _json_pieces(value, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = nl + "  "
        yield "["
        if _is_int_rows(obj):
            # one %d template per block of rows instead of one piece per int
            row = inner + "[" + ",".join([inner + "  %d"] * len(obj[0])) + inner + "]"
            for start in range(0, len(obj), ROW_BLOCK):
                block = obj[start : start + ROW_BLOCK]
                text = ",".join([row] * len(block)) % tuple(chain.from_iterable(block))
                yield "," + text if start else text
        else:
            sep = inner
            for item in obj:
                yield sep
                yield from _json_pieces(item, inner)
                sep = "," + inner
        yield nl + "]"
    else:
        yield json.dumps(obj)


def _is_int_rows(items: list | tuple) -> bool:
    """Whether ``items`` are lists or tuples of one nonzero length holding
    only plain ints (bools and int subclasses excluded)."""
    return (
        set(map(type, items)) <= {list, tuple}
        and len(items[0]) > 0
        and set(map(len, items)) == {len(items[0])}
        and set(map(type, chain.from_iterable(items))) == {int}
    )


def _load_instance(path: str, stdin: IO[str]) -> MarkedPermutationGraph:
    if path == "-":
        return parse_instance(stdin.read())
    # bytes that are not UTF-8 become lone surrogates, as they do on stdin,
    # so the parser reports them as an InstanceTextError
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_instance(fh.read())


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--c4-free", action="store_true")
    p.add_argument(
        "--max-attempts",
        type=int,
        default=MAX_ATTEMPTS,
        help=f"draws tried for --c4-free before giving up: at least 1 (default {MAX_ATTEMPTS})",
    )

    p = sub.add_parser("draw", help="standard two-row drawing (svg or dot)")
    p.add_argument("file")
    p.add_argument("--anchor", type=int, default=0)
    p.add_argument("--format", default="svg", choices=["svg", "dot"])

    p = sub.add_parser("cyclic", help="cyclic 5-edge-connectivity with certificate cut")
    p.add_argument("file")

    p = sub.add_parser("check", help="run one lemma checker")
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
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args: argparse.Namespace, stdin: IO[str], stdout: IO[str]) -> int:
    if args.command == "validate":
        G = _load_instance(args.file, stdin)
        stdout.write(G.to_text() + "\n")
        return 0

    if args.command == "census":
        G = _load_instance(args.file, stdin)
        report = census_report(G)
        if args.json:
            _emit_json(report.to_json_dict(), stdout)
        else:
            stdout.write(
                f"instance: {report.instance_id}\n"
                f"c4_count: {report.c4_count}\n"
                f"p10_count: {report.p10_count}\n"
                f"zhang_ok: {report.zhang_ok}\n"
            )
        return 0

    if args.command == "witness":
        G = _load_instance(args.file, stdin)
        X, trace = find_p10_through(G, args.edge)
        _emit_json(witness_report_dict(X, trace), stdout)
        return 0

    if args.command == "gk":
        inst = generate_gk(args.k)
        stdout.write(inst.graph.to_text() + "\n")
        stdout.write(
            "# classification: "
            + json.dumps(inst.classification_json(), sort_keys=True)
            + "\n"
        )
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
        G = random_instance(
            args.m,
            seed=args.seed,
            require_c4_free=args.c4_free,
            max_attempts=args.max_attempts,
        )
        stdout.write(G.to_text() + "\n")
        stdout.write(f"# seed: {args.seed}\n")
        return 0

    if args.command == "draw":
        G = _load_instance(args.file, stdin)
        stdout.write(standard_drawing(G, args.anchor, format=args.format))
        return 0

    if args.command == "cyclic":
        G = _load_instance(args.file, stdin)
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
        takes_pair = args.lemma in ("redrawing", "replace")
        if len(args.args) != (2 if takes_pair else 0):
            raise InvalidLemmaArgs(
                f"--lemma {args.lemma} "
                + ("needs two indices via --args A B" if takes_pair else "takes no --args"),
                lemma=args.lemma,
                args=args.args,
            )
        G = _load_instance(args.file, stdin)
        if takes_pair:
            a, b = args.args
            verdict = (
                check_redrawing(G, a, b)
                if args.lemma == "redrawing"
                else check_replace(G, a, b)
            )
        elif args.lemma == "zhang":
            verdict = check_zhang(G)
        else:
            verdict = check_lower_bound(G)
        _emit_json(verdict.to_json_dict(), stdout)
        return 0 if verdict.ok else 1

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    if sys.stdin is not None:
        # read stdin as _load_instance reads files, whatever the locale
        sys.stdin.reconfigure(errors="surrogateescape")
    sys.exit(run(sys.argv[1:]))
