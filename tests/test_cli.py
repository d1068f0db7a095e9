import argparse
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

import mpgraphs
import mpgraphs.census as census_module
import mpgraphs.cli as cli_module
import mpgraphs.crossing as crossing_module
from mpgraphs import __version__
from mpgraphs.census import MAX_ATTEMPTS, census_report, random_instance
from mpgraphs.core import MAX_M, MarkedPermutationGraph
from mpgraphs.cli import SCHEMA_VERSION, _build_parser, _emit_json, run
from mpgraphs.family import generate_gk

from .conftest import FIXTURE_DIR, GOLDEN_DIR, REPO_ROOT, inject_scan_faults

PRISM_TXT = str(FIXTURE_DIR / "prism.txt")
PETERSEN_TXT = str(FIXTURE_DIR / "petersen.txt")


def capture(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def load_schema():
    with open(REPO_ROOT / "schemas" / "mpg-output.schema.json") as fh:
        return json.load(fh)


SCHEMA = load_schema()


def assert_valid_json(text: str) -> dict:
    obj = json.loads(text)
    jsonschema.validate(obj, SCHEMA)
    return obj


class TestValidate:
    def test_round_trip(self):
        code, out, _ = capture(["validate", PETERSEN_TXT])
        assert code == 0
        assert out == "5 0 2 4 1 3\n"
        code2, out2, _ = capture(["validate", "-"], stdin_text=out)
        assert code2 == 0 and out2 == out

    def test_invalid_instance_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4\n0 1 0 2\n")
        code, out, _ = capture(["validate", str(bad)])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "NotAPermutation"

    @pytest.mark.parametrize("text", ["", "\n", "# a comment\n\n# another\n"], ids=["empty", "blank", "comments"])
    def test_no_instance_exit_2(self, text):
        code, out, _ = capture(["validate", "-"], stdin_text=text)
        assert code == 2
        assert out == (GOLDEN_DIR / "error_no_instance.json").read_text()
        assert_valid_json(out)

    def test_missing_file_exit_2(self):
        code, _, err = capture(["validate", "no-such-file.txt"])
        assert code == 2
        assert "error" in err

    def test_usage_error_exit_2(self):
        code, _, _ = capture(["no-such-command"])
        assert code == 2


class TestDeclaredSizeLimit:
    # the declared m is refused before any entry is read, so a lone
    # header line is enough
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "-"],
            ["census", "-", "--json"],
            ["witness", "-", "--edge", "0"],
            ["draw", "-"],
            ["cyclic", "-"],
            ["check", "-", "--lemma", "zhang"],
        ],
    )
    def test_m_above_limit_exit_2(self, argv):
        code, out, _ = capture(argv, stdin_text=f"{MAX_M + 1}\n")
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "TooLarge"
        assert obj["certificate"] == {"m": MAX_M + 1, "limit": MAX_M}


class TestCensus:
    @pytest.mark.parametrize(
        "fixture,golden",
        [
            (PRISM_TXT, "census_prism.json"),
            (PETERSEN_TXT, "census_petersen.json"),
        ],
    )
    def test_golden(self, fixture, golden):
        code, out, _ = capture(["census", fixture, "--json"])
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()
        assert_valid_json(out)

    @pytest.mark.parametrize("k,golden", [(1, "census_g1.json"), (4, "census_g4.json")])
    def test_gk_pipeline_golden(self, k, golden):
        code, gk_out, _ = capture(["gk", str(k)])
        assert code == 0
        code, out, _ = capture(["census", "-", "--json"], stdin_text=gk_out)
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()

    def test_gk4_census_counts(self):
        _, gk_out, _ = capture(["gk", "4"])
        _, out, _ = capture(["census", "-", "--json"], stdin_text=gk_out)
        obj = assert_valid_json(out)
        assert obj["p10_count"] == 30 and obj["c4_count"] == 0

    def test_jobs_option_removed(self, capsys):
        # the census runs in one process and takes no --jobs
        code, out, _ = capture(["census", PETERSEN_TXT, "--jobs", "2"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_plain_output(self):
        code, out, _ = capture(["census", PRISM_TXT])
        assert code == 0
        assert "c4_count: 3" in out and "p10_count: 0" in out

    def test_plain_output_matches_json(self):
        texts = [
            f"{m} " + " ".join(map(str, sigma)) + "\n"
            for m in range(3, 8)
            for sigma in itertools.permutations(range(m))
        ]
        texts += [capture(["gk", str(k)])[1] for k in range(1, 13)]
        for text in texts:
            code, out, _ = capture(["census", "-"], stdin_text=text)
            assert code == 0, text
            code, body, _ = capture(["census", "-", "--json"], stdin_text=text)
            assert code == 0, text
            obj = json.loads(body)
            assert out == (
                f"instance: {obj['instance']}\n"
                f"c4_count: {obj['c4_count']}\n"
                f"p10_count: {obj['p10_count']}\n"
                f"zhang_ok: {obj['zhang_ok']}\n"
            ), text

    def test_plain_output_counts_without_listing(self):
        _, instance, _ = capture(["random", "60", "--seed", "1", "--c4-free"])
        tracemalloc.start()
        try:
            code, out, _ = capture(["census", "-"], stdin_text=instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and "p10_count: 497028\n" in out
        # the list of 497,028 witnesses alone takes ~44 MB here
        assert peak < 5_000_000

    def test_out_of_memory_exit_2(self, monkeypatch):
        # exit 1 means a verdict fails, so a census too large to hold must
        # not end with it
        def exhausted(G):
            raise MemoryError

        monkeypatch.setattr("mpgraphs.cli.census_report", exhausted)
        code, out, err = capture(["census", PETERSEN_TXT, "--json"])
        assert code == 2 and out == ""
        assert err == "error: out of memory\n"

    def test_large_census_pinned(self):
        # 497,028 witnesses, ~30 MB of JSON; the digest was recorded from
        # the json.dumps(sort_keys=True, indent=2) writer
        _, instance, _ = capture(["random", "60", "--seed", "1", "--c4-free"])
        code, out, _ = capture(["census", "-", "--json"], stdin_text=instance)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "d6aa595aa8a0a90f045e34bf62e6ab506e964dff9f44fb23242e49a60556f371"
        )

    def test_large_census_json_in_bounded_memory(self):
        # the document is written from the census blocks as it is
        # formatted; a list of the 497,028 witnesses alone takes ~44 MB
        _, instance, _ = capture(["random", "60", "--seed", "1", "--c4-free"])
        sink = HashingSink()
        tracemalloc.start()
        try:
            code = run(["census", "-", "--json"], stdin=io.StringIO(instance), stdout=sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.digest.hexdigest() == (
            "d6aa595aa8a0a90f045e34bf62e6ab506e964dff9f44fb23242e49a60556f371"
        )
        assert peak < 15_000_000


class HashingSink(io.TextIOBase):
    """A stdout that hashes what it is given and keeps none of it."""

    def __init__(self):
        super().__init__()
        self.digest = hashlib.sha256()

    def write(self, s: str) -> int:
        self.digest.update(s.encode("utf-8"))
        return len(s)


NON_UTF8_INSTANCE = b"\xff3 0 1 2\n"


TWO_INSTANCES = "3 0 1 2\n5 0 2 4 1 3\n"


class TestOneInstancePerInput:
    @pytest.mark.parametrize("route", ["file", "stdin"])
    def test_two_instances_exit_2(self, tmp_path, route):
        path = tmp_path / "two.txt"
        path.write_text(TWO_INSTANCES)
        source = str(path) if route == "file" else "-"
        code, out, _ = capture(["census", source], stdin_text=TWO_INSTANCES)
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "InstanceTextError"
        assert obj["certificate"] == {"instances": 2}

    @pytest.mark.parametrize("argv", [["gk", "4"], ["random", "12", "--seed", "7"]])
    def test_generated_instance_pipes_into_census(self, argv):
        # the generators' extra lines are # comments, not instances
        code, text, _ = capture(argv)
        assert code == 0 and text.count("\n") == 2
        code, out, _ = capture(["census", "-"], stdin_text=text)
        assert code == 0
        assert out.startswith(f"instance: {text.splitlines()[0]}\n")


class TestNonUtf8Input:
    def test_file_gives_instance_text_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NON_UTF8_INSTANCE)
        code, out, _ = capture(["census", str(bad), "--json"])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "InstanceTextError"
        assert obj["certificate"] == {"token": "\udcff3"}

    def test_file_and_stdin_agree(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NON_UTF8_INSTANCE)
        # a strict stdin decoder, as under most UTF-8 locales
        env = dict(src_env(), PYTHONIOENCODING="utf-8:strict")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "mpgraphs", "census", path, "--json"],
                input=NON_UTF8_INSTANCE,
                capture_output=True,
                env=env,
                timeout=120,
            )
            for path in (str(bad), "-")
        ]
        for proc in runs:
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == b""
            assert json.loads(proc.stdout)["error"] == "InstanceTextError"
        assert runs[0].stdout == runs[1].stdout


class TestJsonGoldens:
    """The JSON documents of scan, cyclic, check and the errors, byte for
    byte, with their exit codes; census and witness have their own."""

    @pytest.mark.parametrize(
        "argv,producer,golden,exit_code",
        [
            (["scan", "4", "--json"], None, "scan_m4.json", 0),
            (["cyclic", PRISM_TXT], None, "cyclic_prism.json", 1),
            (["cyclic", PETERSEN_TXT], None, "cyclic_petersen.json", 0),
            (["check", PRISM_TXT, "--lemma", "zhang"], None, "check_zhang_prism.json", 0),
            (["check", PETERSEN_TXT, "--lemma", "lower"], None, "check_lower_petersen.json", 0),
            (
                ["check", PETERSEN_TXT, "--lemma", "redrawing", "--args", "0", "1"],
                None,
                "check_redrawing_petersen_0_1.json",
                0,
            ),
            # the swap branch: no witness of G_1 holds both verticals
            (
                ["check", "-", "--lemma", "replace", "--args", "0", "5"],
                ["gk", "1"],
                "check_replace_g1_0_5.json",
                0,
            ),
            (["witness", PETERSEN_TXT, "--edge", "5"], None, "error_index_out_of_range.json", 2),
        ],
    )
    def test_golden(self, argv, producer, golden, exit_code):
        stdin_text = capture(producer)[1] if producer else ""
        code, out, _ = capture(argv, stdin_text=stdin_text)
        assert code == exit_code
        assert out == (GOLDEN_DIR / golden).read_text()
        assert_valid_json(out)

    def test_non_utf8_error_golden(self, tmp_path):
        # the certificate holds a lone surrogate, written as its \u escape
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NON_UTF8_INSTANCE)
        code, out, _ = capture(["census", str(bad), "--json"])
        assert code == 2
        assert out == (GOLDEN_DIR / "error_non_utf8.json").read_text()


class TestWitness:
    def test_petersen_golden(self):
        code, out, _ = capture(["witness", PETERSEN_TXT, "--edge", "0"])
        assert code == 0
        assert out == (GOLDEN_DIR / "witness_petersen.json").read_text()
        obj = assert_valid_json(out)
        assert obj["edges"] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "random_args,edge,golden",
        [
            (["60", "--seed", "1", "--c4-free"], 0, "witness_random60_c4free_seed1_e0.json"),
            (["60", "--seed", "1", "--c4-free"], 58, "witness_random60_c4free_seed1_e58.json"),
            (["100", "--seed", "1"], 0, "witness_random100_seed1_e0.json"),
            # two matched 4-cycles through edge 21: three C4Reduce steps
            (["30", "--seed", "1"], 21, "witness_random30_seed1_e21.json"),
        ],
    )
    def test_random_golden(self, random_args, edge, golden):
        code, instance, _ = capture(["random"] + random_args)
        assert code == 0
        code, out, _ = capture(["witness", "-", "--edge", str(edge)], stdin_text=instance)
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()
        assert_valid_json(out)

    def test_trace_steps_are_c4_reduce_or_p4_found(self):
        # the engine has no third move, and the schema admits none
        obj = json.loads((GOLDEN_DIR / "witness_random30_seed1_e21.json").read_text())
        jsonschema.validate(obj, SCHEMA)
        twin = {"step": "TwinContract", "a": 0, "x": 1, "y": 2, "q_prime": {"side": "A'", "start": 1, "end": 2}}
        obj["trace"].insert(0, twin)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, SCHEMA)

    def test_prism_precondition_exit_1(self):
        code, out, _ = capture(["witness", PRISM_TXT, "--edge", "0"])
        assert code == 1
        obj = assert_valid_json(out)
        assert obj["error"] == "PreconditionViolated"
        assert obj["certificate"]["c4"] == [1, 2]


class TestGk:
    def test_golden(self):
        code, out, _ = capture(["gk", "4"])
        assert code == 0
        assert out == (GOLDEN_DIR / "gk4.txt").read_text()

    def test_instance_line_and_classification(self):
        _, out, _ = capture(["gk", "1"])
        lines = out.splitlines()
        assert lines[0] == "10 0 2 4 1 3 5 7 9 6 8"
        assert lines[1].startswith("# classification: ")
        cls = json.loads(lines[1].split(": ", 1)[1])
        assert cls["special_group_1"] == [1, 2, 3, 4]
        assert cls["special_group_2"] == [6, 7, 8, 9]

    def test_classification_line_is_json_dumps_of_the_lists(self):
        # written from the five runs' index ranges, 4,096 indices a piece;
        # k = 5000 puts more than one piece in a run
        for k in [*range(1, 61), 5000]:
            inst = generate_gk(k)
            _, out, _ = capture(["gk", str(k)])
            assert out == (
                inst.graph.to_text()
                + "\n# classification: "
                + json.dumps(inst.classification_json(), sort_keys=True)
                + "\n"
            ), k

    def test_invalid_k_exit_2(self):
        code, out, _ = capture(["gk", "0"])
        assert code == 2
        assert assert_valid_json(out)["error"] == "InvalidK"

    # the smallest k whose m = 3k+7 is above the limit, and one that would
    # build a 3*10**8-edge instance; both are refused before any is built
    @pytest.mark.parametrize("k", [(MAX_M - 7) // 3 + 1, 10**8])
    def test_k_above_limit_exit_2(self, k):
        code, out, _ = capture(["gk", str(k)])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "InvalidK"
        assert obj["certificate"] == {"k": k, "m": 3 * k + 7, "limit": MAX_M}


class TestScan:
    def test_m3_summary_and_csv(self, tmp_path):
        csv_path = tmp_path / "scan3.csv"
        code, out, _ = capture(["scan", "3", "--out", str(csv_path)])
        assert code == 0
        assert "violations: 0" in out
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "m,instance_index,c4_count,p10_count,violations"
        assert len(lines) == 7

    def test_json_output(self):
        code, out, _ = capture(["scan", "4", "--json"])
        assert code == 0
        obj = assert_valid_json(out)
        assert obj["instance_count"] == 24 and obj["violation_count"] == 0

    def test_violations_json_and_exit_1(self, monkeypatch):
        # all three records, made on PETERSEN by faults injected into the
        # names the scan reads; the engine still ran once per qualifying edge
        inject_scan_faults(monkeypatch, "zhang_fail", "witness_error", "witness_unsound")
        code, out, _ = capture(["scan", "5", "--json"])
        assert code == 1
        assert out == (GOLDEN_DIR / "scan_m5_violations.json").read_text()
        assert_valid_json(out)

    def test_out_of_range_exit_2(self):
        code, out, _ = capture(["scan", "9"])
        assert code == 2
        assert assert_valid_json(out)["error"] == "OutOfScanRange"

    def test_jobs_option_removed(self, capsys):
        # the scan runs in one process and takes no --jobs
        code, out, _ = capture(["scan", "4", "--jobs", "2"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestRandom:
    def test_reproducible(self):
        a = capture(["random", "8", "--seed", "42"])
        b = capture(["random", "8", "--seed", "42"])
        assert a == b
        assert a[0] == 0
        assert "# seed: 42" in a[1]

    def test_c4_free(self):
        code, out, _ = capture(["random", "12", "--seed", "3", "--c4-free"])
        assert code == 0
        code2, out2, _ = capture(["census", "-", "--json"], stdin_text=out)
        assert json.loads(out2)["c4_count"] == 0

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["random", "12", "--seed", "7"], "12 0 1 9 3 11 5 2 6 10 7 8 4"),
            (["random", "12", "--seed", "3", "--c4-free"], "12 9 6 2 7 1 3 8 0 5 10 4 11"),
        ],
        ids=["seed7", "seed3-c4-free"],
    )
    def test_philox_stream_pinned(self, argv, line):
        assert capture(argv) == (0, f"{line}\n# seed: {argv[3]}\n", "")

    def test_exhausted_exit_2(self):
        code, out, _ = capture(["random", "3", "--seed", "1", "--c4-free"])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "ExhaustedAttempts"
        assert obj["certificate"] == {"m": 3, "seed": 1, "attempts": MAX_ATTEMPTS}

    def test_help_states_attempt_cap_default(self, capsys):
        assert run(["random", "--help"]) == 0
        assert f"at most {MAX_ATTEMPTS} draws" in " ".join(capsys.readouterr().out.split())

    def test_max_attempts_option_removed(self, capsys):
        # every draw loop stops at the fixed cap census.MAX_ATTEMPTS
        code, out, _ = capture(["random", "5", "--seed", "1", "--max-attempts", "1"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --max-attempts 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range_exit_2(self, seed):
        code, out, _ = capture(["random", "5", "--seed", str(seed)])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "InvalidSeed" and obj["certificate"] == {"seed": seed}

    # numpy is never asked for these: the limit is checked first
    @pytest.mark.parametrize("m", [MAX_M + 1, 10**11])
    def test_m_above_limit_exit_2(self, m):
        code, out, _ = capture(["random", str(m), "--seed", "1"])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "TooLarge" and obj["certificate"] == {"m": m, "limit": MAX_M}

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_at_ends_of_philox_key_range(self, seed):
        code, out, _ = capture(["random", "5", "--seed", str(seed)])
        assert code == 0
        assert out.endswith(f"\n# seed: {seed}\n")


class TestDraw:
    def test_svg_crossings(self):
        code, out, _ = capture(["draw", PETERSEN_TXT, "--anchor", "0", "--format", "svg"])
        assert code == 0
        assert "<!-- crossings: 3 -->" in out

    def test_dot_output(self):
        code, out, _ = capture(["draw", PRISM_TXT, "--format", "dot"])
        assert code == 0
        assert out.startswith("// crossings: 0")

    def test_bad_format_exit_2(self):
        code, _, _ = capture(["draw", PETERSEN_TXT, "--format", "png"])
        assert code == 2

    def test_refusal_writes_no_line_of_the_drawing(self):
        # the lines are made as they are written, and the anchor is
        # checked before the first
        code, out, _ = capture(["draw", PETERSEN_TXT, "--anchor", "5"])
        assert code == 2 and assert_valid_json(out)["error"] == "IndexOutOfRange"

    @pytest.mark.parametrize("fmt", ["svg", "dot"])
    def test_written_in_parts_is_the_whole_drawing(self, fmt):
        # m = 2,000 draws 10,000 lines or more, three writes of up to
        # 4,096 lines or more
        G = random_instance(2000, seed=1)
        code, out, _ = capture(["draw", "-", "--anchor", "17", "--format", fmt], stdin_text=G.to_text())
        assert code == 0 and out == mpgraphs.standard_drawing(G, 17, fmt)

    @pytest.mark.parametrize(
        "producer,draw_args,golden",
        [
            (None, [PETERSEN_TXT, "--anchor", "0", "--format", "svg"], "draw_petersen_a0.svg"),
            (None, [PETERSEN_TXT, "--anchor", "2", "--format", "dot"], "draw_petersen_a2.dot"),
            (None, [PRISM_TXT, "--format", "dot"], "draw_prism_a0.dot"),
            (["gk", "1"], ["-", "--anchor", "3", "--format", "svg"], "draw_gk1_a3.svg"),
            (["random", "30", "--seed", "1"], ["-", "--anchor", "7", "--format", "dot"], "draw_random30_seed1_a7.dot"),
        ],
    )
    def test_golden(self, producer, draw_args, golden):
        instance = capture(producer)[1] if producer else ""
        code, out, _ = capture(["draw"] + draw_args, stdin_text=instance)
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()


class TestCyclic:
    def test_petersen_true_exit_0(self):
        code, out, _ = capture(["cyclic", PETERSEN_TXT])
        assert code == 0
        obj = assert_valid_json(out)
        assert obj["cyclically_5_edge_connected"] is True
        assert obj["violating_cut"] is None

    def test_prism_false_exit_1(self):
        code, out, _ = capture(["cyclic", PRISM_TXT])
        assert code == 1
        obj = assert_valid_json(out)
        assert obj["cyclically_5_edge_connected"] is False
        assert len(obj["violating_cut"]) == 3

    def test_help_states_cost(self, capsys):
        for command, cost in (("cyclic", "O(m^2)"), ("check", "O(m) big-int operations")):
            assert run([command, "--help"]) == 0
            assert cost in " ".join(capsys.readouterr().out.split()), command


class TestCheck:
    def test_zhang(self):
        code, out, _ = capture(["check", PRISM_TXT, "--lemma", "zhang"])
        assert code == 0
        obj = assert_valid_json(out)
        assert obj["ok"] and obj["c4_count"] == 3

    def test_redrawing(self):
        code, out, _ = capture(["check", PETERSEN_TXT, "--lemma", "redrawing", "--args", "0", "1"])
        assert code == 0
        assert assert_valid_json(out)["ok"]

    def test_replace(self):
        code, out, _ = capture(["check", PETERSEN_TXT, "--lemma", "replace", "--args", "0", "1"])
        assert code == 0
        obj = assert_valid_json(out)
        assert obj["ok"] and obj["branch"] == "shared_witness"

    def test_lower_not_applicable_still_ok(self):
        code, out, _ = capture(["check", PETERSEN_TXT, "--lemma", "lower"])
        assert code == 0
        obj = assert_valid_json(out)
        assert obj["ok"] and not obj["applicable"]

    def test_missing_args_exit_2(self):
        code, out, _ = capture(["check", PETERSEN_TXT, "--lemma", "replace"])
        assert code == 2

    @pytest.mark.parametrize(
        "lemma, indices",
        [("zhang", ["1", "2", "3"]), ("lower", ["0"])]
        + [(lemma, indices) for lemma in ("redrawing", "replace") for indices in ([], ["0"], ["0", "1", "2"])],
    )
    def test_wrong_index_count_exit_2(self, lemma, indices):
        code, out, _ = capture(["check", PETERSEN_TXT, "--lemma", lemma, "--args", *indices])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "InvalidLemmaArgs"
        assert obj["certificate"] == {"lemma": lemma, "args": [int(i) for i in indices]}

    @pytest.mark.parametrize("lemma, index", [("replace", "0"), ("redrawing", "1")])
    def test_equal_indices_exit_2(self, lemma, index):
        code, out, _ = capture(["check", PETERSEN_TXT, "--lemma", lemma, "--args", index, index])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "IndicesNotDistinct"
        assert obj["certificate"] == {"a": int(index), "b": int(index)}


class TestLoadOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["census"],
            ["census", "--json"],
            ["witness", "--edge", "0"],
            ["draw"],
            ["cyclic"],
            ["check", "--lemma", "redrawing", "--args", "0", "1"],
            ["check", "--lemma", "replace", "--args", "0", "1"],
            ["check", "--lemma", "zhang"],
            ["check", "--lemma", "lower"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
    )
    def test_file_is_loaded_once(self, monkeypatch, argv):
        load, paths = cli_module._load_instance, []

        def counting(path, stdin):
            paths.append(path)
            return load(path, stdin)

        monkeypatch.setattr(cli_module, "_load_instance", counting)
        code, out, _ = capture([argv[0], PETERSEN_TXT, *argv[1:]])
        assert code == 0 and out
        assert paths == [PETERSEN_TXT]

    def test_lemma_arity_is_refused_before_the_read(self):
        class Unreadable(io.StringIO):
            def read(self, *args):
                raise AssertionError("stdin was read")

        out = io.StringIO()
        argv = ["check", "-", "--lemma", "zhang", "--args", "1"]
        code = run(argv, stdin=Unreadable(), stdout=out, stderr=io.StringIO())
        assert code == 2
        assert assert_valid_json(out.getvalue())["error"] == "InvalidLemmaArgs"


def flipped_crossing(target: int, x: int, y: int):
    """build_crossing_graph with the crossing x-y of H_target flipped."""
    build = crossing_module.build_crossing_graph

    def flipped(G, a):
        H = build(G, a)
        if a != target:
            return H
        adj = list(H.adj)
        adj[x] ^= 1 << y
        adj[y] ^= 1 << x
        return H._replace(adj=tuple(adj))

    return flipped


class TestCheckFailureDocuments:
    """The exit-1 documents of check, byte for byte.  Every lemma holds on
    every instance, so each test breaks the census or a crossing graph
    in-process to reach a failing verdict."""

    def check(self, argv, stdin_text, expected):
        code, out, _ = capture(["check", *argv], stdin_text=stdin_text)
        assert (code, out) == (1, expected)
        assert_valid_json(out)

    def test_redrawing_clause_1(self, monkeypatch):
        # a ~ 3 in H_1 no longer matches 1 ~ 3 in H_0
        monkeypatch.setattr("mpgraphs.crossing.build_crossing_graph", flipped_crossing(0, 1, 3))
        self.check(
            [PETERSEN_TXT, "--lemma", "redrawing", "--args", "0", "1"],
            "",
            '{\n  "counterexample": [\n    3\n  ],\n  "failing_clause": 1,\n  "lemma": "redrawing",\n'
            '  "ok": false,\n  "schema_version": 1,\n  "tool_version": "0.1.0"\n}\n',
        )

    def test_redrawing_clause_2(self, monkeypatch):
        monkeypatch.setattr("mpgraphs.crossing.build_crossing_graph", flipped_crossing(1, 2, 3))
        self.check(
            [PETERSEN_TXT, "--lemma", "redrawing", "--args", "0", "1"],
            "",
            '{\n  "counterexample": [\n    2,\n    3\n  ],\n  "failing_clause": 2,\n'
            '  "lemma": "redrawing",\n  "ok": false,\n  "schema_version": 1,\n'
            '  "tool_version": "0.1.0"\n}\n',
        )

    def test_replace(self, monkeypatch):
        # G_1's first block, the witness (0, 1, 2, 3, 4), goes; (1, 2, 3, 4)
        # then completes a witness with 5 but not with 0
        blocks = census_module._petersen_blocks
        monkeypatch.setattr(
            "mpgraphs.census._petersen_blocks", lambda sigma: itertools.islice(blocks(sigma), 1, None)
        )
        self.check(
            ["-", "--lemma", "replace", "--args", "0", "5"],
            capture(["gk", "1"])[1],
            '{\n  "branch": null,\n  "counterexample": [\n    1,\n    2,\n    3,\n    4\n  ],\n'
            '  "lemma": "replace",\n  "ok": false,\n  "schema_version": 1,\n'
            '  "tool_version": "0.1.0"\n}\n',
        )

    def test_zhang(self, monkeypatch):
        monkeypatch.setattr("mpgraphs.census._count", lambda sigma: 0)
        self.check(
            [PETERSEN_TXT, "--lemma", "zhang"],
            "",
            '{\n  "c4_count": 0,\n  "lemma": "zhang",\n  "ok": false,\n  "p10_count": 0,\n'
            '  "schema_version": 1,\n  "tool_version": "0.1.0"\n}\n',
        )

    def test_lower(self, monkeypatch):
        # G_5: n = 44 and no matched 4-cycle, so the bound applies
        monkeypatch.setattr("mpgraphs.census._count", lambda sigma: 0)
        self.check(
            ["-", "--lemma", "lower"],
            capture(["gk", "5"])[1],
            '{\n  "applicable": true,\n  "lemma": "lower",\n  "ok": false,\n  "p10_count": 0,\n'
            '  "required": 18,\n  "schema_version": 1,\n  "tool_version": "0.1.0"\n}\n',
        )


def emitted(obj: dict) -> str:
    buf = io.StringIO()
    _emit_json(obj, buf)
    return buf.getvalue()


def dumped(obj: dict) -> str:
    """The document every JSON output must equal: ``obj`` with the version
    keys, through one json.dumps call, and a newline."""
    full = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **obj}
    return json.dumps(full, sort_keys=True, indent=2) + "\n"


class TestParserReuse:
    def test_one_parser_tree_per_process(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        _build_parser.cache_clear()
        calls = [
            ["validate", PETERSEN_TXT],
            ["census", PETERSEN_TXT, "--json"],
            ["check", PRISM_TXT, "--lemma", "zhang"],
            ["no-such-command"],
            ["census", PRISM_TXT],
        ]
        for argv in calls:
            capture(argv)
        # the top-level parser and one per subcommand, each built once
        subcommands = next(
            a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert len(built) == 1 + len(subcommands) == 10
        assert built[0] == "mpg"

    def test_errors_leave_no_state_behind(self, tmp_path, capsys):
        _, instance, _ = capture(["gk", "4"])
        path = tmp_path / "g4.txt"
        path.write_text(instance)
        first = capture(["census", str(path), "--json"])
        assert capture(["census", str(path), "--no-such-flag"])[0] == 2
        assert capture(["--version"])[0] == 0
        assert capsys.readouterr().out == f"mpg {__version__}\n"
        code, out, _ = capture(["check", str(path), "--lemma", "zhang", "--args", "1"])
        assert code == 2 and json.loads(out)["error"] == "InvalidLemmaArgs"
        again = capture(["census", str(path), "--json"])
        assert first == again and first[0] == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "mpgraphs", "census", str(path), "--json"],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert fresh.returncode == 0
        assert again[1] == fresh.stdout


class RecordingIO(io.StringIO):
    """A stdout that records every write it is given."""

    def __init__(self):
        super().__init__()
        self.writes: list[str] = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return super().write(s)


class TestJsonWriter:
    # _emit_json is one json.dumps call, so one test pins the version keys,
    # the key order, the indent and the newline it adds; the census tests
    # pin `census --json`, whose witness list is written block by block
    def test_adds_versions_sorts_indents_and_ends_in_one_newline(self):
        assert emitted({"b": [1, (2, True)], "a": {"z": None, "é": "x"}}) == (
            "{\n"
            '  "a": {\n'
            '    "z": null,\n'
            '    "\\u00e9": "x"\n'
            "  },\n"
            '  "b": [\n'
            "    1,\n"
            "    [\n"
            "      2,\n"
            "      true\n"
            "    ]\n"
            "  ],\n"
            f'  "schema_version": {SCHEMA_VERSION},\n'
            f'  "tool_version": "{__version__}"\n'
            "}\n"
        )

    def test_census_rows_written_per_block(self):
        G = random_instance(30, seed=1, require_c4_free=True)
        report = census_report(G)
        out = RecordingIO()
        assert run(["census", "-", "--json"], stdin=io.StringIO(G.to_text()), stdout=out) == 0
        assert "".join(out.writes) == dumped(report.to_json_dict())
        # a witness row opens with a line holding only its bracket; the
        # rows reach stdout one block at a time, in census order, so no
        # write holds the whole list
        rows = [w.count("\n    [\n") for w in out.writes]
        per_block = [len(block_witnesses(block)) for block in report.blocks]
        assert [n for n in rows if n] == per_block
        assert len(per_block) > 1000 and max(per_block) < report.p10_count / 100

    def test_census_cli_matches_json_dumps_exhaustively(self):
        for m in range(3, 8):
            for sigma in itertools.permutations(range(m)):
                assert_census_cli_matches_json_dumps(MarkedPermutationGraph(m, sigma))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_census_cli_matches_json_dumps_on_gk(self, k):
        assert_census_cli_matches_json_dumps(generate_gk(k).graph)

    @pytest.mark.parametrize("m", [30, 40])
    @pytest.mark.parametrize("c4_free", [True, False])
    def test_census_cli_matches_json_dumps_on_random(self, m, c4_free):
        assert_census_cli_matches_json_dumps(random_instance(m, seed=1, require_c4_free=c4_free))


def block_witnesses(block) -> list:
    """The witnesses of one census block, spelled out from its definition."""
    x0, x1, x2, x3s, x4s = block
    return [(x0, x1, x2, x3, x4) for x3 in x3s for x4 in x4s if x3 < x4]


def assert_census_cli_matches_json_dumps(G):
    """`census --json`, written from the census blocks, against the report's
    to_json_dict through one json.dumps call."""
    code, out, _ = capture(["census", "-", "--json"], stdin_text=G.to_text())
    assert code == 0 and out == dumped(census_report(G).to_json_dict()), G.to_text()


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mpgraphs", "census", PETERSEN_TXT, "--json"],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p10_count"] == 1


def loaded_by_cli_import(module: str) -> bool:
    """Whether ``import mpgraphs.cli`` in a fresh interpreter loads ``module``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, mpgraphs.cli; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout in ("True\n", "False\n"), proc.stdout
    return proc.stdout == "True\n"


@pytest.mark.parametrize(
    "module",
    ["numpy", "dataclasses", "inspect", "mpgraphs.witness", "mpgraphs.crossing", "mpgraphs.cograph", "mpgraphs.family"],
)
def test_cli_import_leaves_module_unloaded(module):
    # only random_instance needs numpy, and it imports it itself; the value
    # types are NamedTuples, so nothing loads dataclasses or the inspect
    # module that dataclasses imports; the cli imports the engine, the
    # drawing and the family in the branches that run them
    assert not loaded_by_cli_import(module)


def mpgraphs_modules_after(code: str) -> list[str]:
    """The mpgraphs modules loaded once ``code`` has run in a fresh interpreter."""
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'mpgraphs'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_only_the_census():
    assert mpgraphs_modules_after("import mpgraphs") == [
        "mpgraphs", "mpgraphs.census", "mpgraphs.core", "mpgraphs.errors",
    ]


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["validate", PETERSEN_TXT], []),
        (["cyclic", PETERSEN_TXT], []),
        (["census", PETERSEN_TXT, "--json"], []),
        (["check", PETERSEN_TXT, "--lemma", "zhang"], []),
        (["check", PETERSEN_TXT, "--lemma", "redrawing", "--args", "0", "1"], ["crossing"]),
        (["draw", PETERSEN_TXT], ["crossing"]),
        (["witness", PETERSEN_TXT, "--edge", "0"], ["cograph", "crossing", "witness"]),
        (["gk", "4"], ["family"]),
        (["scan", "3"], ["cograph", "crossing", "witness"]),
    ],
    ids=["validate", "cyclic", "census", "check-zhang", "check-redrawing", "draw", "witness", "gk", "scan"],
)
def test_command_loads_only_the_modules_it_runs(argv, extra):
    # import mpgraphs loads census, core and errors; a command adds only
    # the modules its own code reads
    code = f"import io\nfrom mpgraphs.cli import run\nassert run({argv!r}, stdout=io.StringIO()) == 0"
    expected = ["census", "cli", "core", "errors", *extra]
    assert mpgraphs_modules_after(code) == ["mpgraphs"] + sorted(f"mpgraphs.{m}" for m in expected)


def numpy_loaded_after_refusal(args: str, error: str) -> bool:
    """Whether numpy is loaded once ``random_instance(<args>)`` has raised
    the exception named ``error`` in a fresh interpreter; fails if it did
    not raise, or raised another."""
    code = (
        "import sys\n"
        "from mpgraphs.census import random_instance\n"
        "try:\n"
        f"    random_instance({args})\n"
        "except Exception as exc:\n"
        f"    assert type(exc).__name__ == {error!r}, repr(exc)\n"
        "    print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout in ("True\n", "False\n"), proc.stdout
    return proc.stdout == "True\n"


def test_bad_seed_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal("5, seed=-1", "InvalidSeed")


def test_m_below_3_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal("2, seed=1", "TooSmall")


def test_m_above_limit_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal(f"{MAX_M + 1}, seed=1", "TooLarge")


def test_non_integer_seed_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal("5, seed=1.5", "InvalidSeed")


def test_non_integer_m_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal("5.0, seed=1", "TooSmall")


def test_non_bool_c4_free_flag_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal("5, 1, 'no'", "TypeError")


@pytest.mark.parametrize("command", ["gk", "random"])
def test_help_states_size_limit(command, capsys):
    assert run([command, "--help"]) == 0
    assert f"at most {MAX_M}" in capsys.readouterr().out


def test_cli_import_leaves_multiprocessing_unloaded():
    # every subcommand runs in one process, so nothing should pull in
    # multiprocessing
    assert not loaded_by_cli_import("multiprocessing")


def test_star_import_binds_exactly_all():
    # a name left in __all__ after its import is deleted breaks star-imports
    namespace: dict = {}
    exec("from mpgraphs import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(mpgraphs.__all__))
    assert len(set(mpgraphs.__all__)) == len(mpgraphs.__all__)


def test_public_names_are_their_modules_objects():
    # each name is the object its module defines, read from there on
    # every lookup, so the package namespace gains none of them
    for module in ("cograph", "crossing", "family", "witness"):
        importlib.import_module(f"mpgraphs.{module}")
    before = dict(vars(mpgraphs))
    for name in set(mpgraphs.__all__) - {"__version__"}:
        obj = getattr(mpgraphs, name)
        home = "mpgraphs.core" if name == "PetersenWitness" else obj.__module__
        assert getattr(sys.modules[home], name) is obj, name
        assert name not in before or home == "mpgraphs.census", name
    assert vars(mpgraphs) == before
    assert set(mpgraphs.__all__) <= set(dir(mpgraphs))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mpgraphs.no_such_name


def test_public_names_are_pinned():
    # a public name leaves or joins the package only with this list
    assert sorted(mpgraphs.__all__) == [
        "C4ReduceStep", "CensusReport", "CrossingGraph", "EdgeClass", "EdgeClassification",
        "FourCycle", "GkInstance", "InducedPath4", "MarkedPermutationGraph", "P4FoundStep", "PETERSEN",
        "PRISM", "PetersenWitness", "SuppressedGraph", "__version__", "apply_symmetry",
        "build_crossing_graph", "census_report", "check_lower_bound", "check_redrawing",
        "check_replace", "check_zhang", "classify_edge", "count_per_edge", "enumerate_m_c4",
        "enumerate_m_p10", "exhaustive_scan", "find_cyclic_cut", "find_induced_p4",
        "find_p10_through", "generate_gk", "girth", "is_cyclically_5_edge_connected", "is_petersen",
        "p10_from_p4", "parse_instance", "parse_instances", "random_instance", "relabel_witness",
        "replay_trace", "standard_drawing", "suppress_match", "validate", "verify_gk",
        "witness_report_dict",
    ]
