import hashlib
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraphs import __version__
from mpgraphs.census import MAX_ATTEMPTS, census_report, random_instance
from mpgraphs.core import MAX_M
from mpgraphs.cli import ROW_BLOCK, SCHEMA_VERSION, _emit_json, _is_int_rows, run

from .conftest import FIXTURE_DIR, GOLDEN_DIR, REPO_ROOT

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

    def test_missing_file_exit_2(self):
        code, _, err = capture(["validate", "no-such-file.txt"])
        assert code == 2
        assert "error" in err

    def test_usage_error_exit_2(self):
        code, _, _ = capture(["no-such-command"])
        assert code == 2


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

    def test_large_census_pinned(self):
        # 497,028 witnesses, ~30 MB of JSON; the digest was recorded from
        # the json.dumps(sort_keys=True, indent=2) writer
        _, instance, _ = capture(["random", "60", "--seed", "1", "--c4-free"])
        code, out, _ = capture(["census", "-", "--json"], stdin_text=instance)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "d6aa595aa8a0a90f045e34bf62e6ab506e964dff9f44fb23242e49a60556f371"
        )


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
        code, out, _ = capture(["random", "3", "--seed", "1", "--c4-free", "--max-attempts", "50"])
        assert code == 2
        assert assert_valid_json(out)["error"] == "ExhaustedAttempts"

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_attempt_cap_below_1_exit_2(self, attempts):
        code, out, _ = capture(["random", "5", "--seed", "1", "--max-attempts", str(attempts)])
        assert code == 2
        obj = assert_valid_json(out)
        assert obj["error"] == "InvalidAttempts" and obj["certificate"] == {"max_attempts": attempts}

    def test_help_states_attempt_cap_default(self, capsys):
        assert run(["random", "--help"]) == 0
        assert f"(default {MAX_ATTEMPTS})" in " ".join(capsys.readouterr().out.split())

    def test_one_attempt_prints_an_instance(self):
        one = capture(["random", "5", "--seed", "1", "--max-attempts", "1"])
        assert one[0] == 0 and one == capture(["random", "5", "--seed", "1"])

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


def emitted(obj: dict) -> str:
    buf = io.StringIO()
    _emit_json(obj, buf)
    return buf.getvalue()


def dumped(obj: dict) -> str:
    """The oracle: the whole document from one json.dumps call."""
    full = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **obj}
    return json.dumps(full, sort_keys=True, indent=2) + "\n"


TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "\udcff", "\ud800x", '"\\/\b\f\n\r\t\x00\x1f', "é€\U0001f600"]
)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
ROW_ITEMS = st.integers() | st.booleans() | st.floats(allow_nan=False)


@st.composite
def int_rows(draw, items=st.integers()):
    """Non-empty lists of list or tuple rows of one length.  With plain int
    ``items`` and a nonzero length they take the row-template path; with
    bools or floats among the ``items`` they must fall back."""
    width = draw(st.integers(0, 6))
    row = st.lists(items, min_size=width, max_size=width)
    return draw(st.lists(row | row.map(tuple), min_size=1, max_size=8))


ROWS = (
    int_rows()
    | int_rows(ROW_ITEMS)
    # mostly ragged rows, which fall back too
    | st.lists(st.lists(st.integers(), max_size=4), min_size=1, max_size=6)
)
JSON_VALUES = st.recursive(
    SCALARS | ROWS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=4),
    max_leaves=20,
)


class RecordingIO(io.StringIO):
    """A stdout that records every write it is given."""

    def __init__(self):
        super().__init__()
        self.writes: list[str] = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return super().write(s)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(TEXT, JSON_VALUES, max_size=5))
    def test_matches_json_dumps(self, obj):
        assert emitted(obj) == dumped(obj)

    @pytest.mark.parametrize(
        "rows, fast",
        [
            ([[1, 2], (3, 4)], True),
            ([[1, True]], False),
            ([[1, 2.0]], False),
            ([[1], [2, 3]], False),
            ([[]], False),
            ([[1], 2], False),
            ([[[1]]], False),
            ([["1"]], False),
        ],
    )
    def test_row_shape_check(self, rows, fast):
        assert _is_int_rows(rows) is fast
        assert emitted({"rows": rows}) == dumped({"rows": rows})

    @pytest.mark.parametrize("m", [30, 40])
    def test_census_reports_match_json_dumps(self, m):
        report = census_report(random_instance(m, seed=1, require_c4_free=True))
        obj = report.to_json_dict()
        assert emitted(obj) == dumped(obj)

    def test_census_is_streamed_in_blocks(self):
        report = census_report(random_instance(30, seed=1, require_c4_free=True))
        obj = report.to_json_dict()
        blocks = -(-report.p10_count // ROW_BLOCK)
        assert blocks > 2
        out = RecordingIO()
        _emit_json(obj, out)
        assert "".join(out.writes) == dumped(obj)
        # a witness row is 7 lines: its brackets and its 5 edges
        lines = [w.count("\n") for w in out.writes]
        assert max(lines) <= 7 * ROW_BLOCK
        assert sum(n > 7 for n in lines) == blocks


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


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect"])
def test_cli_import_leaves_module_unloaded(module):
    # only random_instance needs numpy, and it imports it itself; the value
    # types are NamedTuples, so nothing loads dataclasses or the inspect
    # module that dataclasses imports
    assert not loaded_by_cli_import(module)


def numpy_loaded_after_refusal(args: str, error: str) -> bool:
    """Whether numpy is loaded once ``random_instance(<args>)`` has raised
    ``error`` in a fresh interpreter; fails if it did not raise."""
    code = (
        "import sys\n"
        "from mpgraphs.census import random_instance\n"
        f"from mpgraphs.errors import {error}\n"
        "try:\n"
        f"    random_instance({args})\n"
        f"except {error}:\n"
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


def test_bad_attempt_cap_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal("5, seed=1, max_attempts=0", "InvalidAttempts")


def test_m_above_limit_refused_before_numpy_loads():
    assert not numpy_loaded_after_refusal(f"{MAX_M + 1}, seed=1", "TooLarge")


@pytest.mark.parametrize("command", ["gk", "random"])
def test_help_states_size_limit(command, capsys):
    assert run([command, "--help"]) == 0
    assert f"at most {MAX_M}" in capsys.readouterr().out


def test_cli_import_leaves_multiprocessing_unloaded():
    # every subcommand runs in one process, so nothing should pull in
    # multiprocessing
    assert not loaded_by_cli_import("multiprocessing")
