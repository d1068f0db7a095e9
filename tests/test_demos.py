"""Each demo script runs to completion against the package in src/, and
the README's library tour states what the package returns."""

import ast
import os
import re
import subprocess
import sys

import pytest

from .conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    # an empty glob would leave nothing to parametrize and pass unseen
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run([sys.executable, str(demo)], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_states_true_values():
    # each expression line of the tour's python block is evaluated and its
    # repr compared with its comment, up to the first double space; the
    # other lines run as written, so a removed or renamed public name fails
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            assert repr(eval(code, namespace)) == re.split(r"\s{2,}", comment.strip())[0], line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 10
    assert 2 * namespace["inst"].graph.m == 38  # "n = 38"
