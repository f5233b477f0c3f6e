import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcplab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements, so safety checks must raise.
    found = []
    for path in sorted(Path(mcplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


@pytest.mark.parametrize(
    "script, args",
    [
        ("expansion_diagnostics.py", ["--n", "300", "--seeds", "2"]),
        ("below_threshold_isolated.py", ["--n", "200", "--trials", "2"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(Path(mcplab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
