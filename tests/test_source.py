import ast
import importlib.util
import os
import subprocess
import sys
import types
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


def test_public_surface_is_all():
    # A name removed from the package must leave __all__ too, and every
    # public name the package binds must be listed there.
    names = mcplab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mcplab, name)] == []
    public = {
        name
        for name, value in vars(mcplab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)


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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    summarize = _load_script("bench_pairs").summarize
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 4.0, 3.0, 6.0]
    higher = summarize(parent, change, "higher")
    assert (higher["pairs"], higher["change_wins"], higher["ties"]) == (5, 3, 1)
    assert higher["parent"]["median"] == 3.0 and higher["change"]["median"] == 3.0
    assert (higher["parent"]["q1"], higher["parent"]["q3"], higher["parent"]["iqr"]) == (2.0, 4.0, 2.0)
    assert higher["change"]["values"] == change
    # Lower is better: the same pairs give the one remaining win; the tie counts for neither.
    lower = summarize(parent, change, "lower")
    assert (lower["change_wins"], lower["ties"]) == (1, 1)
    single = summarize([2.0], [1.0], "lower")
    assert single["change_wins"] == 1 and single["parent"]["iqr"] == 0.0
    with pytest.raises(ValueError):
        summarize([1.0], [1.0, 2.0], "higher")
    # Fewer than ten pairs claim no gain; without a bound there is no other verdict.
    assert higher["verdict"] == single["verdict"] == "no_bound"


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        # 10/10 wins, median gap 2 > parent IQR 0
        ([10.0] * 10, [12.0] * 10, "higher", "gain"),
        # 5/5 wins are too few pairs
        ([10.0] * 5, [12.0] * 5, "higher", "within_bound"),
        # 9/10 wins is enough; 8/10 is not, and +10% is within the 0.24 bound
        ([10.0] * 10, [11.0] * 9 + [9.0], "higher", "gain"),
        ([10.0] * 10, [11.0] * 8 + [9.0] * 2, "higher", "within_bound"),
        # every pair won, but the median gap 0.1 is inside the parent IQR 0.2
        ([9.8, 9.9, 10.0, 10.1, 10.2] * 2, [9.9, 10.0, 10.1, 10.2, 10.3] * 2, "higher",
         "within_bound"),
        # 30% worse, parent IQR 2% of its median: narrower than the bound
        ([9.8, 9.9, 10.0, 10.1, 10.2], [7.0] * 5, "higher", "regression"),
        ([1.0] * 5, [1.3] * 5, "lower", "regression"),
        # 30% worse, parent IQR 50% of its median: wider than the bound
        ([5.0, 10.0, 10.0, 15.0, 20.0], [7.0] * 5, "higher", "unresolved"),
        # 20% worse is within the 0.24 bound
        ([1.0] * 5, [1.2] * 5, "lower", "within_bound"),
    ],
)
def test_bench_pairs_verdict(parent, change, better, verdict):
    summarize = _load_script("bench_pairs").summarize
    assert summarize(parent, change, better, 0.24)["verdict"] == verdict
