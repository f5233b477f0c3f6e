import ast
from pathlib import Path

import mcplab


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
