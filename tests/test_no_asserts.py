"""No invariant of the library may live in an ``assert``: ``python -O`` strips them."""
import ast
from pathlib import Path

import leaf_atlas


def test_library_has_no_assert_statements():
    root = Path(leaf_atlas.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_raises_no_runtime_error():
    # the form the library's self-checks took; cross-checks belong in harness.CHECKS
    root = Path(leaf_atlas.__file__).parent
    found = [path.name for path in sorted(root.rglob("*.py"))
             if "raise RuntimeError" in path.read_text(encoding="utf-8")]
    assert found == []
