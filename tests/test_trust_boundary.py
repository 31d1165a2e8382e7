"""The unchecked constructors stay with the enumerators that the checks cover.

``LeafIndex._trusted`` and ``SigmaTuple._trusted`` skip validation; the
registered checks ``window_vs_bruhat`` and ``phi_roundtrip`` cover what
``enumerate_leaves`` and ``enumerate_sigma`` build with them, and nothing
covers any other caller.
"""
import ast
from pathlib import Path

import leaf_atlas

ALLOWED = {("leaves", "enumerate_leaves"), ("sigma", "enumerate_sigma")}


def _trusted_uses() -> set[tuple[str, str]]:
    """``(module, top-level definition)`` of each reference to a ``_trusted`` name."""
    root = Path(leaf_atlas.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "_trusted"
                        or isinstance(node, ast.Name) and node.id == "_trusted"
                        or isinstance(node, ast.Constant) and node.value == "_trusted"):
                    found.add((path.stem, owner))
    return found


def test_trusted_constructors_are_used_only_by_the_enumerators():
    assert _trusted_uses() == ALLOWED
