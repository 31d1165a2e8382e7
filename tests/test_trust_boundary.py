"""The unchecked constructors stay with the producers that the checks cover.

``LeafIndex._trusted`` and ``SigmaTuple._trusted`` skip validation.  Each
entry of ``ALLOWED`` names a producer and the registered check that covers
what it builds with them:

- ``leaves.enumerate_leaves``: ``window_vs_bruhat`` compares its list with
  the window-filtered scan of S_{m+n};
- ``sigma.enumerate_sigma``: ``phi_roundtrip`` rebuilds each of its
  quadruples through the validating constructor;
- ``sigma.phi_inv``: ``phi_roundtrip`` compares its output with those
  validated quadruples, on every stratum of the shape with ``sigma_count``;
- ``double_bruhat.decompose``: ``orbit_partition`` rebuilds each quadruple of
  every nonempty cell through the validating constructor;
- ``double_bruhat.dense_orbit``: ``dense_orbit`` compares its quadruple with
  the first of ``decompose``.

Nothing covers any other caller.
"""
import ast
from pathlib import Path

import leaf_atlas

ALLOWED = {("leaves", "enumerate_leaves"), ("sigma", "enumerate_sigma"), ("sigma", "phi_inv"),
           ("double_bruhat", "decompose"), ("double_bruhat", "dense_orbit")}


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
