"""The benchmark's tracer wraps names of ``leaf_atlas`` by string; each must exist.

``perfbench/tracing.py`` is read with ``ast``, not imported, so this test
needs nothing from ``perfbench`` at run time.
"""
import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _targets():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("no TARGETS assignment in perfbench/tracing.py")


def test_every_traced_name_resolves():
    targets = _targets()
    assert len(targets) > 40
    for module, path in targets:
        mod = importlib.import_module(f"leaf_atlas.{module}")
        cls_name, _, attr = path.rpartition(".")
        if cls_name:  # the tracer reads a method from the class's own namespace
            assert attr in vars(getattr(mod, cls_name)), (module, path)
        else:
            assert callable(getattr(mod, attr, None)), (module, path)
