"""Every module-level ``def`` and ``class``, and every method, of the library is reached.

A module-level name passes if another part of ``src/leaf_atlas`` refers to
it (the ``__init__`` re-exports do not count), if it is the function of a
registered check in ``harness.CHECKS``, if the benchmark's tracer wraps it
(``perfbench/tracing.py`` ``TARGETS``), or if it is listed in ``PUBLIC``.
A method (a ``def`` in a class body, dunders aside) passes if some module of
``src/leaf_atlas`` uses its name as an attribute, if the tracer wraps it, or
if it is listed in ``PUBLIC`` as ``Class.method``.  A helper that only tests call belongs in
``tests/``.  ``PUBLIC`` lists only names that no other route reaches, so an
entry goes when its definition is deleted or gains a caller.
"""
import ast
from functools import reduce
from pathlib import Path

import leaf_atlas
from leaf_atlas.harness import CHECKS
from test_trace_targets import _targets

# The API of the paper's presentations, the harness entry point for a
# report's counterexamples, and the report's skip writer, that no other
# module happens to call.
PUBLIC = (
    ("closure_leq", "the closure order on strata, the paper's partial order"),
    ("leaf_factors", "the echelon factor pairs of a stratum, the paper's third presentation"),
    ("column_pattern", "constructor of the column-echelon pattern of a factor"),
    ("row_pattern", "constructor of the row-echelon pattern of a factor"),
    ("replay", "re-runs the failed check of a counterexample payload in a report"),
    ("VerificationReport.skip", "the one writer of a report's skipped count and skip notes, "
     "for a check whose input must be passed over with a reason; no campaign skips today"),
)
NAMES = frozenset(name for name, _ in PUBLIC)


def _modules() -> list[tuple[str, ast.Module]]:
    """``(module name, syntax tree)`` of each library module but ``__init__``."""
    root = Path(leaf_atlas.__file__).parent
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]


def _unreached(public: frozenset = NAMES) -> list[str]:
    """``module.name`` of each definition that passes none of the tests above."""
    defined, uses = [], []  # uses: (module, definition or None, names it refers to)
    for module, tree in _modules():
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append((module, own))
            uses.append((module, own, {n.id if isinstance(n, ast.Name) else n.attr
                                       for n in ast.walk(node)
                                       if isinstance(n, (ast.Name, ast.Attribute))}))
    checked = {check.fn for check in CHECKS.values()}
    traced = {(module, path.split(".")[0]) for module, path in _targets()}
    return [f"{module}.{name}" for module, name in defined
            if not any(name in names and (where, own) != (module, name)
                       for where, own, names in uses)
            and name not in checked and (module, name) not in traced
            and name not in public]


def _unreached_methods(public: frozenset = NAMES) -> list[str]:
    """``module.Class.method`` of each method that passes none of the tests above."""
    methods, attributes = [], set()
    for module, tree in _modules():
        attributes |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        methods += [(module, f"{cls.name}.{item.name}", item.name)
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    traced = set(_targets())
    return [f"{module}.{path}" for module, path, name in methods
            if name not in attributes and (module, path) not in traced
            and path not in public]


def test_every_definition_is_reached():
    assert _unreached() == []


def test_every_method_is_reached():
    assert _unreached_methods() == []


def test_public_lists_only_names_no_other_route_reaches():
    unreached = {name.split(".", 1)[1]
                 for name in _unreached(frozenset()) + _unreached_methods(frozenset())}
    assert sorted(NAMES - unreached) == []


def test_public_names_exist():
    for name, reason in PUBLIC:
        assert reason and callable(reduce(getattr, name.split("."), leaf_atlas)), name
