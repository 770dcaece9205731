"""Every module-level function and class in src/sdprover serves the prover.

A definition counts as used when some code in src/sdprover refers to it
outside its own body, or when the package exports it in __all__.  Helpers
that only tests call belong in the tests.
"""

import ast
import os

import sdprover

SRC = os.path.dirname(sdprover.__file__)


def _modules() -> dict[str, ast.Module]:
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                out[name] = ast.parse(handle.read(), filename=name)
    return out


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_definitions() -> list[str]:
    """module:name for every top-level def or class nothing in src refers to."""
    modules = _modules()
    # names referenced by each top-level statement, keyed by (module, index)
    uses = {
        (mod, i): _referenced(stmt)
        for mod, tree in modules.items()
        for i, stmt in enumerate(tree.body)
    }
    unused = []
    for mod, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name in sdprover.__all__:
                continue
            if not any(stmt.name in names for key, names in uses.items() if key != (mod, i)):
                unused.append(f"{mod}:{stmt.name}")
    return unused


def test_no_module_level_definition_is_test_only():
    assert unused_definitions() == []
