"""Every module-level function and class in src/sdprover serves the prover,
so does every method of a class the package does not export, and no
function calls itself.

A definition counts as used when some code in src/sdprover refers to it
outside its own body, or when the package exports it in __all__.  Helpers
that only tests call belong in the tests.  Methods that Python or a
library calls for the class are exempt: dunder methods, and cli._Parser's
error, which argparse calls.

Term walks, the matcher's backtracking and the reading of nested include
directives run on explicit stacks, so a deep term, a wide clause or a
long include chain cannot exhaust Python's stack.

The one global statement is terms.run_scope's, which installs a run's term
table and deadline: any other cache lives on the object it serves.
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


def _referenced(node: ast.AST, skip: ast.AST = None) -> set[str]:
    """Names and attribute names referred to in node, outside skip."""
    names = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
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


CALLED_BY_A_LIBRARY = {"cli.py:_Parser.error"}


def unused_methods() -> list[str]:
    """module:class.method for every method of an unexported class that
    nothing in src refers to outside the method's own body."""
    modules = _modules()
    unused = []
    for mod, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in sdprover.__all__:
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                label = f"{mod}:{cls.name}.{fn.name}"
                if fn.name.startswith("__") and fn.name.endswith("__") or label in CALLED_BY_A_LIBRARY:
                    continue
                if not any(fn.name in _referenced(other, skip=fn) for other in modules.values()):
                    unused.append(label)
    return unused


def test_no_method_of_an_unexported_class_is_unused():
    assert unused_methods() == []


def _callee(func: ast.expr):
    """The name a call reaches its own function by: f(...), self.f(...) or cls.f(...)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
        return func.attr
    return None


def self_calls() -> list[str]:
    """module:function:line for every call of a function inside its own
    body (nested definitions included), in every module."""
    out = []
    for mod, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(
                    f"{mod}:{fn.name}:{call.lineno}"
                    for call in ast.walk(fn)
                    if isinstance(call, ast.Call) and _callee(call.func) == fn.name
                )
    return out


def test_no_search_function_calls_itself():
    assert self_calls() == []


def deadline_plumbing() -> list[str]:
    """module:line for each way the deadline reaches a step other than a
    no-argument check_time() call: a parameter named check_time or
    deadline (terms.run_scope's, which installs it, aside), an attribute of
    either name, or a check_time call with arguments."""
    names = ("check_time", "deadline")
    out = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and f"{mod}:{node.name}" != "terms.py:run_scope":
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                out.extend(f"{mod}:{a.lineno}" for a in params if a.arg in names)
            elif isinstance(node, ast.Attribute) and node.attr in names:
                out.append(f"{mod}:{node.lineno}")
            elif isinstance(node, ast.Call) and _callee(node.func) == "check_time" and (node.args or node.keywords):
                out.append(f"{mod}:{node.lineno}")
    return out


def test_the_deadline_reaches_every_step_through_the_run_scope():
    assert deadline_plumbing() == []


def global_statements() -> list[tuple[str, str, tuple[str, ...]]]:
    """(module, enclosing function, names) for every global statement in
    src/sdprover, the function "" at module level."""
    out = []
    for mod, tree in _modules().items():
        stack = [(tree, "")]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, ast.Global):
                out.append((mod, owner, tuple(node.names)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return out


def test_the_run_scope_installs_the_only_run_global_state():
    """The term table and the deadline are the only module state a run
    sets, so no run-global cache can come back unnoticed."""
    assert global_statements() == [("terms.py", "run_scope", ("_shared", "_deadline"))]
