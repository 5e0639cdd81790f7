"""Every module-level name in the package is used somewhere in the package.

A function, class or constant defined at the top level of a module in
src/mvsl must be referenced somewhere in src/mvsl outside its own
definition: code that only its own tests use is deleted, not kept.  The
public API (mvsl.__all__), dunder names and the console script `entry`
are exempt.  Likewise every name a module imports must be referenced in
that module; `__init__.py`, which re-exports the API, is exempt.  Every
function parameter other than `self` must be read by its body, and a
default that every call in the package supplies is dropped, unless the
function is public API.
"""

import ast
from pathlib import Path

import mvsl

PACKAGE = Path(mvsl.__file__).resolve().parent
EXEMPT = {*mvsl.__all__, "entry"}


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def unused_names() -> list[str]:
    """module:name for each module-level definition nothing else names."""
    modules = {f.name: ast.parse(f.read_text(), str(f)) for f in sorted(PACKAGE.glob("*.py"))}
    # References made by each top-level statement, so a definition's own
    # body (its recursion, its own docstring) does not count as a use.
    refs = [
        (mod, stmt, _referenced_names(stmt)) for mod, tree in modules.items() for stmt in tree.body
    ]
    unused = []
    for mod, tree in modules.items():
        for stmt in tree.body:
            for name in _defined_names(stmt):
                if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
                    continue
                if not any(name in names for _, other, names in refs if other is not stmt):
                    unused.append(f"{mod}:{name}")
    return unused


def unused_imports() -> list[str]:
    """module:name for each name a module imports and never references."""
    unused = []
    for f in sorted(PACKAGE.glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text(), str(f))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{f.name}:{name}" for name in imported if name not in used]
    return unused


def unused_parameters() -> list[str]:
    """module:function.parameter for each parameter, other than self,
    that its function's body never reads."""
    unused = []
    for f in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(f.read_text(), str(f))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
            read = {
                n.id
                for stmt in fn.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unused += [
                f"{f.name}:{fn.name}.{p.arg}"
                for p in params
                if p.arg != "self" and p.arg not in read
            ]
    return unused


def _supplied(call: ast.Call, params: list[str]) -> set[str] | None:
    """The parameters a call passes, or None if it passes *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return None
    return {*params[: len(call.args)], *(k.arg for k in call.keywords)}


def unused_defaults() -> list[str]:
    """module:function.parameter for each default of a function or method
    that every call in the package supplies.  A call names a module-level
    function by its name, a method by its attribute name and a class's
    __init__ by the class name.  Functions in mvsl.__all__ keep their
    defaults."""
    trees = {f.name: ast.parse(f.read_text(), str(f)) for f in sorted(PACKAGE.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                calls.setdefault(name, []).append(n)
    unused = []
    for mod, tree in trees.items():
        # (label, name its calls use, definition, leading self parameters)
        defs = [(fn.name, fn.name, fn, 0) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [
            (f"{c.name}.{fn.name}", c.name if fn.name == "__init__" else fn.name, fn, 1)
            for c in tree.body
            if isinstance(c, ast.ClassDef)
            for fn in c.body
            if isinstance(fn, ast.FunctionDef)
        ]
        for label, name, fn, skip in defs:
            if fn.name in EXEMPT:
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args)][skip:]
            defaulted = params[len(params) - len(a.defaults) :]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            passed = [_supplied(c, params) for c in calls.get(name, [])]
            if passed and None not in passed:
                unused += [f"{mod}:{label}.{p}" for p in defaulted if all(p in s for s in passed)]
    return unused


def test_every_module_level_name_is_used_in_the_package():
    assert unused_names() == []


def test_every_import_is_used_in_its_module():
    assert unused_imports() == []


def test_every_parameter_is_used():
    assert unused_parameters() == []


def test_every_default_is_used():
    assert unused_defaults() == []
