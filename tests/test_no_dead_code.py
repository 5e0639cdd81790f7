"""Every module-level name in the package is used somewhere in the package.

A function, class or constant defined at the top level of a module in
src/mvsl must be referenced somewhere in src/mvsl outside its own
definition: code that only its own tests use is deleted, not kept.  The
public API (mvsl.__all__), dunder names and the console script `entry`
are exempt.  Likewise every name a module imports must be referenced in
that module; `__init__.py`, which re-exports the API, is exempt.
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


def test_every_module_level_name_is_used_in_the_package():
    assert unused_names() == []


def test_every_import_is_used_in_its_module():
    assert unused_imports() == []
