"""Repository hygiene: every public top-level name in the package has a caller,
no function assigns a local name it never reads, and no module imports a name
it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tractorlab"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "tractorbench"]


def _registered_check(node):
    """True for a function registered with the suites' `@check(...)` decorator."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "check"
               for d in getattr(node, "decorator_list", ()))


def _public_definitions():
    """(module path, name, first line, last line) of each public top-level def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not _registered_check(node)):
                yield path, node.name, node.lineno, node.end_lineno


def _references(path):
    """(name, line) of each code reference in a file: a name read, an attribute,
    or an imported name; words in strings, comments and assignments do not count."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_every_public_definition_has_a_caller():
    this = Path(__file__).resolve()
    refs = {path: list(_references(path))
            for root in SEARCHED for path in sorted(root.rglob("*.py")) if path != this}
    uncalled = []
    for module, name, first, last in _public_definitions():
        if not any(ref == name and not (path == module and first <= line <= last)
                   for path, found in refs.items() for ref, line in found):
            uncalled.append(f"{module.name}:{first} {name}")
    assert not uncalled, "public names with no caller: " + ", ".join(uncalled)


def _own_scope(fn):
    """Nodes of a function body, not descending into nested functions or classes."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _unused_locals(tree):
    """(function, name, line) of each local name a function assigns but never reads.

    Reads in nested functions count, and so do `nonlocal`/`global` declarations;
    names starting with `_` are exempt.
    """
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        for node in _own_scope(fn):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and not node.id.startswith("_")):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                read.update(node.names)
        yield from ((fn.name, name, line) for name, line in sorted(stored.items()) if name not in read)


def test_no_function_assigns_a_local_it_never_reads():
    unused = [f"{path.relative_to(ROOT)}:{line} {fn}: {name}"
              for root in (PACKAGE, ROOT / "tests") for path in sorted(root.rglob("*.py"))
              for fn, name, line in _unused_locals(ast.parse(path.read_text()))]
    assert not unused, "locals assigned but never read: " + ", ".join(unused)


def _unused_imports(tree):
    """(name, line) of each name a module imports but never reads.

    `from __future__` imports are exempt; an attribute chain such as
    `np.linalg` reads its base name.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for root in (PACKAGE, ROOT / "tests") for path in sorted(root.rglob("*.py"))
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, "imports never read: " + ", ".join(unused)
