"""Repository hygiene: every public top-level name in the package has a caller."""

import ast
import re
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


def test_every_public_definition_has_a_caller():
    this = Path(__file__).resolve()
    sources = {path: path.read_text().splitlines()
               for root in SEARCHED for path in sorted(root.rglob("*.py")) if path != this}
    uncalled = []
    for module, name, first, last in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for path, lines in sources.items()
                   for i, line in enumerate(lines, 1)
                   if not (path == module and first <= i <= last)):
            uncalled.append(f"{module.name}:{first} {name}")
    assert not uncalled, "public names with no caller: " + ", ".join(uncalled)
