"""Repository hygiene: every public top-level name and every public method in the
package has a caller in the package or the benchmark, every defaulted parameter
is set by some caller and takes more than one value over its calls, no function
assigns a local name it never reads, and no module imports a name it never
reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tractorlab"
CALLERS = [ROOT / "src", ROOT / "tractorbench"]
# public names with no caller in the package or the benchmark, each with the
# reason it stays
UNCALLED_KEPT = {
    "sin": "expr._JET_FUNCTIONS maps the expression function sin to this method by name",
    "cos": "expr._JET_FUNCTIONS maps the expression function cos to this method by name",
}


def _registered_check(node):
    """True for a function registered with the suites' `@check(...)` decorator."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "check"
               for d in getattr(node, "decorator_list", ()))


def _public_definitions():
    """(module path, name, first line, last line) of each public top-level def and
    class, and of each public method of a top-level class (dunders are private)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*functions, ast.ClassDef)) or _registered_check(node):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *(m for m in members if isinstance(m, functions))]:
                if not d.name.startswith("_"):
                    yield path, d.name, d.lineno, d.end_lineno


MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _references(path):
    """(name, line, module) of each code reference in a file: a name read, an
    attribute, or an imported name; words in comments and assignments do not
    count, and words in strings count only in the benchmark, which patches
    methods by name.  An attribute of a package module, such as `expr.coord`,
    refers to that module's definition only, and its module is the module's
    name; every other reference has the module None."""
    by_name = path.is_relative_to(ROOT / "tractorbench")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, node.lineno, base if base in MODULES else None
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, None
        elif by_name and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, None


def test_every_public_definition_has_a_caller():
    """A public name that only tests call is test code: it belongs in the tests."""
    refs = {path: list(_references(path))
            for root in CALLERS for path in sorted(root.rglob("*.py"))}
    uncalled = []
    for module, name, first, last in _public_definitions():
        if name not in UNCALLED_KEPT and not any(
                ref == name and owner in (None, module.stem)
                and not (path == module and first <= line <= last)
                for path, found in refs.items() for ref, line, owner in found):
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


# defaulted parameters that no call sets, each with the reason it stays an option
UNSET_OPTIONS_KEPT = {
    ("check_signature", "samples"): "safety code; a test draws a second sample set with it",
    ("check_signature", "seed"): "safety code; a test draws a second sample set with it",
    ("section_derivative", "order"): "the D^2 phi = Omega phi test differentiates D phi "
                                     "once more, so it needs D phi at order 1",
}


def _defaulted_parameters():
    """(module path, line, callee name, parameter, positional index or None, default
    node) of each defaulted parameter of a package top-level function or class
    method.  A method is called by its own name, and `__init__` by its class's
    name; the positional index does not count `self` or `cls`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                defs = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                defs = [(node.name if m.name == "__init__" else m.name, m,
                         0 if any(getattr(d, "id", None) == "staticmethod"
                                  for d in m.decorator_list) else 1)
                        for m in node.body if isinstance(m, functions)]
            else:
                continue
            for name, fn, bound in defs:
                args = fn.args
                positional = (args.posonlyargs + args.args)[bound:]
                first = len(positional) - len(args.defaults)
                for i, (p, default) in enumerate(zip(positional[first:], args.defaults), first):
                    yield path, fn.lineno, name, p.arg, i, default
                for p, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield path, fn.lineno, name, p.arg, None, default


def _calls():
    """name -> calls of that name in the callers' code.  A call `TABLE[key](...)`
    through a module-level dict of functions counts as a call of each of them."""
    by_name = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            tables = {t.id: [v.id for v in node.value.values if isinstance(v, ast.Name)]
                      for node in tree.body if isinstance(node, ast.Assign)
                      and isinstance(node.value, ast.Dict)
                      for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    names = [f.id]
                elif isinstance(f, ast.Attribute):
                    names = [f.attr]
                elif isinstance(f, ast.Subscript) and isinstance(f.value, ast.Name):
                    names = tables.get(f.value.id, [])
                else:
                    names = []
                for name in names:
                    by_name.setdefault(name, []).append(node)
    return by_name


def _sets(call, param, index):
    """True if the call sets the parameter: by keyword, by `**kwargs`, by enough
    positional arguments, or by a `*args` that may reach it."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_option_is_set_by_some_caller():
    """A defaulted parameter that no call in the package or the benchmark sets is
    a fixed value spelled as an option: it belongs inside the function."""
    calls = _calls()
    unset = [f"{path.name}:{line} {name}({param})"
             for path, line, name, param, index, _ in _defaulted_parameters()
             if (name, param) not in UNSET_OPTIONS_KEPT
             and not any(_sets(c, param, index) for c in calls.get(name, []))]
    assert not unset, "options no caller sets: " + ", ".join(unset)


UNKNOWN = object()  # the value of an argument that is not a literal


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return UNKNOWN


def _value(call, param, index, default):
    """The value a call gives the parameter: its literal argument, the default when
    the call leaves it out, or UNKNOWN when any other expression may set it."""
    if any(k.arg is None for k in call.keywords) or any(isinstance(a, ast.Starred)
                                                         for a in call.args):
        return UNKNOWN
    for k in call.keywords:
        if k.arg == param:
            return _literal(k.value)
    if index is not None and len(call.args) > index:
        return _literal(call.args[index])
    return _literal(default)


def test_no_option_takes_one_value_at_every_call():
    """A defaulted parameter that every call in the package or the benchmark either
    sets to the same literal or leaves at its default is a fixed value spelled as
    an option, even when some call spells the value out."""
    calls = _calls()
    fixed = []
    for path, line, name, param, index, default in _defaulted_parameters():
        found = calls.get(name, [])
        if not any(_sets(c, param, index) for c in found):
            continue  # an option no call sets is the test above's
        values = [_value(c, param, index, default) for c in found]
        if all(v is not UNKNOWN and v == values[0] for v in values):
            fixed.append(f"{path.name}:{line} {name}({param}): always {values[0]!r}")
    assert not fixed, "options every call sets to one value: " + ", ".join(fixed)
