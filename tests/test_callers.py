"""Every top-level function and class of the package has a caller, and every
defaulted parameter of a package function or method has a caller that sets
it.

A caller is an AST reference in ``src/``, ``scripts/`` or ``perfbench/``
outside the name's own definition: a name, an attribute, an import alias or
a string constant (a dotted string counts for each of its parts).  The
package ``__init__`` does not count, and neither do the tests.  A call sets
a parameter when it passes it by keyword or passes at least that many
positional arguments (a starred argument passes them all); calls match
definitions by name, and a class's calls count for its ``__init__``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")
# the dense oracle that the tests check the stability flag against
ALLOWED = {"rightmost_eigenvalue_dense"}


def _definitions(package: Path):
    """(module path, name) of every top-level def and class."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield path, node.name


def _referenced(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def _caller_files(root: Path):
    package = root / "src" / "vegpatch"
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path != package / "__init__.py":
                yield path, ast.parse(path.read_text())


def uncalled(root: Path) -> list[str]:
    """``module.name`` of every definition without a caller under root."""
    package = root / "src" / "vegpatch"
    called = set()
    for path, tree in _caller_files(root):
        for stmt in tree.body:
            refs = _referenced(stmt)
            if (path.parent == package and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef))):
                # a definition's references to itself are not callers
                refs.discard(stmt.name)
            called |= refs
    return [f"{path.stem}.{name}" for path, name in _definitions(package)
            if name not in called and name not in ALLOWED]


def _defaulted(package: Path):
    """(label, callee, parameter, positional index or None) of every
    parameter with a default, in top-level functions and in methods."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs = [(f, node.name + ".", True) for f in node.body
                        if isinstance(f, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs = [(node, "", False)]
            else:
                continue
            for f, owner, method in defs:
                callee = node.name if f.name == "__init__" else f.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in f.decorator_list)
                bound = int(method and not static)   # self or cls
                a = f.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                named = [(arg, i - bound) for i, arg in
                         enumerate(positional[first:], first)]
                named += [(arg, None) for arg, default in
                          zip(a.kwonlyargs, a.kw_defaults)
                          if default is not None]
                for arg, index in named:
                    yield (f"{path.stem}.{owner}{f.name}({arg.arg})", callee,
                           arg.arg, index)


def unset_defaults(root: Path) -> list[str]:
    """``module.function(parameter)`` of every defaulted parameter that no
    call under root sets."""
    keywords, positional = {}, {}
    for _, tree in _caller_files(root):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg)
            count = (float("inf") if any(isinstance(a, ast.Starred)
                                         for a in node.args)
                     else len(node.args))
            positional[name] = max(positional.get(name, 0), count)
    return [label for label, callee, param, index
            in _defaulted(root / "src" / "vegpatch")
            if param not in keywords.get(callee, ())
            and not (index is not None and index < positional.get(callee, 0))]


def test_every_package_name_has_a_non_test_caller():
    assert uncalled(ROOT) == []


def test_every_defaulted_parameter_has_a_non_test_setter():
    assert unset_defaults(ROOT) == []
