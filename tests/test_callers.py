"""Every top-level function and class of the package has a caller.

A caller is an AST reference in ``src/``, ``scripts/`` or ``perfbench/``
outside the name's own definition: a name, an attribute, an import alias or
a string constant (a dotted string counts for each of its parts).  The
package ``__init__`` does not count, and neither do the tests.
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


def uncalled(root: Path) -> list[str]:
    """``module.name`` of every definition without a caller under root."""
    package = root / "src" / "vegpatch"
    called = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path == package / "__init__.py":
                continue
            for stmt in ast.parse(path.read_text()).body:
                refs = _referenced(stmt)
                if (path.parent == package and isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef))):
                    # a definition's references to itself are not callers
                    refs.discard(stmt.name)
                called |= refs
    return [f"{path.stem}.{name}" for path, name in _definitions(package)
            if name not in called and name not in ALLOWED]


def test_every_package_name_has_a_non_test_caller():
    assert uncalled(ROOT) == []
