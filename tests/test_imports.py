"""Every name a package module imports is referenced in that module, and
every top-level private name and private method is referenced somewhere in
the package.

Stdlib ``ast`` only: an import or a helper left behind when the code that
used it goes fails here instead of waiting for a reader to notice it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zeroone"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """Map each name bound by an import statement to its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree):
    """Names loaded anywhere in the module; an attribute chain such as
    ``np.linalg.norm`` loads its root name."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def private_definitions(tree):
    """Top-level ``_name`` functions, classes and constants, and the
    ``_name`` methods and attributes of top-level classes, with their line
    numbers."""
    names = {}
    members = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    for node in tree.body + members:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        names.update({n: node.lineno for n in targets
                      if n.startswith("_") and not n.startswith("__")})
    return names


def used_names(tree):
    """Names a module loads, reads as an attribute (``admm._run_admm``) or
    imports from another module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detects_a_leftover_import():
    tree = ast.parse("from collections import OrderedDict\n"
                     "import os\n"
                     "def f():\n    return os.sep\n")
    names = imported_names(tree)
    assert set(names) - referenced_names(tree) == {"OrderedDict"}


def test_no_orphaned_private_name():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in PACKAGE}
    used = set().union(*map(used_names, trees.values()))
    orphans = {f"{name}:{n}": line for name, tree in trees.items()
               for n, line in private_definitions(tree).items() if n not in used}
    assert not orphans, f"private names referenced nowhere in the package: {orphans}"


def test_detects_an_orphaned_helper():
    tree = ast.parse("_LIMIT = 3\n_unused = 0\n"
                     "def _helper():\n    return _LIMIT\n"
                     "def _orphan():\n    return _helper()\n"
                     "class _Gone:\n    pass\n"
                     "class Kept:\n"
                     "    def _used(self):\n        return 1\n"
                     "    def _left(self):\n        return self._used()\n")
    assert set(private_definitions(tree)) - used_names(tree) == {
        "_unused", "_orphan", "_Gone", "_left"}


def test_all_lists_every_package_import():
    # a name the package imports but does not export, or exports but no
    # longer imports, is a half-done addition or deletion
    import zeroone

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(zeroone.__all__) == sorted({*imported_names(tree), "__version__"})
