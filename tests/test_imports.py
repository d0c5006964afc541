"""Every name a package module imports is referenced in that module.

Stdlib ``ast`` only: an import left behind when the code that used it
goes fails here instead of waiting for a reader to notice it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zeroone"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
