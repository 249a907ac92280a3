"""Source rules checked on the package's syntax trees: numpy is the only
runtime dependency (every module imports only the standard library, numpy
and sflsim itself), and no module holds an ``assert`` statement, so no
self-check vanishes under ``python -O``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import sflsim

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sflsim"}


def _imported_roots(tree):
    """Top-level package names a module imports; relative imports are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "sflsim" if node.level else node.module.partition(".")[0]


def _trees():
    sources = sorted(Path(sflsim.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}


def test_package_imports_only_stdlib_and_numpy():
    foreign = {
        f"{name}: {root}"
        for name, tree in _trees().items()
        for root in _imported_roots(tree)
        if root not in ALLOWED
    }
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"


def test_package_has_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"
