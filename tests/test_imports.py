"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy and sflsim itself."""

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


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(sflsim.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = {
        f"{path.name}: {root}"
        for path in sources
        for root in _imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root not in ALLOWED
    }
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"
