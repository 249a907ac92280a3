"""Source rules checked on the package's syntax trees: numpy is the only
runtime dependency (every module imports only the standard library, numpy
and sflsim itself), the package's modules import one another without a
cycle, no module reads another module's ``_``-prefixed name, and no
module holds an ``assert`` statement, so no self-check vanishes under
``python -O``, and no module reads the environment, so every setting is a
config key or a flag."""

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
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sources}


def _package_imports(tree):
    """Names a module imports from within the package: the first part below
    ``sflsim`` of an import, and the names a ``from`` import takes. Names
    that are not modules are for the caller to drop."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root, _, rest = alias.name.partition(".")
                if root == "sflsim" and rest:
                    yield rest.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                root, _, module = module.partition(".")
                if root != "sflsim":
                    continue
            yield module.partition(".")[0]
            yield from (alias.name for alias in node.names)


def _private(name):
    """A ``_``-prefixed name that is not a dunder such as ``__version__``."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree):
    """(line, name) of each read of a sibling module's private name: an
    attribute of a module bound by ``from . import m`` (as the package
    imports its modules), or a name taken by ``from .m import _name``."""
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and not node.module
               for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            yield from ((node.lineno, f"{node.module}.{alias.name}")
                        for alias in node.names if _private(alias.name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def _import_cycle(graph):
    """One import cycle of a {module: imported modules} graph, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for dep in sorted(graph[name]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_package_imports_only_stdlib_and_numpy():
    foreign = {
        f"{name}: {root}"
        for name, tree in _trees().items()
        for root in _imported_roots(tree)
        if root not in ALLOWED
    }
    assert not foreign, f"imports outside the standard library and numpy: {sorted(foreign)}"


def test_package_import_graph_is_acyclic():
    trees = {name[:-3]: tree for name, tree in _trees().items() if name != "__init__.py"}
    graph = {name: set(_package_imports(tree)) & set(trees) for name, tree in trees.items()}
    assert graph["runtime"] >= {"diagnostics", "kernel"}, graph  # the walk sees the package's imports
    cycle = _import_cycle(graph)
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"


def test_no_module_reads_another_modules_private_names():
    found = [f"{name}:{line} {what}"
             for name, tree in _trees().items()
             for line, what in _private_reads(tree)]
    assert not found, f"private names read across modules: {found}"


def test_package_has_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """Lines that read the process environment: ``os.environ``-style
    attributes and ``from os import environ``-style imports."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ENVIRONMENT_READERS):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (node.lineno for alias in node.names
                        if alias.name in ENVIRONMENT_READERS)


def test_package_reads_no_environment_variable():
    found = [f"{name}:{line}"
             for name, tree in _trees().items()
             for line in _environment_reads(tree)]
    assert not found, f"environment reads (use a config key or a flag): {found}"
