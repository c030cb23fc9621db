"""Package-wide rules that no single module's tests can see."""

from __future__ import annotations

import ast
from pathlib import Path

import loopwm

# The package runs on one thread in one process and talks to no network:
# no concurrency that does not pay for itself. A change that brings one back
# deletes this test on purpose and says why.
FORBIDDEN = {"threading", "socket", "http", "urllib", "concurrent", "multiprocessing", "asyncio"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_no_module_imports_threads_processes_or_networking():
    package = Path(loopwm.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(package.parent)}:{line} imports {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root in FORBIDDEN
    ]
    assert offenders == []
