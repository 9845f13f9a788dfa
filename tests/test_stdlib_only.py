"""The runtime stays pure standard library: every import under src/fibsemi is
either of fibsemi itself or of a standard-library module.  Every module also
parses as Python 3.10, the oldest version pyproject.toml admits."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import fibsemi

PACKAGE = Path(fibsemi.__file__).parent


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module  # level > 0 is relative, so inside fibsemi


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        for name in imported_modules(tree):
            top = name.split(".")[0]
            assert top == "fibsemi" or top in sys.stdlib_module_names, (path.name, name)
