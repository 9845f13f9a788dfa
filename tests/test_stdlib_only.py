"""The runtime stays pure standard library: every import under src/fibsemi is
either of fibsemi itself or of a standard-library module.  Every module also
parses as Python 3.10, the oldest version pyproject.toml admits.  The CLI
loads no standard-library module it has no use for.  The package's public
names are its modules' ``__all__`` lists, stated once."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import fibsemi
from fibsemi import fib_family, fibonacci, semigroup_core

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


# Loaded by none of these runs: dataclasses pulls in inspect, json is only
# for the JSON output of info, semigroup and verify, and csv only for their CSV
# output.  typing comes in with some site .pth files, hence -S.
UNUSED = ("dataclasses", "inspect", "typing", "json", "csv")


def loaded_after(*argvs: list[str]) -> list[str]:
    """Run ``fibsemi.cli.main`` on each argv in a fresh ``python -S`` and
    return which of UNUSED it left in ``sys.modules``."""
    code = (
        "import sys\n"
        "from fibsemi.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "assert codes == [0] * len(codes), codes\n"
        f"sys.stderr.write(' '.join(m for m in {UNUSED!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stderr.split()


def test_the_cli_loads_no_module_it_does_not_use():
    assert loaded_after(["table", "0", "40", "--format", "csv"],
                        ["apery", "8", "--format", "csv"],
                        ["verify", "6"],
                        # both write JSON's layout by hand
                        ["table", "0", "40", "--format", "json"],
                        ["apery", "8", "--format", "json"]) == []


def test_json_is_loaded_to_write_json():
    assert loaded_after(["info", "3", "--format", "json"]) == ["json"]


def test_csv_is_loaded_to_write_csv():
    assert loaded_after(["info", "3", "--format", "csv"]) == ["csv"]


MODULES = (fibonacci, semigroup_core, fib_family)


def test_the_package_exports_its_modules_all():
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert getattr(fibsemi, name) is getattr(module, name), name
    assert fibsemi.__all__ == [*fibonacci.__all__, *semigroup_core.__all__,
                               *fib_family.__all__, "__version__"]
    namespace: dict = {}
    exec("from fibsemi import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fibsemi.__all__)
