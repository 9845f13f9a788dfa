"""The runtime stays pure standard library: every import under src/fibsemi is
either of fibsemi itself or of a standard-library module.  Every module also
parses as Python 3.10, the oldest version pyproject.toml admits.  The CLI
loads no standard-library module it has no use for, and no module imports a
name it never reads.  The package's public names are its modules' ``__all__``
lists, stated once."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def unused_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` imports but neither reads nor lists in ``__all__``.
    ``from __future__`` and ``*`` imports bind no name to read."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names
                         if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in getattr(node.value, "elts", ())
                         if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read | exported]


def test_every_import_is_used():
    for path in sorted(PACKAGE.glob("*.py")):
        assert unused_imports(ast.parse(path.read_text(), str(path))) == [], path.name


@pytest.mark.parametrize("source, unused", [
    ("from itertools import chain\n", ["chain"]),
    ("import os.path\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from a import b\nb = 1\n", ["b"]),  # rebinding is not reading
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\nfrom a import *\n", []),
    ("from . import m\ndef f(x: m.T): pass\n", []),
])
def test_unused_imports_finds_what_is_never_read(source, unused):
    assert unused_imports(ast.parse(source)) == unused


# Loaded by none of these runs: dataclasses pulls in inspect, json only
# escapes a JSON string cell (verify's skip texts), and csv is never loaded:
# the CLI writes CSV and JSON itself.  signal wraps _signal, which start-up
# loads, in enums; the fork reads _signal.  typing comes in with some site .pth
# files, hence -S.
UNUSED = ("dataclasses", "inspect", "typing", "json", "csv", "signal")


def loaded_after(*argvs: list[str]) -> list[str]:
    """Run ``fibsemi.cli.main`` on each argv in a fresh ``python -S`` and
    return which of UNUSED it left in ``sys.modules``, then "fork" once for
    each child it forked, as the last line of stderr, after the CLI's own."""
    code = (
        "import os, sys\n"
        "from fibsemi.cli import main\n"
        "forks = []\n"
        "if hasattr(os, 'fork'):\n"
        "    fork, os.fork = os.fork, lambda: forks.append(fork()) or forks[-1]\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "assert codes == [0] * len(codes), codes\n"
        f"loaded = [m for m in {UNUSED!r} if m in sys.modules]\n"
        "sys.stderr.write('\\n' + ' '.join(loaded + ['fork'] * len(forks)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stderr.rsplit("\n", 1)[-1].split()


def test_the_cli_loads_no_module_it_does_not_use():
    # every command writes CSV and JSON's layout itself
    assert loaded_after(["table", "0", "40", "--format", "csv"],
                        ["apery", "8", "--format", "csv"],
                        ["verify", "6"],
                        ["table", "0", "40", "--format", "json"],
                        ["apery", "8", "--format", "json"],
                        *([command, *args, "--format", fmt]
                          for command, *args in (["info", "3"], ["semigroup", "6", "9", "20"],
                                                 ["verify", "6"])
                          for fmt in ("csv", "json"))) == []


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@pytest.mark.skipif(not hasattr(os, "fork") or usable_cpus() < 2,
                    reason="the CLI forks only with two CPUs usable")
def test_forking_loads_no_module_it_does_not_use():
    assert loaded_after(["apery", "22", "--format", "csv"]) == ["fork"]
    # verify proves the Zeckendorf bijection at each a in its own process
    assert loaded_after(["verify", "24"]) == []


def test_json_is_loaded_to_write_json():
    # a = 3 needs 4 cells, so its row skips the oracle with a string
    assert loaded_after(["verify", "3", "--oracle-bound", "1", "--format", "json"]) == ["json"]


def test_csv_is_not_loaded_to_write_csv():
    # the same skip string as a CSV cell loads neither csv nor json
    assert loaded_after(["verify", "3", "--oracle-bound", "1", "--format", "csv"],
                        ["info", "3", "--format", "csv"]) == []


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
