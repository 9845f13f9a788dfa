"""The runtime stays pure standard library: every import under src/fibsemi is
either of fibsemi itself or of a standard-library module.  Every module also
parses as Python 3.10, the oldest version pyproject.toml admits.  The CLI
loads no standard-library module it has no use for, and no module imports a
name it never reads.  Every public function and every public method of a
public class is read somewhere in the package outside its own body, so
nothing public in src is there for the tests alone.  The package's public
names are its modules' ``__all__`` lists, stated once."""
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


def unread_public_functions(trees: dict[str, ast.Module]) -> list[str]:
    """The module-level public functions, and the public methods of public
    classes, that no tree reads outside their own body as a ``Name`` or an
    ``Attribute`` load, as ``module.function`` or ``module.Class.method``.
    A read is matched by its name alone, of whatever object."""
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [(f"{module}.{node.name}.{meth.name}", meth) for meth in node.body
                         if isinstance(meth, ast.FunctionDef)
                         and not meth.name.startswith("_")]
    loads = [(node, node.id if isinstance(node, ast.Name) else node.attr)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    unread = []
    for label, node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if not any(name == node.name and id(load) not in inside for load, name in loads):
            unread.append(label)
    return unread


def test_every_public_function_has_a_reader_in_src():
    # A read is matched by name, so a method is hidden by any field or
    # attribute of the same name: NumericalSemigroup.embedding_dimension(),
    # which only the tests called, passed this check, because the records'
    # embedding_dimension fields are read.
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_functions(trees) == []


@pytest.mark.parametrize("source, unread", [
    ("def f(): pass\n", ["m.f"]),
    ("def f(): pass\nf()\n", []),
    ("def f(): f()\n", ["m.f"]),  # its own body is no reader
    ("def f(): pass\nf = 1\n", ["m.f"]),  # rebinding is not reading
    ("def f(): pass\n__all__ = ['f']\n", ["m.f"]),  # nor is exporting
    ("def _f(): pass\n", []),
    ("class C:\n def g(self): pass\n", ["m.C.g"]),
    ("class C:\n def g(self): pass\nC().g()\n", []),
    ("class C:\n def __init__(self): pass\n def g(self): self.g\n", ["m.C.g"]),
    ("class _C:\n def g(self): pass\n", []),
], ids=["unread", "called", "recursive", "rebound", "exported", "private",
        "method", "method-called", "method-self", "private-class"])
def test_unread_public_functions_finds_what_src_never_reads(source, unread):
    assert unread_public_functions({"m": ast.parse(source)}) == unread


# Loaded by none of these runs: dataclasses pulls in inspect, json only
# escapes a JSON string cell (verify's skip texts), and csv is never loaded:
# the CLI writes CSV and JSON itself.  signal wraps _signal, which start-up
# loads, in enums.  typing comes in with some site .pth files, hence -S.
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


def test_forking_loads_no_module_it_does_not_use():
    # apery and verify each run in one process: "fork" would follow any child
    assert loaded_after(["apery", "22", "--format", "csv"]) == []
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
