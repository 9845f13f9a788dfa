"""The README's Library example runs as written, so a removed or renamed
public name fails the suite, and each of its lines whose comment starts with
a Python literal, such as ``# (38, 20)`` or ``# 30: ...``, returns that
literal.  A comment in prose only is not checked."""
from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _leading_literal(comment: str):
    """The longest Python literal that starts ``comment`` and ends it or is
    followed by ``:`` or ``,``, as ``(found, value)``; ``(False, None)`` if none."""
    for end in range(len(comment), 0, -1):
        if end < len(comment) and comment[end] not in ":,":
            continue
        try:
            return True, ast.literal_eval(comment[:end])
        except (ValueError, SyntaxError):
            continue
    return False, None


def test_library_example_runs():
    # statement by statement, so that each one the comment states a literal
    # for is evaluated and compared with it
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", library, flags=re.M | re.S)
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(blocks[0]).body:
        line = lines[stmt.end_lineno - 1]
        found, expected = _leading_literal(line.partition("#")[2].strip())
        if not found:
            exec(compile(ast.Module([stmt], []), f"{README}:Library", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), line
        got = eval(compile(ast.Expression(stmt.value), f"{README}:Library", "eval"), namespace)
        assert got == expected, line
        checked += 1
    assert checked == 10
