"""The README's Library example runs as written, so a removed or renamed
public name fails the suite."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", library, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})
