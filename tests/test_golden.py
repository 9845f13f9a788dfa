"""Byte-for-byte CLI output against snapshots committed under ``golden/``.

Each snapshot was written by the CLI before the refactor it guards; any
change to them is a change of output schema.  Verify's per-parameter and
total timings vary from run to run, so they are stripped before comparing.
"""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from fibsemi.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, snapshot", [
    ("table 0 60 --format csv", "table_0_60.csv"),
    ("apery 12 --format csv", "apery_12.csv"),
    ("apery 12", "apery_12.txt"),
    ("apery 12 --format json", "apery_12.json"),
    ("info 90 --format json", "info_90.json"),
    ("semigroup 6 9 20 --format json", "semigroup_6_9_20.json"),
    ("verify 20", "verify_20.txt"),
    ("verify 20 --format json", "verify_20.json"),
    ("verify 20 --format csv", "verify_20.csv"),
])
def test_output_matches_snapshot(capsys, argv, snapshot):
    assert main(argv.split()) == EXIT_OK
    out = re.sub(r" \d+ms$", "", capsys.readouterr().out, flags=re.M)
    assert out == (GOLDEN / snapshot).read_text()
