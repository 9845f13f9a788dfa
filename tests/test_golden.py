"""Byte-for-byte CLI output against snapshots committed under ``golden/``.

Each snapshot was written by the CLI before the refactor it guards; any
change to them is a change of output schema.  Outputs too long to commit are
pinned by the sha256 of their stdout (``golden/*.sha256``, one
``<digest>  <argv>`` line each).  Verify's per-parameter and
total timings vary from run to run, so they are stripped before comparing.
"""
from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from fibsemi import fib_family
from fibsemi.cli import EXIT_OK, main
from fibsemi.semigroup_core import NumericalSemigroup

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, snapshot", [
    ("table 0 60", "table_0_60.txt"),
    ("table 0 60 --format csv", "table_0_60.csv"),
    ("table 0 60 --format json", "table_0_60.json"),
    ("apery 12 --format csv", "apery_12.csv"),
    ("apery 12", "apery_12.txt"),
    ("apery 12 --format json", "apery_12.json"),
    ("info 7", "info_7.txt"),
    ("info 7 --format csv", "info_7.csv"),
    ("info 90 --format json", "info_90.json"),
    ("semigroup 6 9 20 --format json", "semigroup_6_9_20.json"),
    ("verify 20", "verify_20.txt"),
    ("verify 20 --format json", "verify_20.json"),
    ("verify 20 --format csv", "verify_20.csv"),
    ("verify 25 --format csv", "verify_25.csv"),
    ("verify 26 --oracle-bound 1 --table-bound 1 --format csv", "verify_26_bounded.csv"),
])
def test_output_matches_snapshot(capsys, argv, snapshot):
    assert main(argv.split()) == EXIT_OK
    out = re.sub(r" \d+ms$", "", capsys.readouterr().out, flags=re.M)
    assert out == (GOLDEN / snapshot).read_text()


def _digests() -> list[tuple[str, str]]:
    lines = (GOLDEN / "apery.sha256").read_text().splitlines()
    return [tuple(line.split("  ", 1)) for line in lines]


@pytest.mark.parametrize("digest, argv", _digests())
def test_output_matches_digest(capsys, digest, argv):
    # apery 22 has 17,711 rows and apery 31 1,346,269: beta's memo grows
    # through 19 and 28 split steps
    assert main(argv.split()) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_builds_no_apery_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a per-residue Apery table")

    monkeypatch.setattr(fib_family, "family_apery", refuse)
    monkeypatch.setattr(NumericalSemigroup, "apery", refuse)
    assert main(["verify", "20"]) == EXIT_OK
    out = re.sub(r" \d+ms$", "", capsys.readouterr().out, flags=re.M)
    assert out == (GOLDEN / "verify_20.txt").read_text()


@pytest.mark.parametrize("fmt, snapshot", [
    ("text", "table_0_60.txt"),
    ("csv", "table_0_60.csv"),
    ("json", "table_0_60.json"),
])
def test_table_builds_no_generators(capsys, monkeypatch, fmt, snapshot):
    def refuse(a):
        raise AssertionError(f"table built the generators of a = {a}")

    monkeypatch.setattr(fib_family, "family_generators", refuse)
    assert main(["table", "0", "60", "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / snapshot).read_text()
