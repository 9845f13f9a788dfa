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
    ("semigroup 1 --format json", "semigroup_1.json"),  # an empty gaps list
    ("verify 20", "verify_20.txt"),
    ("verify 20 --format json", "verify_20.json"),
    ("verify 20 --format csv", "verify_20.csv"),
    ("verify 25 --format csv", "verify_25.csv"),
    ("verify 26 --oracle-bound 1 --table-bound 1 --format csv", "verify_26_bounded.csv"),
    # no parameter to check: an empty JSON list, a CSV header alone
    ("verify 2 --format json", "verify_2.json"),
    ("verify 2 --format csv", "verify_2.csv"),
])
def test_output_matches_snapshot(capsys, argv, snapshot):
    assert main(argv.split()) == EXIT_OK
    out = re.sub(r" \d+ms$", "", capsys.readouterr().out, flags=re.M)
    assert out == (GOLDEN / snapshot).read_text()


def _digest_id(argv: str) -> str:
    """``argv`` with each run of four or more numbers cut to its two ends,
    so that a long generator list does not push the options that tell two
    cases apart to the end of a long id: ``semigroup 144 ... 1000 --format
    csv``."""
    return re.sub(r"\b(\d+)(?: \d+){2,} (\d+)\b", r"\1 ... \2", argv)


def _digests() -> list:
    """One case per ``<digest>  <argv>`` line, named by its argv, so that a
    regenerated digest changes the test's expectation and not its id."""
    lines = [line for path in sorted(GOLDEN.glob("*.sha256"))
             for line in path.read_text().splitlines()]
    params = [pytest.param(digest, argv, id=_digest_id(argv))
              for digest, argv in (line.split("  ", 1) for line in lines)]
    assert len({p.id for p in params}) == len(params), "two digests share an id"
    return params


@pytest.mark.parametrize("digest, argv", _digests())
def test_output_matches_digest(capsys, digest, argv):
    # apery 22 has 17,711 rows and apery 31 1,346,269: beta's memo grows
    # through 19 and 28 split steps.  table 0 3000's rows reach 633 digits.
    assert main(argv.split()) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_builds_no_apery_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a per-residue Apery table")

    monkeypatch.setattr(fib_family, "family_apery", refuse)
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
