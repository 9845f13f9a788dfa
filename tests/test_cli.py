"""Command-line behavior: formats, exit codes, bounds, and verification sweeps."""
from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsemi import cli, fib_family
from fibsemi.cli import (
    EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main,
)
from fibsemi.fibonacci import beta, fib
from fibsemi.semigroup_core import NumericalSemigroup


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- info ---------------------------------------------------------------------

def test_info_text_contains_report(capsys):
    code, out, _ = run(capsys, "info", "7")
    assert code == EXIT_OK
    assert "13 14 15 16 18 21" in out
    assert "38" in out and "20" in out


def test_info_json_exact(capsys):
    code, out, _ = run(capsys, "info", "7", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "a": 7, "m": 13, "e": 6, "frobenius": 38, "genus": 20,
        "n": 19, "wilf_slack": 75, "generators": [13, 14, 15, 16, 18, 21],
    }


def test_info_csv_exact(capsys):
    code, out, _ = run(capsys, "info", "7", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "m", "e", "frobenius", "genus", "n",
                       "wilf_slack", "generators"]
    assert rows[1] == ["7", "13", "6", "38", "20", "19", "75",
                       "13 14 15 16 18 21"]


def test_info_trivial_parameter(capsys):
    code, out, _ = run(capsys, "info", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["frobenius"] == -1


def test_info_large_parameter_exact_decimal(capsys):
    from fibsemi.fibonacci import fib
    code, out, _ = run(capsys, "info", "90", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["frobenius"] == 44 * fib(90) - 1
    assert str(44 * fib(90) - 1) in out  # full decimal, no float collapse
    assert "e+" not in out and "E+" not in out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_info_prints_integers_past_the_digit_limit(capsys):
    from fibsemi.fibonacci import fib
    original = sys.get_int_max_str_digits()
    frobenius = str(1549 * fib(3100) - 1)  # f_3100 has 648 digits
    try:
        sys.set_int_max_str_digits(640)
        for fmt in ("text", "csv", "json"):
            code, out, err = run(capsys, "info", "3100", "--format", fmt)
            assert code == EXIT_OK, err
            assert frobenius in out
            assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(original)


def test_info_rejects_negative(capsys):
    # a bound flag is a usage error where the subcommand would ignore it
    for argv in (["info", "-3"], ["info", "3", "--oracle-bound", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


# -- apery ----------------------------------------------------------------------

def test_apery_csv_rows(capsys):
    code, out, _ = run(capsys, "apery", "7", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "beta", "w"]
    assert len(rows) == 14
    assert rows[13] == ["12", "3", "51"]
    assert rows[5] == ["4", "2", "30"]


def test_apery_small_parameter(capsys):
    code, out, _ = run(capsys, "apery", "3", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [
        {"x": 0, "beta": 0, "w": 0},
        {"x": 1, "beta": 1, "w": 3},
    ]


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_apery_memory_is_the_table(monkeypatch, fmt):
    # rows are written a block at a time, so rendering adds one block to the table
    fib_family.fib(22)  # warm the Fibonacci memo: count only the table
    tracemalloc.start()
    try:
        fib_family.family_apery(22)
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            assert main(["apery", "22", "--format", fmt]) == EXIT_OK
            monkeypatch.undo()
        cli_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cli_peak <= 2 * table_peak, (cli_peak, table_peak)


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def _apery_stdout(monkeypatch, *argv) -> _CountingStdout:
    out = _CountingStdout()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", out)
        assert main(["apery", *argv]) == EXIT_OK
    return out


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_apery_block_edges(monkeypatch, fmt):
    # apery 10 has 55 rows: blocks of 1, 2, 54, 55 and 56 rows leave a short
    # last block, none, or one block holding the whole table
    whole = _apery_stdout(monkeypatch, "10", "--format", fmt).getvalue()
    if fmt == "json":
        assert json.loads(whole) == [
            {"x": x, "beta": beta(x), "w": w}
            for x, w in enumerate(fib_family.family_apery(10).w)
        ]
    for size in (1, 2, 54, 55, 56):
        monkeypatch.setattr(cli, "APERY_BLOCK_ROWS", size)
        assert _apery_stdout(monkeypatch, "10", "--format", fmt).getvalue() == whole, size


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_apery_writes_per_block(monkeypatch, fmt):
    out = _apery_stdout(monkeypatch, "22", "--format", fmt)
    blocks = -(-fib(22) // cli.APERY_BLOCK_ROWS)  # 17,711 rows
    assert out.writes <= blocks + 2  # plus a head and a tail


def test_apery_resource_limit_exit(capsys):
    code, _, err = run(capsys, "apery", "40")
    assert code == EXIT_RESOURCE
    assert "TableTooLarge" in err
    assert "--table-bound" in err


def test_apery_bound_flag_is_effective(capsys):
    code, _, err = run(capsys, "apery", "17", "--table-bound", "1000")
    assert code == EXIT_RESOURCE
    assert "1597" in err  # fib(17)
    code, out, _ = run(capsys, "apery", "17", "--table-bound", "2000",
                       "--format", "csv")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1598  # header plus fib(17) = 1597 rows
    with pytest.raises(SystemExit) as exc:
        main(["apery", "3", "--table-bound", "0"])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[-1]) == (
        "", "fibsemi apery: error: argument --table-bound: value must be positive")


def test_apery_refuses_a_huge_index_in_one_short_line(capsys):
    # f_1000000 has 208,988 digits; the refusal neither computes nor prints it
    code, out, err = run(capsys, "apery", "1000000")
    assert code == EXIT_RESOURCE
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("TableTooLarge: Apery table needs f_1000000 ")
    assert lines[0].endswith(" above the bound 1000000")
    assert all(len(line) < 200 for line in lines), lines


def _no_beta(x):
    raise AssertionError(f"beta({x}) computed for a table that is refused")


def test_apery_refuses_a_table_past_physical_memory(capsys, monkeypatch):
    # f_60 = 1,548,008,755,920 entries of 40 B each: about 62 TB
    monkeypatch.setattr(fib_family, "beta", _no_beta)
    monkeypatch.setattr(cli, "beta", _no_beta)
    code, out, err = run(capsys, "apery", "60", "--table-bound", "1000000000000000")
    assert code == EXIT_RESOURCE
    assert out == ""
    # one line, and no hint to raise --table-bound: a larger bound cannot help
    assert err.startswith("ResourceLimit: Apery table of f_60 = 1548008755920 entries "
                          "needs 61920350236800 bytes, over the ")
    assert err.endswith(" bytes of physical memory\n")
    assert len(err.splitlines()) == 1


def test_apery_refuses_a_default_bound_table_past_a_small_memory(capsys, monkeypatch):
    sizes = {"SC_PHYS_PAGES": 100, "SC_PAGE_SIZE": 4096}  # 409,600 bytes
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    monkeypatch.setattr(fib_family, "beta", _no_beta)
    monkeypatch.setattr(cli, "beta", _no_beta)
    code, out, err = run(capsys, "apery", "22")  # 17,711 entries: 708,440 bytes
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == ("ResourceLimit: Apery table of f_22 = 17711 entries needs 708440 "
                   "bytes, over the 409600 bytes of physical memory\n")


def test_verify_ignores_physical_memory(capsys, monkeypatch):
    # verify reads the closed-form bitset, family_apery_bitset, never the table
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 1}.__getitem__)
    code, out, _ = run(capsys, "verify", "20", "--format", "csv")
    assert code == EXIT_OK
    assert out == (GOLDEN / "verify_20.csv").read_text()


# -- table ------------------------------------------------------------------------

def test_table_csv_schema_and_values(capsys):
    code, out, _ = run(capsys, "table", "3", "7", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "a,m,e,frobenius,genus,n,wilf_slack"
    assert len(lines) == 6
    assert lines[-1] == "7,13,6,38,20,19,75"


def test_table_single_row(capsys):
    code, out, _ = run(capsys, "table", "5", "5", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["a"] == 5
    assert payload[0]["frobenius"] == 9


def test_table_genus_strictly_increasing(capsys):
    code, out, _ = run(capsys, "table", "3", "60", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 58
    genus = [rec["genus"] for rec in payload]
    assert all(b > a for a, b in zip(genus, genus[1:]))


def test_table_invalid_range(capsys, monkeypatch):
    code, _, err = run(capsys, "table", "9", "3")
    assert code == EXIT_USAGE
    assert "InvalidRange" in err
    # without a stderr the refusal is dropped, not written to stdout
    monkeypatch.setattr(sys, "stderr", None)
    code = main(["table", "5", "3"])
    monkeypatch.undo()
    assert (code, capsys.readouterr()) == (EXIT_USAGE, ("", ""))


def test_table_csv_json_value_parity(capsys):
    code, csv_out, _ = run(capsys, "table", "3", "12", "--format", "csv")
    assert code == EXIT_OK
    code, json_out, _ = run(capsys, "table", "3", "12", "--format", "json")
    assert code == EXIT_OK
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    json_rows = json.loads(json_out)
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert {k: int(v) for k, v in c.items()} == j


def _library_cell(value) -> str:
    """A CSV cell as the CLI rendered it before it wrote CSV itself, for
    csv.writer to quote: bools as true and false, lists joined by spaces."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


# no \r: Python 3.13's csv quotes a lone \r, and 3.10 to 3.12 do not
_strings = st.text(st.one_of(st.sampled_from(',"\n '),
                             st.characters(exclude_characters="\r")))
_values = st.one_of(st.integers(), st.booleans(), st.lists(st.integers()),
                    st.lists(_strings), _strings)
# two fields at least: csv.writer quotes a row of one empty field as ""
_fields = st.lists(st.sampled_from(["a", "m", "gaps", "skipped", "wilf_holds"]),
                   min_size=2, unique=True).map(tuple)


@given(_fields.flatmap(lambda fields: st.tuples(st.just(fields), st.lists(
    st.tuples(*[_values] * len(fields)).map(lambda cells: dict(zip(fields, cells))),
    min_size=1))))
@settings(max_examples=200, deadline=None)
def test_rows_write_what_csv_and_json_write(fields_rows):
    # the CLI's templates against the library writers, over a list of rows and
    # over a lone record
    fields, rows = fields_rows
    for fmt, records, pad, lone in [("csv", rows, 4, False), ("json", rows, 4, False),
                                    ("csv", rows[:1], 2, True), ("json", rows[0], 2, True)]:
        head, row, sep, tail = cli._rows(fmt, fields, "%s", lone)
        got = head + sep.join(row % tuple(cli._cell(fmt, r[k], pad) for k in fields)
                              for r in ([records] if lone and fmt == "json" else records))
        want = io.StringIO()
        if fmt == "csv":
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(fields)
            writer.writerows([_library_cell(r[k]) for k in fields] for r in records)
        else:
            json.dump(records, want, indent=2)
            want.write("\n")
        assert got + tail == want.getvalue()


def _table_peak(*argv) -> int:
    """tracemalloc's peak over one ``table`` run written to the null device."""
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
            assert main(["table", *argv]) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_table_memory_is_one_row(fmt):
    # rows are written as they are computed, so 3,001 rows cost what 11 do
    fib(3000)  # warm the Fibonacci memo: count only the rows
    _table_peak("0", "0")  # and what argparse imports on first use
    whole = _table_peak("0", "3000", "--format", fmt)
    last = _table_peak("2990", "3000", "--format", fmt)
    assert whole <= 2 * last, (whole, last)


class _PipeClosedAfterOneWrite(io.StringIO):
    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_table_stops_computing_at_a_closed_pipe(capsys, monkeypatch, fmt):
    # each row is written before the next is computed; text first computes the
    # a_min and a_max rows, which size its columns.  verify writes each a's row
    # as soon as that a is checked, in every format
    asked, checked = [], []
    summary, verify_one = fib_family.family_summary, cli._verify_one
    monkeypatch.setattr(fib_family, "family_summary", lambda a: asked.append(a) or summary(a))
    monkeypatch.setattr(cli, "_verify_one",
                        lambda a, *rest: checked.append(a) or verify_one(a, *rest))
    for argv in (["table", "0", "5000"], ["verify", "5000"]):
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", _PipeClosedAfterOneWrite())
            code = main([*argv, "--format", fmt])
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err == "fibsemi: cannot write output: [Errno 32] Broken pipe\n"
        if argv[0] == "table":
            assert len(asked) <= (3 if fmt == "text" else 2), len(asked)
    assert checked == [3, 4]


@given(st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_table_text_widths_from_the_end_rows_are_a_full_pass(a_min, a_max):
    # every column is nondecreasing in a, so its widest cell is in an end row
    a_min, a_max = sorted((a_min, a_max))
    rows = [cli._table_values(fib_family.family_summary(a)) for a in range(a_min, a_max + 1)]
    widths = [max(len(str(v)) for v in (k, *column))
              for k, column in zip(cli.TABLE_FIELDS, zip(*rows))]
    full_pass = "".join("  ".join(str(v).rjust(w) for v, w in zip(row, widths)) + "\n"
                        for row in [cli.TABLE_FIELDS, *rows])
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["table", str(a_min), str(a_max)]) == EXIT_OK
    assert out.getvalue() == full_pass


# -- verify -----------------------------------------------------------------------

def test_verify_sweep_passes(capsys):
    code, out, _ = run(capsys, "verify", "16")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith("a=")]
    assert len(lines) == 14
    assert all(" ok" in l for l in lines)


def test_verify_single_parameter(capsys):
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("a=3")


def _budget_skip(m: int, cells: int) -> str:
    return (f"oracle (membership table: no run of {m} consecutive elements "
            f"within the {cells}-cell budget)")


def test_verify_oracle_bound_cuts_over(capsys):
    code, out, _ = run(capsys, "verify", "13", "--oracle-bound", "1000")
    assert code == EXIT_OK
    by_a = {l.split()[0]: l for l in out.splitlines() if l.startswith("a=")}
    assert "skipped" not in by_a["a=12"]  # F + m + 1 = 719 + 144 + 1 = 864 cells
    assert _budget_skip(233, 1000) in by_a["a=13"]  # 1397 + 233 + 1 = 1631 cells


def test_verify_oracle_bound_is_the_cell_budget(capsys):
    # a = 9 needs F + m + 1 = 135 + 34 + 1 = 170 cells
    code, out, _ = run(capsys, "verify", "9", "--oracle-bound", "170", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)[-1]["skipped"] == []
    code, out, _ = run(capsys, "verify", "9", "--oracle-bound", "169", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)[-1]["skipped"] == [_budget_skip(34, 169)]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "3", "--oracle-bound", "0"])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[-1]) == (
        "", "fibsemi verify: error: argument --oracle-bound: value must be positive")


def test_verify_table_bound_is_f_a(capsys):
    # f_10 = 55 residues; only a = 10 has more than 54, and its Zeckendorf
    # bijection onto them goes with its bitset
    code, out, _ = run(capsys, "verify", "10", "--table-bound", "54")
    assert code == EXIT_OK
    skipped = [l for l in out.splitlines() if "skipped" in l]
    assert len(skipped) == 1
    assert skipped[0].startswith("a=10 m=55 ok skipped[zeckendorf-bijection, apery-table] ")
    code, out, _ = run(capsys, "verify", "10", "--table-bound", "55")
    assert code == EXIT_OK
    assert "skipped" not in out


def test_verify_default_oracle_budget_names_itself():
    # one parameter only: verify 31 would first run the oracle for every a <= 29
    args = cli.build_parser().parse_args(["verify", "31", "--table-bound", "1"])
    outcome = cli._verify_one(31, args)
    assert outcome.failures == []
    assert outcome.skipped == ["zeckendorf-bijection", "apery-table",
                               _budget_skip(1346269, 10_000_000)]


def test_verify_csv_records(capsys):
    code, out, _ = run(capsys, "verify", "10", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert all(r["verified"] == "true" for r in rows)
    assert rows[-1]["frobenius"] == "219"  # floor(9/2) * 55 - 1


def test_verify_json_records(capsys):
    code, out, _ = run(capsys, "verify", "10", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [r["a"] for r in payload] == list(range(3, 11))
    assert all(r["verified"] is True for r in payload)


def test_verify_machine_formats_report_skipped_checks(capsys):
    code, out, _ = run(capsys, "verify", "12", "--oracle-bound", "100",
                       "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0])[-2:] == ["verified", "skipped"]
    # a = 8 needs 62 + 21 + 1 = 84 cells, a = 9 needs 170
    skips = [_budget_skip(m, 100) for m in (34, 55, 89, 144)]
    assert [r["skipped"] for r in rows] == [""] * 6 + skips
    code, out, _ = run(capsys, "verify", "12", "--oracle-bound", "100",
                       "--format", "json")
    assert code == EXIT_OK
    assert [r["skipped"] for r in json.loads(out)] == [[]] * 6 + [[s] for s in skips]


def test_verify_reports_the_skipped_bijection_check(capsys, monkeypatch):
    # the Zeckendorf bijection is checked up to the bound's a, f_25 = 75,025
    bounded = ("verify", "26", "--oracle-bound", "1", "--table-bound", "75025")
    code, out, _ = run(capsys, *bounded, "--format", "csv")
    assert code == EXIT_OK
    rows = {int(r["a"]): r["skipped"].split("; ") for r in csv.DictReader(io.StringIO(out))}
    assert rows[26] == ["zeckendorf-bijection", "apery-table", _budget_skip(121393, 1)]
    assert not any("zeckendorf-bijection" in rows[a] for a in range(3, 26))
    # the bound, not the proof, skips it: even a proof passing everywhere skips a = 26
    monkeypatch.setattr(fib_family, "zeckendorf_bijection_check", lambda a: True)
    code, out, _ = run(capsys, *bounded, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)[-1]["skipped"][0] == "zeckendorf-bijection"
    code, out, _ = run(capsys, *bounded)
    assert code == EXIT_OK
    assert "skipped[zeckendorf-bijection, " in out.splitlines()[-2]


def _skips(fmt: str, out: str) -> dict[int, list[str]]:
    """Each a's skipped checks in ``verify``'s output in ``fmt``."""
    if fmt == "json":
        return {r["a"]: r["skipped"] for r in json.loads(out)}
    if fmt == "csv":
        return {int(r["a"]): r["skipped"].split("; ") if r["skipped"] else []
                for r in csv.DictReader(io.StringIO(out))}
    lines = [re.fullmatch(r"a=(\d+) m=\d+ \w+(?: skipped\[(.*)\])? \d+ms", line)
             for line in out.splitlines()[:-1]]
    return {int(m[1]): m[2].split(", ") if m[2] else [] for m in lines}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("bound", [54, 55, 88, 89, 143, 144])
def test_verify_skips_the_bijection_exactly_where_the_bitset(capsys, fmt, bound):
    # f_10, f_11, f_12 = 55, 89, 144: the bijection is proved at each a whose
    # family bitset --table-bound admits, and skipped with it at each other a
    code, out, _ = run(capsys, "verify", "12", "--table-bound", str(bound),
                       "--format", fmt)
    assert code == EXIT_OK
    skips = _skips(fmt, out)
    assert list(skips) == list(range(3, 13))
    assert skips == {a: ["zeckendorf-bijection", "apery-table"] if fib(a) > bound else []
                     for a in skips}


def test_verify_checks_the_bijection_up_to_a_30_at_the_defaults(capsys):
    # f_30 = 832,040 is within the default bound of 1,000,000; f_31 is not
    code, out, _ = run(capsys, "verify", "30", "--format", "csv")
    assert code == EXIT_OK
    skips = _skips("csv", out)
    assert list(skips) == list(range(3, 31))
    assert not any("zeckendorf-bijection" in s for s in skips.values())


def test_verify_proves_the_bijection_up_to_a_32_past_the_default_bound(capsys):
    # f_32 = 2,178,309: a bound raised to it proves a = 31 and 32 too, each
    # in milliseconds; the oracle is skipped throughout
    code, out, _ = run(capsys, "verify", "32", "--oracle-bound", "1",
                       "--table-bound", "2178309", "--format", "csv")
    assert code == EXIT_OK
    skips = _skips("csv", out)
    assert list(skips) == list(range(3, 33))
    assert not any("zeckendorf-bijection" in s for s in skips.values())


def _without_ms(out: str) -> str:
    """``verify``'s text with each a's timing, which varies, stripped."""
    return re.sub(r" \d+ms$", "", out, flags=re.M)


def _golden_lines(snapshot: str, count: int) -> str:
    return "".join((GOLDEN / snapshot).read_text().splitlines(keepends=True)[:count])


def _logged_proofs(monkeypatch) -> list[int]:
    """The a of each Zeckendorf bijection proof, in the order they are made."""
    made, real = [], fib_family.zeckendorf_bijection_check

    def check(a):
        made.append(a)
        return real(a)

    monkeypatch.setattr(fib_family, "zeckendorf_bijection_check", check)
    return made


def _misread_in_proofs(monkeypatch, at, read) -> None:
    """The bijection proof at each a in ``at`` reads f_j as ``read(j)``, as a
    faulty proof would; every other a and every other check reads ``fib``."""
    real = fib_family.zeckendorf_bijection_check

    def check(a):
        if a not in at:
            return real(a)
        with monkeypatch.context() as m:
            m.setattr(fib_family, "fib", read)
            return real(a)

    monkeypatch.setattr(fib_family, "zeckendorf_bijection_check", check)


def test_verify_proves_each_admitted_a_once(capsys, monkeypatch):
    # the bijection at a is one proof over [0, f_a): each admitted a is
    # proved once
    made = _logged_proofs(monkeypatch)
    code, _, _ = run(capsys, "verify", "24")
    assert code == EXIT_OK
    assert made == list(range(3, 25))
    # --table-bound stops the proofs where it stops the bitsets: f_10 = 55 <= 88 < f_11
    made.clear()
    code, _, _ = run(capsys, "verify", "12", "--table-bound", "88")
    assert code == EXIT_OK
    assert made == list(range(3, 11))


def test_verify_proves_every_a_after_a_failure(capsys, monkeypatch):
    # the proof at a = 5 misreads f_2 as 2; every later a is still proved,
    # once, and passes, since no a reads another's proof
    _misread_in_proofs(monkeypatch, {5}, lambda i: 2 if i == 2 else fib(i))
    made = _logged_proofs(monkeypatch)
    code, out, _ = run(capsys, "verify", "12", "--oracle-bound", "1")
    assert code == EXIT_MISMATCH
    assert out.count("  mismatch: zeckendorf-bijection\n") == 1
    assert "a=5 m=5 FAIL " in out
    assert made == list(range(3, 13))


def test_verify_proof_raising_mid_sweep_is_one_internal_error(capsys, monkeypatch):
    # the proof at a = 9 of verify 12 raises, and its raising is one internal error
    def broken(i):
        raise RuntimeError(f"the proof at 9 broke at f_{i}")

    _misread_in_proofs(monkeypatch, {9}, broken)
    code, out, err = run(capsys, "verify", "12")
    assert code == EXIT_INTERNAL
    # the rows of a = 3..8, written as each a was checked
    assert _without_ms(out) == _golden_lines("verify_20.txt", 6)
    assert err == "fibsemi: internal error: RuntimeError: the proof at 9 broke at f_9\n"


def test_verify_out_of_memory_mid_sweep_keeps_the_rows_written(capsys, monkeypatch):
    real = NumericalSemigroup.summary

    def summary(self):
        if len(self.generators) == 10:  # a = 11
            raise MemoryError
        return real(self)

    monkeypatch.setattr(NumericalSemigroup, "summary", summary)
    code, out, err = run(capsys, "verify", "20")
    assert code == EXIT_RESOURCE
    assert (_without_ms(out), err) == (_golden_lines("verify_20.txt", 8),
                                       "fibsemi: out of memory\n")  # a = 3..10


# -- apery in one process ---------------------------------------------------------

def _no_process(*_args):
    raise AssertionError("fibsemi made a pipe or a process")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test: none, since apery
    and verify render in the process that runs them."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture(params=["forked", "in-process"])
def fork_or_not(request, monkeypatch, forks):
    """Whether a process may be forked: "forked" leaves ``os.fork`` to be
    called, "in-process" has it and ``os.pipe`` raise.  The output is the same."""
    if request.param == "in-process":
        monkeypatch.setattr(os, "fork", _no_process)
        monkeypatch.setattr(os, "pipe", _no_process)
    return request.param


def _logged_apery_calls(monkeypatch) -> list[int]:
    """The pid of the process making each ``family_apery`` call."""
    made, real = [], fib_family.family_apery

    def family_apery(*args, **kwargs):
        made.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(fib_family, "family_apery", family_apery)
    return made


def test_no_process_means_no_child_and_no_pipe(capsys, monkeypatch):
    # every pinned apery and verify run, with no pipe or process to be had:
    # apery builds its one table with one family_apery call
    monkeypatch.setattr(os, "fork", _no_process, raising=False)
    monkeypatch.setattr(os, "pipe", _no_process)
    made = _logged_apery_calls(monkeypatch)
    for name in ("apery.sha256", "verify.sha256"):
        for line in (GOLDEN / name).read_text().splitlines():
            digest, argv = line.split("  ", 1)
            made.clear()
            code, out, _ = run(capsys, *argv.split())
            assert code == EXIT_OK, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
            assert len(made) == (1 if argv.startswith("apery") else 0), argv


def _emfile():
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.mark.parametrize("argv, snapshot", [
    ("apery 12 --format json", "apery_12.json"),
    ("apery 12 --format csv", "apery_12.csv"),
])
def test_no_pipe_means_no_child(capsys, monkeypatch, forks, argv, snapshot):
    # a process out of descriptors renders every block, as every process does
    monkeypatch.setattr(cli, "APERY_BLOCK_ROWS", 16)
    monkeypatch.setattr(os, "pipe", _emfile)
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (EXIT_OK, (GOLDEN / snapshot).read_text(), "")
    assert forks == []


@pytest.mark.parametrize("fmt, snapshot", [
    ("csv", "apery_12.csv"), ("text", "apery_12.txt"), ("json", "apery_12.json"),
])
@pytest.mark.parametrize("size", [16, 100, 256])
def test_apery_output_is_the_same_forked_or_not(capsys, monkeypatch, fork_or_not, forks,
                                                fmt, snapshot, size):
    # apery 12 has 144 rows: nine or two blocks of 16 or 100 rows, or one of 256
    monkeypatch.setattr(cli, "APERY_BLOCK_ROWS", size)
    code, out, err = run(capsys, "apery", "12", "--format", fmt)
    assert (code, out, err) == (EXIT_OK, (GOLDEN / snapshot).read_text(), "")
    assert forks == []
    _no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_apery_past_the_break_even_is_the_same_forked_or_not(capsys, monkeypatch,
                                                             forks, fmt):
    # apery 25 is past a = 22, where apery once forked a child on two CPUs:
    # with a process to be had or not, it renders the same rows itself
    outputs = []
    for forkable in (True, False):
        if not forkable:
            monkeypatch.setattr(os, "fork", _no_process)
            monkeypatch.setattr(os, "pipe", _no_process)
        code, out, err = run(capsys, "apery", "25", "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == {"csv": 1 + fib(25), "text": fib(25),
                                            "json": 2 + 5 * fib(25)}[fmt]
    assert forks == []
    _no_child_left()


def test_apery_forks_only_for_a_share_past_the_break_even(capsys, monkeypatch, forks):
    # a = 22 was the break even of the fork: on either side of it, one
    # process renders every row
    for a in (21, 22, 23):
        code, out, err = run(capsys, "apery", str(a), "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert len(out.splitlines()) == 1 + fib(a)
    assert forks == []
    _no_child_left()


def test_apery_forks_where_the_parent_did(monkeypatch, forks):
    # no a up to 30 forks, where the rule this replaced forked from the
    # child's 8,751 rows at apery 22 on; each run is one family_apery call.
    # Memory is not reported, so no table is refused for it
    made = _logged_apery_calls(monkeypatch)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 0, "SC_PAGE_SIZE": 1}.__getitem__)
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", null)
        for a in range(31):
            assert main(["apery", str(a), "--format", "csv",
                         "--table-bound", str(fib(30))]) == EXIT_OK
    assert made == [os.getpid()] * 31
    assert forks == []
    _no_child_left()


@pytest.mark.parametrize("argv", ["apery 40", "apery 60 --table-bound 1000000000000000"])
def test_apery_refuses_before_it_forks(capsys, monkeypatch, forks, argv):
    # past the bound, and past physical memory: refused before any table is
    # built, no row written
    made = _logged_apery_calls(monkeypatch)
    code, out, _ = run(capsys, *argv.split())
    assert (code, out) == (EXIT_RESOURCE, "")
    assert made == [os.getpid()]
    assert forks == []
    _no_child_left()


def test_apery_forks_only_where_two_tables_fit(capsys, monkeypatch, forks):
    # one table is all apery holds: with room for it but not for a second,
    # every row is rendered.  Memory not reported, as 0 pages, refuses nothing
    argv = "apery 25 --format json"
    digest, = (line.split("  ")[0] for line in (GOLDEN / "apery.sha256").read_text().splitlines()
               if line.endswith("  " + argv))
    table = fib(25) * fib_family.APERY_ENTRY_BYTES
    for pages in (table, 2 * table - 1, 2 * table, 0):
        sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert forks == []
    _no_child_left()


def test_apery_forks_before_either_process_builds_its_table(capsys, monkeypatch,
                                                            fork_or_not, forks):
    # one process builds the table it renders, with one family_apery call
    monkeypatch.setattr(cli, "APERY_BLOCK_ROWS", 16)
    made = _logged_apery_calls(monkeypatch)
    code, out, err = run(capsys, "apery", "12", "--format", "csv")
    assert (code, out, err) == (EXIT_OK, (GOLDEN / "apery_12.csv").read_text(), "")
    assert made == [os.getpid()]
    assert forks == []


def test_apery_child_out_of_memory_for_its_table_changes_no_byte(capsys, monkeypatch, forks):
    # the table is built before any row is written: out of memory for it,
    # apery writes nothing and builds no second table
    monkeypatch.setattr(cli, "APERY_BLOCK_ROWS", 16)
    made = []

    def family_apery(*args, **kwargs):
        made.append(args)
        raise MemoryError

    monkeypatch.setattr(fib_family, "family_apery", family_apery)
    code, out, err = run(capsys, "apery", "12")
    assert (code, out, err) == (EXIT_RESOURCE, "", "fibsemi: out of memory\n")
    assert len(made) == 1
    assert forks == []
    _no_child_left()


def test_apery_render_raising_in_the_childs_block_is_one_internal_error(
        capsys, monkeypatch, fork_or_not, forks):
    monkeypatch.setattr(cli, "APERY_BLOCK_ROWS", 16)
    real = cli.beta

    def broken(x):
        if x == 20:  # block 1, rows 16..31, which a forked child once rendered
            raise RuntimeError("render broke at 20")
        return real(x)

    monkeypatch.setattr(cli, "beta", broken)
    code, out, err = run(capsys, "apery", "12", "--format", "csv")
    assert code == EXIT_INTERNAL
    # the header and block 0 were written before block 1 was rendered
    assert out == "".join((GOLDEN / "apery_12.csv").read_text().splitlines(True)[:17])
    assert err == "fibsemi: internal error: RuntimeError: render broke at 20\n"
    assert forks == []
    _no_child_left()


def test_verify_bad_key_fails_exactly_the_proofs_that_read_it(capsys, monkeypatch):
    # every proof misreads f_7 = 13 as 14: the proof at 7 reads it as f_a,
    # each proof above as a shift, and no proof below 7 reads it
    _misread_in_proofs(monkeypatch, range(3, 13), lambda i: 14 if i == 7 else fib(i))
    code, out, _ = run(capsys, "verify", "12", "--oracle-bound", "1")
    assert code == EXIT_MISMATCH
    failed = {int(line.split()[0][2:]) for line in out.splitlines() if " FAIL" in line}
    assert failed == set(range(7, 13))
    assert out.count("  mismatch:") == out.count("  mismatch: zeckendorf-bijection\n") == 6
    # one parameter proves the bijection at a alone
    args = cli.build_parser().parse_args(["verify", "10", "--oracle-bound", "1"])
    assert [cli._verify_one(a, args).failures for a in (6, 7)] == [[], ["zeckendorf-bijection"]]


def _mismatches(out: str) -> list[str]:
    return [line.strip() for line in out.splitlines() if line.startswith("  mismatch:")]


def test_verify_catches_one_flipped_bit_in_the_family_bitset(capsys, monkeypatch):
    real = fib_family.family_apery_bitset
    # bit 1 is clear in every family bitset (w(1) = f_a + 1), and not its top bit
    monkeypatch.setattr(fib_family, "family_apery_bitset",
                        lambda a, **kw: real(a, **kw) ^ 1 << 1)
    code, out, _ = run(capsys, "verify", "10")
    assert code == EXIT_MISMATCH
    assert _mismatches(out) == ["mismatch: oracle-apery-table"] * 8


def test_verify_catches_w0_moved_up_by_f_a(capsys, monkeypatch):
    real = fib_family.family_apery_bitset
    # w(0) moves from 0 to f_a, one window up; the top bit stays
    monkeypatch.setattr(fib_family, "family_apery_bitset",
                        lambda a, **kw: real(a, **kw) ^ 1 ^ 1 << fib(a))
    # the genus is read off the family bitset, so it fails without the oracle
    code, out, _ = run(capsys, "verify", "10", "--oracle-bound", "1")
    assert code == EXIT_MISMATCH
    assert _mismatches(out) == ["mismatch: apery-beta-sum-genus"] * 8
    code, out, _ = run(capsys, "verify", "10")
    assert code == EXIT_MISMATCH
    assert _mismatches(out) == ["mismatch: apery-beta-sum-genus",
                                "mismatch: oracle-apery-table"] * 8


def test_verify_checks_the_wilf_slack_form(capsys, monkeypatch):
    real = fib_family.family_summary
    monkeypatch.setattr(fib_family, "family_summary",
                        lambda a: real(a)._replace(wilf_slack=real(a).wilf_slack + 1))
    # still nonnegative, and the oracle's slack is not compared: only the form fails
    code, out, _ = run(capsys, "verify", "10")
    assert code == EXIT_MISMATCH
    assert _mismatches(out) == ["mismatch: wilf-slack-form"] * 8


def test_verify_catches_a_shifted_kaplansky_count(capsys, monkeypatch):
    def shifted(n: int, m: int) -> int:  # comb(n - 1 - m, m) -> comb(n - m, m)
        if n < 2 or m < 0:
            raise ValueError("guards kept")
        if m == 0:
            return 1
        if 2 * m > n - 1:
            return 0
        return comb(n - m, m)

    monkeypatch.setattr(fib_family, "kaplansky_count", shifted)
    code, out, _ = run(capsys, "verify", "10")
    assert code == EXIT_MISMATCH
    assert {"mismatch: genus-binomial-sum", "mismatch: zeckendorf-bijection"} <= set(
        _mismatches(out))


def test_verify_detects_injected_fault(capsys, monkeypatch):
    real = fib_family.family_frobenius
    monkeypatch.setattr(fib_family, "family_frobenius", lambda a: real(a) + 1)
    code, out, _ = run(capsys, "verify", "10")
    assert code == EXIT_MISMATCH
    assert "mismatch" in out


def test_verify_checks_closed_form_e_and_m_against_the_generators(capsys, monkeypatch):
    real = fib_family.family_generators
    monkeypatch.setattr(fib_family, "family_generators", lambda a: real(a)[:-1])
    code, out, _ = run(capsys, "verify", "12", "--oracle-bound", "1")
    assert code == EXIT_MISMATCH
    failed = {line.split()[0] for line in out.splitlines()
              if line.startswith("a=") and " FAIL" in line}
    assert failed == {f"a={a}" for a in range(3, 13)}
    assert out.count("  mismatch: embedding-dimension\n") == 10


def test_verify_fault_visible_in_machine_formats(capsys, monkeypatch):
    real = fib_family.family_genus
    monkeypatch.setattr(fib_family, "family_genus", lambda a: real(a) + 1)
    code, out, err = run(capsys, "verify", "8", "--format", "json")
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    assert any(r["verified"] is False for r in payload)
    assert "mismatch" in err


# -- semigroup ----------------------------------------------------------------------

def test_semigroup_known_invariants(capsys):
    code, out, _ = run(capsys, "semigroup", "13", "14", "15", "16", "18", "21",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["frobenius"] == 38
    assert payload["genus"] == 20
    assert payload["minimal_generators"] == [13, 14, 15, 16, 18, 21]
    assert payload["wilf_holds"] is True
    assert len(payload["gaps"]) == 20
    assert payload["gaps"][-1] == 38


def test_semigroup_whole_naturals(capsys):
    code, out, _ = run(capsys, "semigroup", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["frobenius"] == -1
    assert payload["genus"] == 0
    assert payload["gaps"] == []


def test_semigroup_not_coprime(capsys):
    code, _, err = run(capsys, "semigroup", "4", "6")
    assert code == EXIT_USAGE
    assert "NotCoprime" in err


def test_semigroup_zero_generator(capsys):
    code, _, err = run(capsys, "semigroup", "0", "5")
    assert code == EXIT_USAGE
    assert "ZeroGenerator" in err


def test_semigroup_huge_generators_refused(capsys):
    code, _, err = run(capsys, "semigroup", "100000000000000000000",
                       "100000000000000000001")
    assert code == EXIT_RESOURCE
    assert "ResourceLimit" in err
    assert "Traceback" not in err


def test_semigroup_refused_before_any_apery_table(capsys, monkeypatch):
    pivots = []  # the pivots whose Apery bitset was built
    real = NumericalSemigroup.apery_bitset

    def spy(self, n):
        bits = real(self, n)
        pivots.append(n)
        return bits

    monkeypatch.setattr(NumericalSemigroup, "apery_bitset", spy)
    code, _, err = run(capsys, "semigroup", "1000003", "1000033")
    assert code == EXIT_RESOURCE
    assert "membership table" in err
    assert pivots == []


def test_semigroup_makes_one_oracle_pass(capsys, monkeypatch):
    # every generator is minimal, so a second pass would redo the whole
    # sumset over R for nothing
    calls = {"summary": 0, "minimal_generators": 0}
    for name in calls:
        real = getattr(NumericalSemigroup, name)

        def counted(self, real=real, name=name):
            calls[name] += 1
            return real(self)

        monkeypatch.setattr(NumericalSemigroup, name, counted)
    assert main(["semigroup", *map(str, range(1000, 1100))]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"summary": 1, "minimal_generators": 1}


def test_verify_oracle_breaking_its_own_identity_is_an_internal_error(capsys, monkeypatch):
    # g + n = F + 1 is the oracle's own identity: breaking it is a fault in
    # fibsemi, not a disagreement between the two routes
    real = NumericalSemigroup.n_count
    monkeypatch.setattr(NumericalSemigroup, "n_count", lambda self: real(self) + 1)
    code, _, err = run(capsys, "verify", "8")
    assert code == EXIT_INTERNAL
    assert err == ("fibsemi: internal error: AssertionError: "
                   "genus + n(S) must equal F(S) + 1\n")


def test_semigroup_text_report(capsys):
    code, out, _ = run(capsys, "semigroup", "6", "9", "20")
    assert code == EXIT_OK
    assert "43" in out  # frobenius
    assert "wilf_holds" in out and "true" in out


# -- plumbing ----------------------------------------------------------------------

def test_cli_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "fibsemi", "info", "5", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["frobenius"] == 9


def test_round_trip_is_identity(capsys):
    # parse -> format of every emitted value is the identity
    code, out, _ = run(capsys, "table", "3", "30", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    for line in lines[1:]:
        for cell in line.split(","):
            assert str(int(cell)) == cell


def test_closed_pipe_exits_with_resource_code():
    proc = subprocess.Popen([sys.executable, "-m", "fibsemi", "apery", "22", "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "x,beta,w\n"
    proc.stdout.close()  # the ~250 kB table cannot all fit in the pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_RESOURCE
    assert err.splitlines() == ["fibsemi: cannot write output: [Errno 32] Broken pipe"]


def test_unwritable_stdout_exits_with_resource_code(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["info", "5", "--format", "json"])
    monkeypatch.undo()
    assert code == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "fibsemi: cannot write output: [Errno 28] No space left on device\n")


def test_closed_stdout_descriptor_exits_with_resource_code(capsys, monkeypatch):
    # Python started with descriptor 1 closed leaves sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    code = main(["verify", "3", "--format", "csv"])
    monkeypatch.undo()
    assert code == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "fibsemi: cannot write output: [Errno 9] standard output is closed\n")

    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "fibsemi", "apery", "12"],
        stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stderr == "fibsemi: cannot write output: [Errno 9] standard output is closed\n"


@pytest.mark.parametrize("argv", [
    "verify 12 --format csv", "verify 12 --format json", "semigroup 4 6",
    "apery 40", "frob",
])
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_unwritable_stderr_changes_neither_stdout_nor_exit_code(argv):
    # a buffered stdout, as users get it: PYTHONUNBUFFERED hides the lost output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def run_with(stderr):
        return subprocess.run(
            ["sh", "-c", f'exec "$@" {stderr}', "sh", sys.executable, "-m", "fibsemi",
             *argv.split()],
            stdout=subprocess.PIPE, env=env,
        )

    expected = run_with("2>/dev/null")
    for stderr in ("2>&-", "2>/dev/full"):
        proc = run_with(stderr)
        assert (proc.returncode, proc.stdout) == (expected.returncode, expected.stdout), stderr


def _full(*_):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [["--help"], ["apery", "-h"]])
def test_unwritable_help_exits_with_resource_code(capsys, monkeypatch, argv, failing):
    # argparse itself drops a failed write and exits 0
    monkeypatch.setattr(sys, "stdout", type("Full", (io.StringIO,), {failing: _full})())
    code = main(argv)
    monkeypatch.undo()
    assert code == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "fibsemi: cannot write output: [Errno 28] No space left on device\n")


def _no_memory(*_args, **_kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv, owner, name", [
    (["info", "7"], fib_family, "family_summary"),
    (["table", "0", "5"], fib_family, "family_summary"),
    (["verify", "5"], fib_family, "family_summary"),
    (["apery", "7"], fib_family, "family_apery"),
    (["semigroup", "6", "9", "20"], NumericalSemigroup, "n_count"),
], ids=["info", "table", "verify", "apery", "semigroup"])
def test_out_of_memory_exits_with_resource_code(capsys, monkeypatch, argv, owner, name):
    monkeypatch.setattr(owner, name, _no_memory)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_RESOURCE
    assert err == "fibsemi: out of memory\n"


def test_out_of_memory_in_a_limited_child_exits_with_resource_code():
    # family_apery's 2,178,309 entries at a = 32, 87 MB, outgrow a 64 MB address
    # space, about three times what the interpreter needs to start and import
    # fibsemi (apery 30's 33 MB table fits); any machine holds them, so the
    # physical-memory refusal lets them through
    resource = pytest.importorskip("resource")
    limit = 64 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "fibsemi", "apery", "32",
         "--table-bound", "10000000", "--format", "csv"],
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stderr == "fibsemi: out of memory\n"


def test_internal_error_exits_with_its_own_code_and_one_line(capsys, monkeypatch):
    def broken(a):
        raise RuntimeError(f"closed form broke at {a}")

    monkeypatch.setattr(fib_family, "family_summary", broken)
    code, out, err = run(capsys, "info", "7")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == "fibsemi: internal error: RuntimeError: closed form broke at 7\n"


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: fibsemi")


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


_BAD = st.sampled_from(["-3", "x", "", "2.5", "--", "-h"])
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["info", "apery"]), st.integers(0, 18)),
    # past every --table-bound drawn below: exit 3 before f_a is computed
    st.tuples(st.just("apery"), st.integers(31, 10**9)),
    st.tuples(st.just("table"), st.integers(0, 18), st.integers(0, 18)),
    st.tuples(st.just("verify"), st.integers(0, 12)),
    st.lists(st.integers(1, 10**4), min_size=1, max_size=4).map(
        lambda gens: ("semigroup", *gens)),
)
_STRAY = st.one_of(
    st.tuples(st.just("--format"), st.sampled_from(["text", "csv", "json", "xml"])),
    st.tuples(st.sampled_from(["--table-bound", "--oracle-bound"]),
              st.sampled_from(["0", "1", "50", "1000000", "-1", "y"])),
    st.tuples(st.sampled_from(["--format", "--nope", "--parallel", "7"])),
)


@given(_COMMANDS, st.lists(_BAD, max_size=1), st.lists(_STRAY, max_size=2), st.randoms())
@settings(max_examples=60, deadline=None)
def test_exit_code_is_always_documented(command, bad, stray, rnd):
    argv = [str(t) for t in command]
    for token in bad:  # one positional swapped for a malformed token
        argv[rnd.randrange(1, len(argv))] = token
    argv += [t for flag in stray for t in flag]
    # a small budget keeps every `semigroup` allocation tiny; `verify` passes
    # its own --oracle-bound, and a <= 12 needs at most 864 cells
    small = partial(NumericalSemigroup, cell_limit=50_000)
    with mock.patch.object(cli, "NumericalSemigroup", small), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage error or --help
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE), argv
