"""Command-line front end.

Subcommands: ``info`` (one-parameter report), ``apery`` (residue table),
``table`` (range sweep), ``verify`` (closed forms against the brute-force
oracle), ``semigroup`` (invariants of an arbitrary coprime generator list).
Output is text, CSV, or JSON; every number is printed as an exact decimal
integer, never a float.

Exit codes: 0 success, 1 verification mismatch, 2 usage or validation error,
3 resource limit, out of memory, or an output stream that cannot be written
(closed pipe, full disk), 4 internal error (a fault in fibsemi itself,
reported as one stderr line rather than a traceback).
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from operator import attrgetter

from . import fib_family
from .fib_family import DEFAULT_TABLE_BOUND, FamilySummary, TableTooLarge
from .fibonacci import beta, fib
from .semigroup_core import (
    DEFAULT_CELL_LIMIT, NumericalSemigroup, ResourceLimit, SemigroupError, _window_sum,
)

__all__ = [
    "main",
    "build_parser",
    "InvalidRange",
    "EXIT_OK",
    "EXIT_MISMATCH",
    "EXIT_USAGE",
    "EXIT_RESOURCE",
    "EXIT_INTERNAL",
]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# Rows of the apery table rendered by one %-format and written by one write,
# so a run holds its table and one block.  Larger blocks render a little
# faster (apery 28 csv in process: 195 ms at 256 rows, 187 at 1024, 178 at
# 4096, medians of 15 runs), but at 4096 rows a JSON block nearly doubles
# the memory of apery 22's 17,711-entry table.
APERY_BLOCK_ROWS = 256

TABLE_FIELDS = ("a", "m", "e", "frobenius", "genus", "n", "wilf_slack")
# a FamilySummary's values in TABLE_FIELDS order
_table_values = attrgetter("a", "multiplicity", "embedding_dimension", "frobenius",
                           "genus", "n_count", "wilf_slack")


class InvalidRange(SemigroupError):
    """A range command received a_min > a_max."""


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse, except that help which cannot be written raises ``OSError``
    rather than being dropped, so ``main`` can exit 3 instead of 0, and that a
    usage error goes to stderr only, never to stdout in its place."""

    def print_help(self, file=None) -> None:
        file = file or sys.stdout
        if file is not None:  # no stdout at all is main's to report
            file.write(self.format_help())

    def error(self, message: str):
        _note(f"{self.format_usage()}{self.prog}: error: {message}")
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="output format (default: text)",
    )
    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument(
        "--table-bound", type=_positive, default=DEFAULT_TABLE_BOUND, metavar="N",
        help=f"largest f_a, the residue count, for apery's table and for verify's "
             f"closed-form bitset and Zeckendorf bijection (default {DEFAULT_TABLE_BOUND})",
    )

    parser = _Parser(
        prog="fibsemi",
        description="Numerical-semigroup invariants for Fibonacci-shift generator "
                    "families, with a brute-force cross-check oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[common],
                       help="closed-form invariants for one parameter")
    p.add_argument("a", type=_nonneg)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("apery", parents=[common, tables],
                       help="residue table (x, beta(x), w(x)) at the multiplicity")
    p.add_argument("a", type=_nonneg)
    p.set_defaults(func=cmd_apery)

    p = sub.add_parser("table", parents=[common],
                       help="one summary record per parameter in a range")
    p.add_argument("a_min", type=_nonneg)
    p.add_argument("a_max", type=_nonneg)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[common, tables],
                       help="check every closed form against the brute-force oracle")
    p.add_argument("a_max", type=_nonneg)
    p.add_argument(
        "--oracle-bound", type=_positive, default=DEFAULT_CELL_LIMIT, metavar="N",
        help=f"cell budget of the brute-force oracle's tables "
             f"(default {DEFAULT_CELL_LIMIT})",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("semigroup", parents=[common],
                       help="oracle invariants of an arbitrary generator list")
    p.add_argument("generators", type=int, nargs="+")
    p.set_defaults(func=cmd_semigroup)

    return parser


# -- shared rendering ------------------------------------------------------

def _record(s: FamilySummary) -> dict[str, int]:
    return dict(zip(TABLE_FIELDS, _table_values(s)))


def _rows(fmt: str, fields: tuple[str, ...], spec: str,
          lone: bool = False) -> tuple[str, str, str, str]:
    """(head, row, sep, tail) of a list of rows in CSV or JSON, or of one
    record when ``lone``: ``row`` is a %-template over one row's cells, each
    formatted by ``spec``, ``%d`` for an int or ``%s`` for a cell rendered by
    :func:`_cell`, and ``sep`` goes between rows.  JSON is json.dump(indent=2)'s
    layout: a nonempty list of objects, or a lone object as the document."""
    if fmt == "json":
        pad = "" if lone else "  "
        row = f"{pad}{{\n" + ",\n".join(f'{pad}  "{k}": {spec}' for k in fields) + f"\n{pad}}}"
        return ("", row, "", "\n") if lone else ("[\n", row, ",\n", "\n]\n")
    return ",".join(fields) + "\n", ",".join([spec] * len(fields)) + "\n", "", ""


def _cell(fmt: str, value, pad: int = 0) -> str:
    """One cell, an int, bool, string or list, in ``fmt`` as json.dump(indent=2)
    and csv.writer write it; bools are true and false.  A JSON list on a line
    indented by ``pad`` has its items at pad + 2 spaces and its ] at pad;
    elsewhere a list's items are joined by spaces.  A CSV cell holding a
    comma, a double quote or a newline is quoted, its quotes doubled: csv's
    minimal quoting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if fmt == "json":
        if isinstance(value, str):
            import json  # only JSON string cells pay for the import

            return json.dumps(value)
        lead = "\n" + " " * (pad + 2)
        items = [_cell(fmt, v) for v in value]
        return f"[{lead}{(',' + lead).join(items)}\n{' ' * pad}]" if items else "[]"
    text = value if isinstance(value, str) else " ".join(map(str, value))
    if fmt == "csv" and any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_record(fmt: str, record: dict, csv_fields: tuple[str, ...],
                  text_keys: tuple[str, ...]) -> None:
    """One record in ``fmt``: JSON in the record's own key order, CSV as a
    header plus one row of ``csv_fields``, text as aligned label/value lines."""
    if fmt == "text":
        # text reports spell out the two abbreviated record keys
        long = {"m": "multiplicity", "e": "embedding_dimension"}
        labels = [long.get(k, k) for k in text_keys]
        width = max(len(label) for label in labels)
        for label, k in zip(labels, text_keys):
            print(f"{label.ljust(width)}  {_cell(fmt, record[k])}")
        return
    fields = tuple(record) if fmt == "json" else csv_fields
    head, row, _, tail = _rows(fmt, fields, "%s", lone=True)
    sys.stdout.write(head + row % tuple(_cell(fmt, record[k], 2) for k in fields) + tail)


# -- subcommands -----------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    s = fib_family.family_summary(args.a)
    record = _record(s)
    record["generators"] = s.generators
    _write_record(args.format, record, TABLE_FIELDS + ("generators",),
                  ("a", "generators", "m", "e", "frobenius", "genus", "n", "wilf_slack"))
    return EXIT_OK


def cmd_apery(args: argparse.Namespace) -> int:
    """Write the table a block of rows at a time: each block is one %-format
    and one write, so memory is the table plus one block.  A block's cells
    are one list, x, beta and w of each row in turn, filled by three slice
    assignments.  ``family_apery`` makes every refusal before it computes
    any beta, so a refused table writes no row."""
    size = APERY_BLOCK_ROWS
    w = fib_family.family_apery(args.a, table_bound=args.table_bound).w
    n = len(w)  # one row for a <= 2, else f_a
    if args.format == "text":
        # the last entry, w(n - 1) = F + f_a, is the largest (README)
        xw, ww = len(str(n - 1)), len(str(w[-1]))
        head, row, sep, tail = "", f"%{xw}d  %2d  %{ww}d\n", "", ""
    else:
        head, row, sep, tail = _rows(args.format, ("x", "beta", "w"), "%d")
    block, short = sep.join([row] * size), sep.join([row] * (n % size))
    out = sys.stdout
    for start in range(0, n, size):
        stop = min(start + size, n)
        cells = [0] * (3 * (stop - start))
        cells[0::3] = range(start, stop)
        cells[1::3] = map(beta, range(start, stop))
        cells[2::3] = w[start:stop]
        out.write((sep if start else head)
                  + (short if stop - start < size else block) % tuple(cells))
    out.write(tail)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    """Compute, render and write one row at a time, so memory is the
    Fibonacci memo plus one row.  Text sizes its columns from the a_min and
    a_max rows: every column is nondecreasing in a (README), and len(str(v))
    grows with |v| on either side of 0, so one of the two is a widest cell."""
    if args.a_min > args.a_max:
        raise InvalidRange(f"a_min {args.a_min} exceeds a_max {args.a_max}")
    if args.format == "text":
        low, high = (_table_values(fib_family.family_summary(a))
                     for a in (args.a_min, args.a_max))
        widths = [max(len(k), len(str(lo)), len(str(hi)))
                  for k, lo, hi in zip(TABLE_FIELDS, low, high)]
        head = "  ".join(map(str.rjust, TABLE_FIELDS, widths)) + "\n"
        row = "  ".join(f"%{w}d" for w in widths) + "\n"
        sep = tail = ""
    else:
        head, row, sep, tail = _rows(args.format, TABLE_FIELDS, "%d")
    out = sys.stdout
    out.write(head)
    lead = ""
    for s in map(fib_family.family_summary, range(args.a_min, args.a_max + 1)):
        out.write(lead + row % _table_values(s))
        lead = sep
    out.write(tail)
    return EXIT_OK


class _VerifyOutcome:
    def __init__(self, record: dict) -> None:
        self.record = record
        self.failures: list[str] = []
        self.skipped: list[str] = []


def _verify_one(a: int, args: argparse.Namespace) -> _VerifyOutcome:
    """Run every check available for one parameter.

    The record is ``family_summary``'s, which reads the closed forms through
    the ``fib_family`` namespace, so a perturbed function is actually
    exercised.  A resource limit marks a check skipped, never failed.  The
    Zeckendorf bijection at a is checked exactly where ``--table-bound`` lets
    the family bitset at a be built, and is skipped with it elsewhere.
    """
    s = fib_family.family_summary(a)
    gens = s.generators  # the only generator tuple built for this index
    m, f, g, n = s.multiplicity, s.frobenius, s.genus, s.n_count
    fa = fib(a)
    out = _VerifyOutcome(_record(s))

    def check(label: str, ok: bool) -> None:
        if not ok:
            out.failures.append(label)

    check("embedding-dimension", s.embedding_dimension == len(gens) and m == gens[0])
    check("genus-binomial-sum", g == fib_family.family_genus_sum(a))
    check("frobenius-via-e-m", f == (s.embedding_dimension // 2) * m - 1)
    check("n-count-nonnegative", n >= 0)
    check("wilf-slack-nonnegative", s.wilf_slack >= 0)
    # README's "Wilf's inequality for every a": 10 * slack from f_a and f_{a-2}
    fa2 = fib(a - 2)
    check("wilf-slack-form", 10 * s.wilf_slack == (
        (a - 1) * (3 * (a - 2) * fa - 2 * a * fa2) if a % 2
        else (a - 2) * (3 * a - 8) * fa - 2 * a * (a - 1) * fa2))
    if a >= 5:
        check("genus-recurrence", fib_family.family_genus_recurrence_check(a))

    try:
        family_bits = fib_family.family_apery_bitset(a, table_bound=args.table_bound)
    except TableTooLarge:
        family_bits = None
        out.skipped += ["zeckendorf-bijection", "apery-table"]
    else:
        check("zeckendorf-bijection", fib_family.zeckendorf_bijection_check(a))
        check("apery-max-frobenius", family_bits.bit_length() - 1 - fa == f)
        # window k of the bitset holds the residues with beta = k
        check("apery-beta-sum-genus", _window_sum(family_bits, fa) == g)

    try:
        oracle = NumericalSemigroup(gens, cell_limit=args.oracle_bound)
        o = oracle.summary()
        check("oracle-multiplicity", o.multiplicity == m)
        check("oracle-frobenius", o.frobenius == f)
        check("oracle-genus", o.genus == g)
        check("oracle-n-count", o.n_count == n)
        check("oracle-minimal-generators", o.minimal_generators == gens)
        if family_bits is not None:
            check("oracle-apery-table", oracle.apery_bitset(fa) == family_bits)
    except ResourceLimit as exc:
        out.skipped.append(f"oracle ({exc})")
    except SemigroupError:  # the oracle refuses the closed-form generators
        out.failures.append("oracle-generators")
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    """Check a = 3..a_max in order, timing each a, and write each a's row,
    and its mismatch lines, as soon as that a is checked: a run stopped
    mid-sweep leaves the rows it wrote."""
    fmt, out, params = args.format, sys.stdout, range(3, args.a_max + 1)
    head, row, sep, tail = _rows(fmt, TABLE_FIELDS + ("verified", "skipped"), "%s")
    lead, failed, total_ms = head, 0, 0
    for a in params:
        t0 = time.perf_counter()
        o = _verify_one(a, args)
        ms = int((time.perf_counter() - t0) * 1000)
        total_ms += ms
        failed += bool(o.failures)
        if fmt == "text":
            skipped = f" skipped[{', '.join(o.skipped)}]" if o.skipped else ""
            out.write(f"a={a} m={o.record['m']} {'FAIL' if o.failures else 'ok'}{skipped}"
                      f" {ms}ms\n" + "".join(f"  mismatch: {label}\n" for label in o.failures))
        else:
            skipped = "; ".join(o.skipped) if fmt == "csv" else o.skipped
            cells = (*o.record.values(), not o.failures, skipped)
            out.write(lead + row % tuple(_cell(fmt, v, 4) for v in cells))
            lead = sep
            for label in o.failures:
                _note(f"a={a} mismatch: {label}")

    summary = (f"verify: {len(params)} parameters, {len(params) - failed} ok, "
               f"{failed} failed, {total_ms}ms")
    if fmt == "text":
        print(summary)
    else:  # with no a checked: the CSV header alone, or an empty JSON list
        out.write(tail if params else head if fmt == "csv" else "[]\n")
        _note(summary)
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_semigroup(args: argparse.Namespace) -> int:
    sg = NumericalSemigroup(args.generators)
    s = sg.summary()
    record = {
        "generators": sg.generators,
        "minimal_generators": s.minimal_generators,
        "m": s.multiplicity,
        "e": s.embedding_dimension,
        "frobenius": s.frobenius,
        "genus": s.genus,
        "n": s.n_count,
        "wilf_holds": s.wilf_holds,
        "wilf_slack": s.wilf_slack,
        "gaps": sg.gaps(),
    }
    _write_record(args.format, record,
                  ("m", "e", "frobenius", "genus", "n", "wilf_holds", "wilf_slack",
                   "minimal_generators", "gaps"),
                  tuple(record))
    return EXIT_OK


def _silence(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so the interpreter's
    own flush at shutdown cannot fail again and print "Exception ignored"."""
    if stream is None:
        return
    try:
        fd = stream.fileno()
    except (OSError, ValueError):  # no descriptor behind a replaced stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _note(line: str) -> None:
    """Write one diagnostic line to stderr, best effort.  Without a stderr
    the line is dropped rather than sent to stdout, as ``print`` would, and a
    stderr that cannot be written is silenced, so neither stdout nor the exit
    code depends on it."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _silence(sys.stderr)


def _run(args: argparse.Namespace) -> int:
    """Run the subcommand; a refusal is one stderr line and its exit code."""
    # f_a passes CPython's 4300-digit int-to-str limit near a = 20,580;
    # interpreters before 3.10.7 have no limit and no setter
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved_digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        _note(f"{type(exc).__name__}: {exc}")
        if isinstance(exc, TableTooLarge):
            _note("hint: raise --table-bound to materialize larger tables")
        return EXIT_RESOURCE
    except MemoryError:
        _note("fibsemi: out of memory")
        return EXIT_RESOURCE
    except SemigroupError as exc:
        _note(f"{type(exc).__name__}: {exc}")
        return EXIT_USAGE
    finally:
        if limited:
            sys.set_int_max_str_digits(saved_digits)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code:  # a usage error, already reported on stderr
                raise
            args = None  # help, written by _Parser.print_help
        if sys.stdout is None:  # descriptor 1 was closed when Python started
            raise OSError(errno.EBADF, "standard output is closed")
        code = _run(args) if args else EXIT_OK
        sys.stdout.flush()  # a buffered write fails here, not at shutdown
        return code
    except OSError as exc:  # stdout closed, closed by its reader, or disk full
        _silence(sys.stdout)
        _note(f"fibsemi: cannot write output: {exc}")
        return EXIT_RESOURCE
    except Exception as exc:  # a fault in fibsemi, not in the input or the host
        _note(f"fibsemi: internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
