"""Correctness checks for the CLI output the benchmark produces.

Every check returns a list of problems; an empty list means the output passed.
Nothing here imports ``fibsemi``: the spot checks use the benchmark's own
Fibonacci numbers, so a defect in the program cannot hide itself by also
breaking the check.

Run ``python3 bench/checks.py`` from the repository root to rewrite
``bench/reference.json`` from the current program's output.  Do that only
after the spot checks agree with the new output, because the reference is
what turns a changed value into a failure.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Rows per digest in the reference; a mismatch is reported by row range.
CHUNK_ROWS = 1024

SWEEP_COLUMNS = ("a", "m", "e", "frobenius", "genus", "n", "wilf_slack")
APERY_COLUMNS = ("x", "beta", "w")

SPOT_ROWS = 64

_VERIFY_LINE = re.compile(r"a=(\d+) m=(\d+) (\S+)")


def fib_list(n: int) -> list[int]:
    """f_0 .. f_n under f_0 = 0, f_1 = 1."""
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return out[: n + 1]


def zeckendorf_count(x: int, fibs: list[int]) -> int:
    """Number of summands in the greedy Zeckendorf decomposition of x."""
    count = 0
    i = len(fibs) - 1
    while x:
        while fibs[i] > x:
            i -= 1
        x -= fibs[i]
        count += 1
    return count


# -- verify (text) ---------------------------------------------------------

def check_verify_text(stdout: str, a_max: int) -> list[str]:
    """Every parameter 3..a_max has a line that reads ``ok`` and skips nothing.

    CSV and JSON print ``verified=true`` even when the oracle was skipped, so
    only the text format shows whether every check really ran.
    """
    problems = []
    fibs = fib_list(a_max)
    seen = []
    for line in stdout.splitlines():
        if line.startswith("  mismatch:"):
            problems.append(f"verify reports {line.strip()!r}")
            continue
        match = _VERIFY_LINE.match(line)
        if match is None:
            continue
        a, m, status = int(match[1]), int(match[2]), match[3]
        seen.append(a)
        if status != "ok":
            problems.append(f"a={a} reads {status!r}, not 'ok'")
        if "skipped[" in line:
            problems.append(f"a={a} skipped a check: {line!r}")
        if a <= a_max and m != fibs[a]:
            problems.append(f"a={a} prints m={m}, expected f_{a} = {fibs[a]}")
    if seen != list(range(3, a_max + 1)):
        problems.append(f"parameter lines cover {seen[:3]}..{seen[-3:]}, expected 3..{a_max}")
    return problems


# -- CSV tables ------------------------------------------------------------

def named_columns(stdout: str, columns: tuple[str, ...]) -> tuple[list[tuple[int, ...]], list[str]]:
    """Integer values of ``columns`` in every CSV row, located by header name.

    Extra columns and column order do not matter; a missing column or a
    non-integer cell is a problem.
    """
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader, None)
    if header is None:
        return [], ["no CSV header"]
    missing = [c for c in columns if c not in header]
    if missing:
        return [], [f"CSV header {header} lacks {missing}"]
    where = [header.index(c) for c in columns]
    rows = []
    for lineno, cells in enumerate(reader, start=2):
        try:
            rows.append(tuple(int(cells[i]) for i in where))
        except (IndexError, ValueError):
            return rows, [f"CSV line {lineno} is not a row of integers: {cells[:8]}"]
    return rows, []


def digests(rows: list[tuple[int, ...]]) -> list[str]:
    """sha256 of each CHUNK_ROWS-row block, over the values in decimal."""
    out = []
    for start in range(0, len(rows), CHUNK_ROWS):
        text = "".join(",".join(map(str, r)) + "\n" for r in rows[start:start + CHUNK_ROWS])
        out.append(hashlib.sha256(text.encode()).hexdigest())
    return out


def compare_reference(rows: list[tuple[int, ...]], ref: dict) -> list[str]:
    if len(rows) != ref["rows"]:
        return [f"{len(rows)} rows, reference has {ref['rows']}"]
    for i, (got, want) in enumerate(zip(digests(rows), ref["sha256"])):
        if got != want:
            lo = i * CHUNK_ROWS
            return [f"values differ from the reference in rows {lo}..{min(lo + CHUNK_ROWS, len(rows)) - 1}"]
    return []


def _sample(n: int, seed: int) -> list[int]:
    """First, last and SPOT_ROWS seeded rows of an n-row table."""
    rng = random.Random(seed)
    picked = {0, n - 1} | {rng.randrange(n) for _ in range(SPOT_ROWS)}
    return sorted(i for i in picked if 0 <= i < n)


def spot_check_sweep(rows: list[tuple[int, ...]], a_min: int, seed: int) -> list[str]:
    """m = f_a, F = floor((a-1)/2) * f_a - 1 and g + n = F + 1 on sampled rows."""
    problems = []
    if not rows:
        return ["no rows"]
    fibs = fib_list(a_min + len(rows))
    for i in _sample(len(rows), seed):
        a, m, e, frob, genus, n, _slack = rows[i]
        if a != a_min + i:
            problems.append(f"row {i} has a={a}, expected {a_min + i}")
            continue
        fa = fibs[a]
        if m != (fa if a >= 3 else 1):
            problems.append(f"a={a}: m={m}, expected f_a = {fa}")
        if frob != ((a - 1) // 2) * fa - 1:
            problems.append(f"a={a}: frobenius {frob} != floor((a-1)/2) * f_a - 1")
        if genus + n != frob + 1:
            problems.append(f"a={a}: genus + n = {genus + n}, expected F + 1 = {frob + 1}")
    return problems


def spot_check_apery(rows: list[tuple[int, ...]], a: int, seed: int) -> list[str]:
    """f_a rows; on sampled rows x is the row index, w = x (mod f_a) and
    beta is the Zeckendorf summand count of x."""
    fibs = fib_list(a + 1)
    fa = fibs[a]
    if len(rows) != fa:
        return [f"{len(rows)} rows, expected f_{a} = {fa}"]
    problems = []
    for i in _sample(fa, seed):
        x, beta, w = rows[i]
        if x != i:
            problems.append(f"row {i} has x={x}")
        if w % fa != x % fa:
            problems.append(f"x={x}: w={w} is not congruent to x mod {fa}")
        if beta != zeckendorf_count(x, fibs):
            problems.append(f"x={x}: beta={beta}, Zeckendorf count is {zeckendorf_count(x, fibs)}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_reference() -> None:
    """Rewrite reference.json from ``python -m fibsemi`` run on ./src."""
    from run import WORKLOADS
    from spawner import child_env

    env = child_env()
    ref = {}
    for name, columns in (("sweep", SWEEP_COLUMNS), ("apery", APERY_COLUMNS)):
        argv = list(WORKLOADS[name].argv)
        out = subprocess.run([sys.executable, "-m", "fibsemi", *argv], env=env,
                             capture_output=True, text=True, check=True).stdout
        rows, problems = named_columns(out, columns)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        ref[name] = {"argv": argv, "columns": list(columns), "rows": len(rows),
                     "sha256": digests(rows)}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    write_reference()
