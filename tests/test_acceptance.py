"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (visible with -s or -rA) and enforces its
runtime budget where one applies.  All comparisons are exact integer
equality; there are no tolerances anywhere.
"""
from __future__ import annotations

import csv
import io
import json
import time
from itertools import combinations
from math import comb, gcd

from fibsemi import cli, fib_family
from fibsemi.fib_family import (
    family_apery,
    family_frobenius,
    family_generators,
    family_genus,
    family_genus_recurrence_check,
    family_genus_sum,
    family_summary,
    kaplansky_count,
    zeckendorf_bijection_check,
)
from fibsemi.fibonacci import beta, fib, gamma, zeckendorf_indices
from fibsemi.semigroup_core import NumericalSemigroup
from min_weight import min_weight_table
from sparse_subsets import enumerate_sparse_subsets


def _pass(num: int, t0: float, description: str) -> None:
    print(f"criterion {num:02d} PASS {int((time.perf_counter() - t0) * 1000)}ms: "
          f"{description}")


def test_criterion_01_info_reports_generators(capsys):
    t0 = time.perf_counter()
    assert cli.main(["info", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == [13, 14, 15, 16, 18, 21]
    assert payload["e"] == 6
    assert cli.main(["info", "7"]) == 0
    text = capsys.readouterr().out
    assert "13 14 15 16 18 21" in text
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        _pass(1, t0, "info 7 reports minimal generators {13,...,21} and e = 6")


def test_criterion_02_apery_reproduction(capsys):
    t0 = time.perf_counter()
    table = family_apery(7)
    assert table.w == (0, 14, 15, 16, 30, 18, 32, 33, 21, 35, 36, 37, 51)
    assert len(table.w) == 13
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        _pass(2, t0, "family_apery(7) returns the 13 published residue values")


def test_criterion_03_frobenius_reproduction(capsys):
    t0 = time.perf_counter()
    assert family_frobenius(7) == 38
    assert NumericalSemigroup([13, 14, 15, 16, 18, 21]).frobenius() == 38
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        _pass(3, t0, "family_frobenius(7) = 38 = oracle frobenius")


def test_criterion_04_genus_reproduction(capsys):
    t0 = time.perf_counter()
    assert family_genus(7) == 20
    assert family_genus_sum(7) == 20
    sg = NumericalSemigroup(family_generators(7))
    assert sg.genus() == 20
    gaps = sg.gaps()
    assert len(gaps) == 20
    assert max(gaps) == 38
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        _pass(4, t0, "family_genus(7) = 20 on both routes; oracle gap list agrees")


def test_criterion_05_oracle_equivalence_sweep(capsys):
    t0 = time.perf_counter()
    for a in range(3, 25):
        gens = family_generators(a)
        sg = NumericalSemigroup(gens)
        fa = fib(a)
        assert sg.multiplicity == fa
        assert sg.apery(fa) == family_apery(a)
        assert sg.frobenius() == family_frobenius(a)
        assert sg.genus() == family_genus(a)
        assert sg.minimal_generators() == gens
        assert sg.embedding_dimension() == a - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        _pass(5, t0, "closed forms equal the oracle for every a in 3..24")


def test_criterion_06_zeckendorf_suite(capsys):
    t0 = time.perf_counter()
    # uniqueness against exhaustive non-consecutive search, x <= 500
    by_sum: dict[int, int] = {}
    indices = range(2, 15)  # fib(15) = 610 > 500
    for r in range(len(indices) + 1):
        for combo in combinations(indices, r):
            if any(b - a < 2 for a, b in zip(combo, combo[1:])):
                continue
            s = sum(fib(i) for i in combo)
            if s <= 500:
                by_sum[s] = by_sum.get(s, 0) + 1
    assert all(by_sum[x] == 1 for x in range(501))
    for x in range(501):
        indices = zeckendorf_indices(x)
        assert sum(fib(i) for i in indices) == x
        assert all(b - a >= 2 for a, b in zip(indices, indices[1:]))
    # beta minimality against the coin-change table, x <= 10^4
    table = min_weight_table(10_000, 40)
    assert all(beta(x) == table[x] for x in range(10_001))
    # drop identities, x <= 10^4
    for x in range(1, 10_001):
        top = gamma(x)
        rest = x - fib(top)
        assert beta(x) == beta(rest) + 1
        if rest:
            assert gamma(rest) <= top - 2
    # beta at fib(a) - 1, a <= 60
    assert all(beta(fib(a) - 1) == (a - 1) // 2 for a in range(2, 61))
    # beta versus gamma bound, x <= 10^5
    assert all(beta(x) <= gamma(x) // 2 for x in range(1, 100_001))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _pass(6, t0, "Zeckendorf uniqueness, minimality, and index-statistic laws")


def test_criterion_07_combinatorics_suite(capsys):
    t0 = time.perf_counter()
    for n in range(2, 21):
        for m in range(0, n):
            assert len(enumerate_sparse_subsets(n, m)) == kaplansky_count(n, m)
    for a in range(3, 26):
        assert zeckendorf_bijection_check(a)
        assert fib(a) == sum(comb(a - 1 - j, j) for j in range((a - 1) // 2 + 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _pass(7, t0, "sparse-subset counts and the index-set bijection, a up to 25")


def test_criterion_08_genus_recurrence_and_consistency(capsys):
    t0 = time.perf_counter()
    for a in range(5, 101):
        assert family_genus_recurrence_check(a)
    for a in range(3, 61):
        assert family_genus(a) == family_genus_sum(a)
    for a in range(3, 21):
        assert family_genus(a) == sum(beta(x) for x in range(1, fib(a)))
    with capsys.disabled():
        _pass(8, t0, "genus recurrence to a = 100 and all three genus routes agree")


def test_criterion_09_wilf_sweep(capsys):
    t0 = time.perf_counter()
    for a in range(0, 101):
        assert family_summary(a).wilf_slack >= 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    with capsys.disabled():
        _pass(9, t0, "Wilf slack nonnegative for every a in 0..100")


def test_criterion_10_two_generator_sanity(capsys):
    t0 = time.perf_counter()
    for p in range(3, 41):
        for q in range(p + 1, 41):
            if gcd(p, q) != 1:
                continue
            sg = NumericalSemigroup([p, q])
            assert sg.frobenius() == p * q - p - q
            assert sg.genus() == (p - 1) * (q - 1) // 2
    with capsys.disabled():
        _pass(10, t0, "two-generator closed forms for all coprime 3 <= p < q <= 40")


def test_criterion_11_fault_injection(capsys, monkeypatch):
    t0 = time.perf_counter()
    real = fib_family.family_frobenius
    monkeypatch.setattr(fib_family, "family_frobenius", lambda a: real(a) + 1)
    code = cli.main(["verify", "10"])
    capsys.readouterr()
    assert code != 0
    monkeypatch.undo()
    assert cli.main(["verify", "10"]) == 0
    capsys.readouterr()
    with capsys.disabled():
        _pass(11, t0, "perturbing one closed form flips the verify exit code")


def test_acceptance_output_parity(capsys):
    # same run, two serializations, identical values field for field
    assert cli.main(["table", "3", "16", "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert cli.main(["table", "3", "16", "--format", "json"]) == 0
    json_text = capsys.readouterr().out
    csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
    json_rows = json.loads(json_text)
    assert [{k: int(v) for k, v in r.items()} for r in csv_rows] == json_rows
