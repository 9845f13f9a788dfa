"""Zeckendorf decompositions, the beta/gamma statistics, and the reduction
step's test-side witness in ``reduction``."""
from __future__ import annotations

import subprocess
import sys
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsemi.fib_family import DEFAULT_TABLE_BOUND, family_apery_bitset
from fibsemi.fibonacci import beta, fib, gamma, zeckendorf_indices
from min_weight import min_weight_oracle, min_weight_table
from reduction import CoefficientVector, reduce_by_fib


def test_fib_base_values():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_fib_paper_value():
    assert fib(7) == 13


def test_fib_large_value_exact():
    assert fib(50) == 12586269025


def test_fib_recurrence_holds_far_out():
    for n in range(2, 300):
        assert fib(n) == fib(n - 1) + fib(n - 2)


def test_fib_negative_index_rejected():
    with pytest.raises(ValueError):
        fib(-1)


def test_fib_addition_law():
    for a in range(1, 31):
        for i in range(0, 31):
            assert fib(a + i) == fib(i + 1) * fib(a) + fib(i) * fib(a - 1)


def test_gamma_small_values():
    # gamma(1) = 2 by the indices-start-at-2 convention
    assert [gamma(x) for x in [0, 1, 2, 3, 4, 5, 12, 13]] == [0, 2, 3, 4, 4, 5, 6, 7]


def test_gamma_is_largest_index_below():
    for x in range(1, 2000):
        l = gamma(x)
        assert fib(l) <= x < fib(l + 1)


def test_gamma_rejects_negative():
    with pytest.raises(ValueError):
        gamma(-5)


# -- zeckendorf -------------------------------------------------------------

def test_zeckendorf_unique_vs_exhaustive_search():
    # every x <= 500 has exactly one admissible index set, and we return it
    by_sum: dict[int, list[tuple[int, ...]]] = {x: [] for x in range(501)}
    indices = range(2, 15)  # fib(15) = 610 already exceeds 500
    for r in range(len(indices) + 1):
        for combo in combinations(indices, r):
            if any(b - a < 2 for a, b in zip(combo, combo[1:])):
                continue
            s = sum(fib(i) for i in combo)
            if s <= 500:
                by_sum[s].append(combo)
    for x in range(501):
        assert len(by_sum[x]) == 1
        assert zeckendorf_indices(x) == by_sum[x][0]


def test_zeckendorf_zero_is_empty():
    assert zeckendorf_indices(0) == () and beta(0) == 0 and gamma(0) == 0


def test_zeckendorf_paper_example():
    # 12 = f_2 + f_4 + f_6 = 1 + 3 + 8
    indices = zeckendorf_indices(12)
    assert indices == (2, 4, 6)
    assert tuple(fib(i) for i in indices) == (1, 3, 8)
    assert beta(12) == 3
    assert gamma(12) == 6


def test_zeckendorf_rejects_negative():
    with pytest.raises(ValueError):
        zeckendorf_indices(-1)
    with pytest.raises(ValueError):  # not the memo's last entry
        beta(-1)


def _assert_one_walk(x):
    indices = zeckendorf_indices(x)
    assert sum(fib(i) for i in indices) == x
    assert all(i >= 2 for i in indices)
    assert all(b - a >= 2 for a, b in zip(indices, indices[1:]))
    assert len(indices) == beta(x)
    assert (indices[-1] if indices else 0) == gamma(x)


@given(st.integers(min_value=0, max_value=10**400))
def test_zeckendorf_reconstructs_and_is_sparse(x):
    _assert_one_walk(x)


def test_zeckendorf_and_beta_share_the_walk_below_f20():
    for x in range(fib(20)):
        _assert_one_walk(x)


@given(st.integers(min_value=0, max_value=10**40 - 1))
def test_zeckendorf_and_beta_share_the_walk_for_large_x(x):
    _assert_one_walk(x)


# -- beta -------------------------------------------------------------------

def test_beta_is_minimal_weight():
    table = min_weight_table(10_000, 40)
    for x in range(10_001):
        assert beta(x) == table[x]


def test_beta_drop_identity():
    # beta(x) = beta(x - fib(gamma(x))) + 1, and gamma drops by at least 2
    for x in range(1, 10_001):
        l = gamma(x)
        rest = x - fib(l)
        assert beta(x) == beta(rest) + 1
        if rest:
            assert gamma(rest) <= l - 2


def test_beta_of_fib_minus_one():
    for a in range(2, 61):
        assert beta(fib(a) - 1) == (a - 1) // 2


def test_beta_gamma_bound():
    for x in range(1, 100_001):
        assert beta(x) <= gamma(x) // 2


def test_beta_known_values():
    assert beta(11) == 2  # 11 = fib(6) + fib(4)
    assert beta(12) == 3
    assert all(beta(fib(a)) == 1 for a in range(1, 40))


# -- the beta memo: the Fibonacci split against the greedy walk ---------------

def test_beta_memo_equals_the_walk_below_f26():
    for x in range(fib(26)):
        assert beta(x) == len(zeckendorf_indices(x))


@cache
def _memo_grown_to_f30() -> None:
    # only a caller asking in order grows the memo; without this each x
    # would walk, and the test would compare the walk with itself
    for x in range(fib(30)):
        beta(x)


@given(st.integers(min_value=0, max_value=fib(30) - 1))
@settings(deadline=None)
def test_beta_memo_equals_the_walk_below_f30(x):
    _memo_grown_to_f30()
    assert beta(x) == len(zeckendorf_indices(x))


def test_beta_equals_the_walk_around_every_fib_across_the_cap():
    # each x is a memo hit or a walk, depending on how far earlier tests grew
    # the memo; asking around each f_k is not a run from 0 (bar 0, 1, 2 at
    # k = 2, inside the memo's first split step), so none grows it far.  The
    # walk takes the most summands at f_k - 1, B = {k - 1, k - 3, ...}, and a
    # single one at f_k.
    for k in range(2, 401):
        for x in (fib(k) - 1, fib(k), fib(k) + 1):
            _assert_one_walk(x)


def test_beta_memo_covers_every_default_table():
    # asked in order, beta never walks: range(f_31) holds every table the
    # default bound admits and the first one past it; a fresh interpreter, so
    # the memo grows from its first two cells rather than from what earlier
    # tests left in it
    assert DEFAULT_TABLE_BOUND < fib(31)
    script = (
        "from fibsemi import fibonacci as z\n"
        "walk = z.zeckendorf_indices\n"
        "def refuse(x): raise AssertionError(f'beta({x}) walked B(x)')\n"
        "z.zeckendorf_indices = refuse\n"
        "for x in range(z.fib(31)): z.beta(x)\n"
        "z.zeckendorf_indices = walk\n"
        "print(len(z._BETAS))\n"
        "for x in (z.fib(30) - 1, z.fib(30), z.fib(31) - 1):\n"
        "    print(z.beta(x) == len(walk(x)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [str(fib(31)), "True", "True", "True"]


@cache
def _apery_bitset_past_the_cap() -> int:
    return family_apery_bitset(32, table_bound=fib(32))


@given(st.lists(st.integers(min_value=0, max_value=fib(32) - 1), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_apery_bitset_holds_the_walk_across_the_cap(xs):
    # beta's memo hits and walks both meet the int split
    bits, fa = _apery_bitset_past_the_cap(), fib(32)
    assert bits.bit_count() == fa
    for x in xs + [fib(30) - 1, fib(30), fib(31), fa - 1]:
        assert bits >> beta(x) * fa + x & 1, x


def test_beta_memo_grows_only_as_far_as_asked():
    # a fresh interpreter, so earlier tests have not grown the memo already;
    # only calls asking 0, 1, 2, ... in order grow it, so asking at or around
    # every Fibonacci number up to f_60, or for the cell past its end right
    # after its last cell, walks and leaves it alone; the family bitset splits
    # ints without reading the memo at all
    script = (
        "from fibsemi import fibonacci as z\n"
        "from fibsemi.fib_family import family_apery_bitset\n"
        "for a in range(3, 60): z.beta(z.fib(a))\n"
        "print(len(z._BETAS))\n"
        "for a in range(3, 60): z.beta(z.fib(a) - 1); z.beta(z.fib(a)); z.beta(z.fib(a) + 1)\n"
        "print(len(z._BETAS))\n"
        "for x in range(z.fib(20)): z.beta(x)\n"
        "print(len(z._BETAS))\n"
        "z.beta(z.fib(30) + 1); print(len(z._BETAS))\n"
        "z.beta(z.fib(30) - 1); print(len(z._BETAS))\n"
        "z.beta(10**40); print(len(z._BETAS))\n"
        "family_apery_bitset(32, table_bound=z.fib(32)); print(len(z._BETAS))\n"
        "z.beta(z.fib(20) - 1); z.beta(z.fib(20)); print(len(z._BETAS))\n"
        "for x in range(z.fib(20) + 1): z.beta(x)\n"
        "print(len(z._BETAS))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    expected = (2, 2, *[fib(20)] * 6, fib(21))
    assert proc.stdout.split() == [str(n) for n in expected]


def test_min_weight_oracle_known_values():
    assert min_weight_oracle(12, 6) == 3
    assert min_weight_oracle(0, 2) == 0
    assert min_weight_oracle(33, 8) == 4  # fib(9) - 1


def test_min_weight_oracle_matches_beta_pointwise():
    assert min_weight_oracle(987, 30) == 1
    assert min_weight_oracle(986, 30) == beta(986) == 7
    for x in (1, 12, 33, 100, 5000):
        assert min_weight_oracle(x, max(gamma(x), 2)) == beta(x)


def test_min_weight_table_validation():
    with pytest.raises(ValueError):
        min_weight_table(10, 1)
    with pytest.raises(ValueError):
        min_weight_table(-1, 10)
    with pytest.raises(ValueError):
        min_weight_table(10**9, 50)


# -- coefficient vectors and the reduction step ------------------------------

def test_coefficient_vector_validation():
    with pytest.raises(ValueError):
        CoefficientVector(2, ())
    with pytest.raises(ValueError):
        CoefficientVector(5, (1, 2))  # needs a - 2 = 3 entries
    with pytest.raises(ValueError):
        CoefficientVector(4, (1, -1))


def test_coefficient_vector_value_and_weight():
    v = CoefficientVector(7, (1, 0, 2, 0, 1))  # f_2 + 2*f_4 + f_6 = 1 + 6 + 8
    assert v.value() == 15
    assert v.weight() == 4


def test_reduce_requires_value_at_least_fib_a():
    with pytest.raises(ValueError):
        reduce_by_fib(CoefficientVector(5, (1, 1, 0)))  # value 3 < fib(5) = 5


def test_reduce_basis_cases():
    # a = 3: strip fib(3) = 2 straight off the index-2 coefficient
    assert reduce_by_fib(CoefficientVector(3, (5,))).coeffs == (3,)
    # a = 4 with an empty top coefficient: 3*fib(2) - fib(4) = 0
    assert reduce_by_fib(CoefficientVector(4, (3, 0))).coeffs == (0, 0)
    # direct top-pair case: fib(5) + fib(6) - fib(7) = 0
    assert reduce_by_fib(CoefficientVector(7, (0, 0, 0, 1, 1))).coeffs == (0, 0, 0, 0, 0)


def test_reduce_by_fib_matches_golden():
    # one line per vector with 3 <= a <= 7 and coefficients in 0..3: its
    # reduction, or ValueError for the 132 whose value is below fib(a)
    lines = (Path(__file__).parent / "golden" / "reduce_by_fib.txt").read_text().splitlines()
    assert len(lines) == 1364
    for line in lines:
        a, coeffs, arrow, expected = line.split()
        assert arrow == "->"
        v = CoefficientVector(int(a), tuple(int(c) for c in coeffs.split(",")))
        if expected == "ValueError":
            with pytest.raises(ValueError):
                reduce_by_fib(v)
        else:
            assert ",".join(map(str, reduce_by_fib(v).coeffs)) == expected, line


coeff_vectors = st.integers(min_value=3, max_value=14).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.lists(st.integers(min_value=0, max_value=5),
                 min_size=a - 2, max_size=a - 2),
    )
)


@given(coeff_vectors)
@settings(max_examples=400)
def test_reduce_by_fib_laws(params):
    a, coeffs = params
    v = CoefficientVector(a, tuple(coeffs))
    if v.value() < fib(a):
        with pytest.raises(ValueError):
            reduce_by_fib(v)
        return
    r = reduce_by_fib(v)
    # value drops by exactly fib(a), weight strictly decreases, and the
    # result is a valid vector over indices 2..a-1
    assert r.a == a
    assert r.value() == v.value() - fib(a)
    assert r.weight() < v.weight()
    assert all(c >= 0 for c in r.coeffs)


def test_reduce_from_zeckendorf_carry():
    # represent x + fib(a) as B(x) plus the carry f_{a-1} + f_{a-2};
    # one reduction must strip exactly fib(a) and never undershoot beta(x)
    for a in range(4, 10):
        fa = fib(a)
        for x in range(1, fa):
            coeffs = [0] * (a - 2)
            for i in zeckendorf_indices(x):
                coeffs[i - 2] += 1
            coeffs[a - 3] += 1
            coeffs[a - 4] += 1
            v = CoefficientVector(a, tuple(coeffs))
            assert v.value() == x + fa
            r = reduce_by_fib(v)
            assert r.value() == x
            assert r.weight() >= beta(x)
