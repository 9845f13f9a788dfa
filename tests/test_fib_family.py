"""Closed forms for the Fibonacci-shift family against the brute-force oracle."""
from __future__ import annotations

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsemi import fib_family
from fibsemi.fib_family import (
    DEFAULT_TABLE_BOUND,
    TableTooLarge,
    family_apery,
    family_apery_bitset,
    family_apery_value,
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
from fibsemi.semigroup_core import NumericalSemigroup, ResourceLimit
from sparse_subsets import EnumerationTooLarge, enumerate_sparse_subsets
import zeckendorf_blocks
from zeckendorf_blocks import zeckendorf_bijection_by_blocks, zeckendorf_block_check


# -- generators --------------------------------------------------------------

def test_generators_reproduce_known_list():
    assert family_generators(7) == (13, 14, 15, 16, 18, 21)


def test_generators_trivial_parameters():
    assert family_generators(0) == (1,)
    assert family_generators(1) == (1,)
    assert family_generators(2) == (1,)


def test_generators_count_and_shape():
    for a in range(3, 40):
        gens = family_generators(a)
        assert len(gens) == a - 1
        assert gens[0] == fib(a)
        assert gens == tuple(sorted(set(gens)))
        assert gens[-1] == fib(a) + fib(a - 1)


def test_generators_a10_include_top_shift():
    # the shift by fib(9) = 34 is a genuine minimal generator
    assert family_generators(10) == (55, 56, 57, 58, 60, 63, 68, 76, 89)
    # the first eight values alone generate a smaller semigroup in which
    # they are still the minimal system
    truncated = (55, 56, 57, 58, 60, 63, 68, 76)
    assert NumericalSemigroup(truncated).minimal_generators() == truncated
    assert NumericalSemigroup(truncated).frobenius() != family_frobenius(10)


def test_generators_are_oracle_minimal():
    for a in range(3, 13):
        gens = family_generators(a)
        assert NumericalSemigroup(gens).minimal_generators() == gens


# -- Apery -------------------------------------------------------------------

def test_apery_reproduces_known_values():
    table = family_apery(7)
    assert table.n == 13
    assert table.w == (0, 14, 15, 16, 30, 18, 32, 33, 21, 35, 36, 37, 51)


def test_apery_value_pointwise():
    assert family_apery_value(7, 0) == 0
    assert family_apery_value(7, 4) == 30
    assert family_apery_value(7, 12) == 51
    with pytest.raises(ValueError):
        family_apery_value(7, 13)
    with pytest.raises(ValueError):
        family_apery_value(7, -1)


def test_apery_value_has_no_size_bound():
    # pointwise queries stay cheap far beyond any materialization bound
    assert family_apery_value(200, 1) == fib(200) + 1


def test_apery_small_parameters_collapse():
    # S = N for a <= 2: one residue at modulus 1, never refused, not even by a bound of 0
    for a in range(3):
        assert family_apery(a).w == family_apery(a, table_bound=0).w == (0,)
        assert family_apery(a, table_bound=0).n == 1
        assert family_apery_bitset(a, table_bound=0) == 1
        assert family_apery_value(a, 0) == 0


def test_apery_table_bound_enforced():
    with pytest.raises(TableTooLarge):
        family_apery(40)
    with pytest.raises(TableTooLarge):
        family_apery(10, table_bound=50)
    assert family_apery(10, table_bound=55).n == 55


def test_apery_table_bound_refuses_before_computing_f_a():
    tracemalloc.start()
    try:
        with pytest.raises(TableTooLarge, match=r"f_100000 >= f_31 = 1346269 .* 1000000$"):
            family_apery(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    with pytest.raises(TableTooLarge, match=r"f_31 = 1346269 entries"):
        family_apery(31)


def _physical_memory(monkeypatch, pages, page=1) -> None:
    """Make os.sysconf report ``pages`` pages of ``page`` bytes."""
    sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page}
    monkeypatch.setattr(fib_family.os, "sysconf", sizes.__getitem__)


def _no_beta(x):
    raise AssertionError(f"beta({x}) computed for a table that is refused")


def test_apery_table_past_physical_memory_is_refused_before_any_beta(monkeypatch):
    need = fib(22) * fib_family.APERY_ENTRY_BYTES  # 17,711 entries of 40 B
    assert family_apery(22).n == fib(22)
    _physical_memory(monkeypatch, need - 1)
    monkeypatch.setattr(fib_family, "beta", _no_beta)
    with pytest.raises(ResourceLimit) as refused:
        family_apery(22)
    assert type(refused.value) is ResourceLimit  # not TableTooLarge: no bound helps
    assert str(refused.value) == (
        f"Apery table of f_22 = 17711 entries needs {need} bytes, "
        f"over the {need - 1} bytes of physical memory")
    monkeypatch.undo()
    _physical_memory(monkeypatch, need)
    assert family_apery(22).n == fib(22)  # exactly the machine's memory: built


def _sysconf_raises(error):
    def sysconf(name):
        raise error(name)
    return sysconf


@pytest.mark.parametrize("sysconf", [
    *({"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page}.__getitem__
      for pages, page in [(-1, 4096), (0, 4096), (1, -1), (1, 0), (-1, -1)]),
    _sysconf_raises(ValueError),  # no such name
    _sysconf_raises(OSError),
    _sysconf_raises(AttributeError),  # no os.sysconf on this platform
])
def test_apery_table_is_not_refused_where_memory_is_not_reported(monkeypatch, sysconf):
    monkeypatch.setattr(fib_family.os, "sysconf", sysconf)
    assert family_apery(22).n == fib(22)
    assert fib_family._refuse_apery_table(22, DEFAULT_TABLE_BOUND)  # a second fits too


def test_apery_refusal_answers_whether_a_second_table_fits(monkeypatch):
    need = fib(22) * fib_family.APERY_ENTRY_BYTES
    for memory, two in ((need, False), (2 * need - 1, False), (2 * need, True)):
        _physical_memory(monkeypatch, memory)
        assert fib_family._refuse_apery_table(22, DEFAULT_TABLE_BOUND) is two
    _physical_memory(monkeypatch, 1)  # a <= 2: one entry, never refused
    assert all(fib_family._refuse_apery_table(a, 0) is True for a in range(3))


def _as_bits(ws) -> int:
    # linear in max(ws): sum(1 << w ...) would be quadratic in f_a
    buf = bytearray(max(ws) // 8 + 1)
    for w in ws:
        buf[w >> 3] |= 1 << (w & 7)
    return int.from_bytes(buf, "little")


def test_apery_bitset_is_the_table_as_bits():
    top = gamma(DEFAULT_TABLE_BOUND)  # the largest a the default bound admits
    assert top == 30
    for a in range(top + 1):
        assert family_apery_bitset(a) == _as_bits(family_apery(a).w), a


def test_apery_bitset_needs_no_int_string_digit_limit():
    # layers of f_24 = 46,368 binary digits, far past the default 4300
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        bits = family_apery_bitset(24)
    finally:
        sys.set_int_max_str_digits(saved)
    assert bits.bit_count() == fib(24)
    assert bits.bit_length() - 1 == family_frobenius(24) + fib(24)


@pytest.mark.parametrize("a, bound", [(31, DEFAULT_TABLE_BOUND), (10, 50),
                                      (100_000, DEFAULT_TABLE_BOUND)])
def test_apery_bitset_is_refused_as_the_table_is(a, bound):
    with pytest.raises(TableTooLarge) as table:
        family_apery(a, table_bound=bound)
    with pytest.raises(TableTooLarge) as bits:
        family_apery_bitset(a, table_bound=bound)
    assert str(bits.value) == str(table.value)


def test_apery_bitset_refuses_before_computing_f_a():
    tracemalloc.start()
    try:
        with pytest.raises(TableTooLarge, match=r"f_100000 >= f_31 = 1346269 .* 1000000$"):
            family_apery_bitset(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert family_apery_bitset(10, table_bound=55).bit_count() == 55


def test_apery_matches_oracle():
    # at a = 24 the oracle's Apery bitset has 556,416 binary digits, past the
    # 4300-digit int-string limit, which its decoder must not need
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    try:
        for a in (8, 11, 24):
            gens = family_generators(a)
            assert NumericalSemigroup(gens).apery(fib(a)) == family_apery(a)
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


# -- Frobenius ----------------------------------------------------------------

def test_frobenius_known_values():
    assert family_frobenius(7) == 38
    assert family_frobenius(2) == -1
    assert family_frobenius(0) == -1
    assert family_frobenius(1) == -1
    assert family_frobenius(12) == 719


def test_frobenius_12_matches_oracle():
    sg = NumericalSemigroup(family_generators(12))
    assert sg.frobenius() == 719


def test_frobenius_via_embedding_dimension_restatement():
    for a in range(3, 200):
        e = a - 1
        assert family_frobenius(a) == (e // 2) * fib(a) - 1


# -- genus ---------------------------------------------------------------------

def test_genus_known_values():
    assert family_genus(7) == 20
    assert family_genus(2) == 0
    assert family_genus(0) == 0
    assert family_genus(3) == 1
    assert family_genus(4) == 2


def test_genus_sum_examples():
    assert family_genus_sum(7) == 20
    assert family_genus_sum(3) == 1
    assert family_genus_sum(4) == 2
    with pytest.raises(ValueError):
        family_genus_sum(2)


def test_genus_two_routes_agree():
    for a in range(3, 61):
        assert family_genus(a) == family_genus_sum(a)


def test_genus_equals_beta_sum():
    for a in range(3, 21):
        assert family_genus(a) == sum(beta(x) for x in range(1, fib(a)))


def test_genus_recurrence():
    assert family_genus_recurrence_check(5)
    assert family_genus_recurrence_check(7)
    assert family_genus_recurrence_check(30)
    for a in range(5, 101):
        assert family_genus_recurrence_check(a)
    with pytest.raises(ValueError):
        family_genus_recurrence_check(4)


def test_genus_recurrence_terms_recomputed():
    # the a = 7 instance, with both addends taken from the closed form
    assert family_genus(6) == 10
    assert family_genus(5) == 5
    assert family_genus(7) == family_genus(6) + family_genus(5) + fib(5)


# -- sparse-subset combinatorics -----------------------------------------------

def test_kaplansky_known_values():
    assert kaplansky_count(7, 2) == 6
    assert kaplansky_count(7, 4) == 0
    assert kaplansky_count(9, 3) == 10
    assert kaplansky_count(5, 0) == 1
    with pytest.raises(ValueError):
        kaplansky_count(1, 1)
    with pytest.raises(ValueError):
        kaplansky_count(5, -1)


def test_sparse_subsets_examples():
    assert enumerate_sparse_subsets(5, 1) == [(2,), (3,), (4,)]
    assert enumerate_sparse_subsets(7, 3) == [(2, 4, 6)]
    assert len(enumerate_sparse_subsets(8, 2)) == 10
    assert enumerate_sparse_subsets(4, 0) == [()]
    assert enumerate_sparse_subsets(2, 1) == []


def test_sparse_subsets_lex_order_and_validity():
    subs = enumerate_sparse_subsets(12, 3)
    assert subs == sorted(subs)
    for s in subs:
        assert all(2 <= v <= 11 for v in s)
        assert all(b - a >= 2 for a, b in zip(s, s[1:]))
    assert len(set(subs)) == len(subs)


def test_sparse_subsets_counts_match_kaplansky():
    for n in range(2, 21):
        for m in range(0, n):
            assert len(enumerate_sparse_subsets(n, m)) == kaplansky_count(n, m)


def test_sparse_subsets_enumeration_bound():
    with pytest.raises(EnumerationTooLarge):
        enumerate_sparse_subsets(41, 2)
    assert len(enumerate_sparse_subsets(40, 1)) == 38


def test_bijection_check_examples():
    assert zeckendorf_bijection_check(3)
    assert zeckendorf_bijection_check(7)
    assert zeckendorf_bijection_check(20)
    assert zeckendorf_bijection_check(26)  # no cap of its own past a = 25
    for bad in (-1, 0, 2):
        with pytest.raises(ValueError):
            zeckendorf_bijection_check(bad)


def _misread(monkeypatch, j: int, value: int, module=fib_family) -> None:
    """A bad key: ``module`` reads f_j as ``value``, and every other Fibonacci
    number as it is.  fib_family's proof at a reads f_j as a shift for j < a
    and as f_a at j = a; the block reference reads it as the value of bit j of
    its mask."""
    monkeypatch.setattr(module, "fib", lambda i: value if i == j else fib(i))


# (j, f_j as read): one too low or one too high for each f_j that the proof at
# a = 10 reads, and f_10 read as twice itself: the proof's f_a, and the value
# that runs block 10's steps past its last set, to {10}, worth more than the next x
BAD_KEYS = [(j, fib(j) + delta) for j in range(2, 11) for delta in (-1, 1)] + [(10, 2 * fib(10))]


@pytest.mark.parametrize("j, value", BAD_KEYS)
def test_bijection_check_rejects_a_bad_key(monkeypatch, j, value):
    a = 10
    assert zeckendorf_bijection_check(a)
    _misread(monkeypatch, j, value)
    assert zeckendorf_bijection_check(a) is False


@pytest.mark.parametrize("j, value", BAD_KEYS)
def test_block_check_rejects_a_bad_key_in_the_blocks_that_read_it(monkeypatch, j, value):
    # block j reads f_j as its end and in its count, and block j + 1 as its
    # start; each block from j + 3 on steps to a set holding j.  Block j + 2,
    # whose top member is j + 1, never sets bit j, and no block below j reads f_j
    _misread(monkeypatch, j, value, zeckendorf_blocks)
    failed = [k for k in range(3, 14) if not zeckendorf_block_check(k)]
    assert failed == [k for k in range(3, 14) if k in (j, j + 1) or k >= j + 3]


@pytest.mark.parametrize("k", range(3, 11))
def test_bijection_check_fails_at_every_a_that_reads_a_bad_key(monkeypatch, k):
    # the proof at a reads f_2..f_a, so f_k read one high fails it from a = k on
    _misread(monkeypatch, k, fib(k) + 1)
    assert [zeckendorf_bijection_check(a) for a in range(3, 11)] == [a < k for a in range(3, 11)]


def test_bijection_check_equals_the_block_reference(monkeypatch):
    # the proof at a against blocks 3..a, each enumerated set by set
    assert all(zeckendorf_bijection_check(a) == zeckendorf_bijection_by_blocks(a)
               for a in range(3, 26))
    # and with each bad key read by both: either fails from a = j on
    for j, value in BAD_KEYS:
        with monkeypatch.context() as m:
            _misread(m, j, value)
            _misread(m, j, value, zeckendorf_blocks)
            assert [zeckendorf_bijection_check(a) for a in range(3, 13)] == [
                zeckendorf_bijection_by_blocks(a) for a in range(3, 13)]


def test_bijection_check_builds_no_family_bitset(monkeypatch):
    # the bitset splits by the top member and the proof by the lowest, so a
    # slip in one cannot cancel in the other while the proof never reads it
    def refuse(*args, **kwargs):
        raise AssertionError("the bijection proof read the family bitset")

    monkeypatch.setattr(fib_family, "family_apery_bitset", refuse)
    assert all(zeckendorf_bijection_check(a) for a in range(3, 21))


@pytest.mark.parametrize("m", range(5))
def test_bijection_check_rejects_a_miscounted_size(monkeypatch, m):
    # sums filling f_a bits make the proof onto; the count of f_a subsets makes
    # it one to one, so one subset too many of any size must fail it
    real = fib_family.kaplansky_count
    monkeypatch.setattr(fib_family, "kaplansky_count",
                        lambda n, size: real(n, size) + (size == m))
    assert zeckendorf_bijection_check(10) is False


def test_bijection_check_holds_for_every_walked_index():
    # verify proves the bijection wherever it builds the family bitset: at
    # the default bound, f_30 = 832,040 residues, a = 3..30
    top = gamma(DEFAULT_TABLE_BOUND)
    assert top == 30
    assert all(zeckendorf_bijection_check(a) for a in range(3, top + 1))
    for bad in (-1, 0, 2):
        for check in (zeckendorf_bijection_check, zeckendorf_block_check):
            with pytest.raises(ValueError):
                check(bad)


def test_block_check_class_sizes_for_k7():
    # 8..12: {6}, then {6} with one of {2}, {3}, {4}, then {2, 4, 6}
    assert [len(zeckendorf_indices(x)) for x in range(fib(6), fib(7))] == [1, 2, 2, 2, 3]
    assert all(zeckendorf_indices(x)[-1] == 6 for x in range(fib(6), fib(7)))
    assert zeckendorf_block_check(7)


def test_bijection_check_memory_is_a_few_bitsets():
    # the sums are ints of f_a bits, f_30 / 8 = 104,005 bytes each; the proof
    # keeps two and makes two more per step, never a list of f_a entries
    a = 30
    fib(a)  # the Fibonacci memo is shared state, not the check's memory
    tracemalloc.start()
    try:
        assert zeckendorf_bijection_check(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * fib(a) // 8, peak


def test_bijection_class_sizes_for_a7():
    counts: dict[int, int] = {}
    for x in range(1, fib(7)):
        counts[beta(x)] = counts.get(beta(x), 0) + 1
    assert counts == {1: 5, 2: 6, 3: 1}
    assert sum(counts.values()) == fib(7) - 1 == 12


# -- summary --------------------------------------------------------------------

def test_summary_a7_exact():
    s = family_summary(7)
    assert s.generators == (13, 14, 15, 16, 18, 21)
    assert s.embedding_dimension == 6
    assert s.multiplicity == 13
    assert s.frobenius == 38
    assert s.genus == 20
    assert s.n_count == 19
    assert s.wilf_slack == 75


def test_summary_trivial_parameter():
    s = family_summary(0)
    assert s.generators == (1,)
    assert s.embedding_dimension == 1
    assert s.multiplicity == 1
    assert s.frobenius == -1
    assert s.genus == 0
    assert s.n_count == 0
    assert s.wilf_slack == 0


def test_summary_oracle_scale_and_identity_scale():
    # full oracle agreement where feasible
    s = family_summary(14)
    o = NumericalSemigroup(s.generators).summary()
    assert o.frobenius == s.frobenius
    assert o.genus == s.genus
    assert o.embedding_dimension == s.embedding_dimension
    assert o.multiplicity == s.multiplicity
    assert o.n_count == s.n_count
    assert o.wilf_holds and o.wilf_slack == s.wilf_slack
    assert o.minimal_generators == s.generators
    # internal identities only, far beyond oracle scale
    big = family_summary(25)
    assert big.genus + big.n_count == big.frobenius + 1
    assert big.wilf_slack == big.embedding_dimension * big.n_count - (big.frobenius + 1)


def test_summary_large_parameter_exact_arithmetic():
    s = family_summary(90)
    assert s.frobenius == 44 * fib(90) - 1
    assert s.multiplicity == fib(90)
    assert s.embedding_dimension == 89
    assert s.genus + s.n_count == s.frobenius + 1
    assert s.wilf_slack >= 0


def test_wilf_slack_nonnegative_sweep():
    for a in range(0, 101):
        assert family_summary(a).wilf_slack >= 0


def test_wilf_slack_closed_form_and_its_bounds():
    # README, "Wilf's inequality for every a": 10 * slack in f_a and f_{a-2},
    # and the bound from 2 * f_{a-2} <= f_a that makes it nonnegative
    for a in range(3, 400):
        fa, fa2 = fib(a), fib(a - 2)
        assert 2 * fa2 <= fa
        if a % 2:
            ten_slack = (a - 1) * (3 * (a - 2) * fa - 2 * a * fa2)
            bound = (a - 1) * (2 * a - 6)
        else:
            ten_slack = (a - 2) * (3 * a - 8) * fa - 2 * a * (a - 1) * fa2
            bound = 2 * a * a - 13 * a + 16
            assert bound == 2 * (a - 6) ** 2 + 11 * (a - 6) + 10
        assert ten_slack == 10 * family_summary(a).wilf_slack
        if a != 4:
            assert ten_slack >= bound * fa and bound >= 0
    assert family_summary(3).wilf_slack == family_summary(4).wilf_slack == 0


def test_summary_columns_are_nondecreasing_by_the_readme_steps():
    # README, "Every table column is nondecreasing in a": with p = f_{a-2} and
    # q = f_{a-1}, 10 * the step of n and of the slack from a to a + 1, by parity
    for a in range(2, 400):
        p, q = fib(a - 2), fib(a - 1)
        if a % 2:
            ten_dn = 2 * (a - 1) * p + (a - 7) * q
            ten_ds = (a - 1) * (2 * a + 1) * p + (a * a - 9 * a + 4) * q
        else:
            ten_dn = (2 * a + 8) * p + (a + 8) * q
            ten_ds = (2 * a * a + 9 * a - 16) * p + (a + 8) * (a - 2) * q
        now, then = family_summary(a), family_summary(a + 1)
        assert 10 * (then.n_count - now.n_count) == ten_dn >= 0
        assert 10 * (then.wilf_slack - now.wilf_slack) == ten_ds >= 0
        if a >= 3:
            assert q <= 2 * p
    # the seven fields are the seven columns of table
    for a in range(400):
        assert all(map(int.__le__, family_summary(a), family_summary(a + 1)))


def test_apery_last_entry_is_the_largest():
    # w(f_a - 1) = F + f_a, the top entry that text apery sizes its column by
    for a in range(3, 22):
        w = family_apery(a).w
        assert w[-1] == max(w) == family_frobenius(a) + fib(a)


def test_membership_inclusion_of_later_fibonacci():
    # every fib(n) with n >= a lies in the semigroup
    for a in range(3, 13):
        sg = NumericalSemigroup(family_generators(a))
        for n in range(a, a + 9):
            assert sg.contains(fib(n))


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=80, deadline=None)
def test_summary_identities_random_parameter(a):
    s = family_summary(a)
    assert s.genus + s.n_count == s.frobenius + 1
    assert s.wilf_slack == s.embedding_dimension * s.n_count - (s.frobenius + 1)
    assert s.wilf_slack >= 0
    assert s.multiplicity == s.generators[0]
    assert s.embedding_dimension == len(s.generators)


def test_negative_parameter_rejected():
    for fn in (family_generators, family_frobenius, family_genus, family_summary):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        family_apery(-1)
    with pytest.raises(ValueError):
        family_apery_bitset(-1)
    with pytest.raises(ValueError):
        family_apery_value(-1, 0)
