"""Brute-force oracle: membership, Apery sets, and the derived invariants."""
from __future__ import annotations

import heapq
import time
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibsemi import semigroup_core
from fibsemi.fib_family import family_generators
from fibsemi.semigroup_core import (
    AperyTable,
    EmptyGenerators,
    NotCoprime,
    NumericalSemigroup,
    PivotNotInSemigroup,
    PivotZero,
    ResourceLimit,
    ZeroGenerator,
)


def test_constructor_sorts_and_dedupes():
    sg = NumericalSemigroup([9, 6, 20, 6])
    assert sg.generators == (6, 9, 20)
    assert sg.multiplicity == 6


def test_constructor_rejects_empty():
    with pytest.raises(EmptyGenerators):
        NumericalSemigroup([])


def test_constructor_rejects_nonpositive():
    with pytest.raises(ZeroGenerator):
        NumericalSemigroup([0, 3])
    with pytest.raises(ZeroGenerator):
        NumericalSemigroup([-2, 5])


def test_constructor_rejects_common_factor():
    with pytest.raises(NotCoprime):
        NumericalSemigroup([4, 6])
    with pytest.raises(NotCoprime):
        NumericalSemigroup([10])


def test_membership_small_cases():
    sg = NumericalSemigroup([3, 5])
    members = [x for x in range(16) if sg.contains(x)]
    assert members == [0, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15]
    assert not sg.contains(-4)


def test_membership_around_frobenius():
    sg = NumericalSemigroup([13, 14, 15, 16, 18, 21])
    assert sg.contains(0)
    assert not sg.contains(38)
    assert sg.contains(39)


def test_membership_table_budget():
    sg = NumericalSemigroup([3, 5], cell_limit=100)
    assert sg.contains(7) is False
    assert sg.contains(1_000) is True  # past F, so no table reaches it
    # the table runs to its Frobenius horizon F + m = 10, whatever is asked
    starved = NumericalSemigroup([3, 5], cell_limit=8)
    for ask in (lambda: starved.contains(1), starved.n_count, starved.gaps,
                starved.minimal_generators):
        with pytest.raises(ResourceLimit):
            ask()
    # a budget below m, even a negative one, cannot hold a run of m elements
    for limit in (0, -1):
        with pytest.raises(ResourceLimit, match="no run of 3 consecutive"):
            NumericalSemigroup([3, 5], cell_limit=limit).frobenius()
    # F + m + 1 = 11 cells: the last try, at exactly the budget, fits
    assert NumericalSemigroup([3, 5], cell_limit=11).gaps() == [1, 2, 4, 7]


def test_apery_table_validation():
    with pytest.raises(ValueError):
        AperyTable(0, ())
    with pytest.raises(ValueError):
        AperyTable(3, (0, 1))
    with pytest.raises(ValueError):
        AperyTable(3, (1, 4, 2))
    with pytest.raises(ValueError):
        AperyTable(3, (0, 2, 4))  # entries must match their residue


def test_apery_pivot_validation():
    sg = NumericalSemigroup([6, 9, 20])
    with pytest.raises(PivotZero):
        sg.apery(0)
    with pytest.raises(PivotNotInSemigroup):
        sg.apery(7)
    with pytest.raises(ResourceLimit):
        NumericalSemigroup([5, 7], cell_limit=4).apery(5)


def test_apery_table_budget():
    # <3, 5> has F = 7: the table of pivot 8 needs F + 8 + 1 = 16 cells
    assert NumericalSemigroup([3, 5], cell_limit=16).apery(8).w == (0, 9, 10, 3, 12, 5, 6, 15)
    with pytest.raises(ResourceLimit, match="needs 16 cells .* 15-cell budget"):
        NumericalSemigroup([3, 5], cell_limit=15).apery(8)
    # at the multiplicity it needs exactly the membership table's F + m + 1
    assert NumericalSemigroup([3, 5], cell_limit=11).apery(3).w == (0, 10, 5)
    # a huge pivot is refused before anything of its size is allocated
    with pytest.raises(ResourceLimit, match="needs 100000000000000000008 cells"):
        NumericalSemigroup([3, 5]).apery(10**20)


def test_apery_and_its_bitset_refuse_a_pivot_alike():
    sg = NumericalSemigroup([3, 5], cell_limit=15)
    with pytest.raises(ResourceLimit) as table:
        sg.apery(8)
    with pytest.raises(ResourceLimit) as bits:
        sg.apery_bitset(8)
    assert str(table.value) == str(bits.value) == (
        "Apery table of pivot 8 needs 16 cells (F + n + 1), over the 15-cell budget")
    assert sg.apery_bitset(3) == 1 | 1 << 5 | 1 << 10  # Ap(<3,5>, 3) = {0, 5, 10}


def test_genus_with_narrow_windows_is_fast():
    # m = 2 and F near 2 * 10^6: a million windows of two cells each
    sg = NumericalSemigroup([2, 2 * 10**6 + 1])
    t0 = time.perf_counter()
    assert (sg.frobenius(), sg.genus()) == (2 * 10**6 - 1, 10**6)
    assert time.perf_counter() - t0 < 2.0


def test_apery_out_of_budget_semigroup_refused_quickly():
    # F is about 10^12: the membership table gives up at the 10^7-cell budget
    sg = NumericalSemigroup([1000003, 1000033])
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimit):
        sg.apery(2000006)
    with pytest.raises(ResourceLimit):
        sg.frobenius()
    assert time.perf_counter() - t0 < 5.0


def test_apery_known_table():
    # Ap(<3,5>, 3) = {0, 5, 10}
    assert NumericalSemigroup([3, 5]).apery(3) == AperyTable(3, (0, 10, 5))


def test_apery_nonminimal_pivot():
    sg = NumericalSemigroup([3, 5])
    table = sg.apery(8)  # 8 = 3 + 5 is an element, not a generator
    assert table.w == (0, 9, 10, 3, 12, 5, 6, 15)


def test_apery_agrees_with_membership_definition():
    # w(i) is the least member in its class; w(i) - n is never a member
    for gens in [(3, 5), (6, 9, 20), (13, 14, 15, 16, 18, 21), (7, 11, 13)]:
        sg = NumericalSemigroup(gens)
        for n in (sg.multiplicity, sg.generators[-1]):
            table = sg.apery(n)
            for i, w in enumerate(table.w):
                assert sg.contains(w)
                assert not sg.contains(w - n)
                for smaller in range(i, w, n):
                    assert not sg.contains(smaller)


def test_frobenius_and_genus_textbook_values():
    mcnugget = NumericalSemigroup([6, 9, 20])
    assert mcnugget.frobenius() == 43
    assert mcnugget.genus() == 22
    assert NumericalSemigroup([3, 5]).frobenius() == 7
    assert NumericalSemigroup([3, 5]).genus() == 4


def test_whole_naturals():
    sg = NumericalSemigroup([1])
    assert sg.frobenius() == -1
    assert sg.genus() == 0
    assert sg.gaps() == []
    assert sg.n_count() == 0
    assert sg.minimal_generators() == (1,)
    assert sg.summary().wilf_holds


def test_two_generator_closed_forms():
    # Sylvester: F = pq - p - q and g = (p-1)(q-1)/2 for coprime p, q
    for p in range(2, 12):
        for q in range(p + 1, 20):
            if gcd(p, q) != 1:
                continue
            sg = NumericalSemigroup([p, q])
            assert sg.frobenius() == p * q - p - q
            assert sg.genus() == (p - 1) * (q - 1) // 2
            assert sg.minimal_generators() == (p, q)


def test_minimal_generators_drops_redundant():
    sg = NumericalSemigroup([4, 6, 9, 10, 13])
    # 10 = 4 + 6 and 13 = 4 + 9 are sums of smaller elements
    assert sg.minimal_generators() == (4, 6, 9)
    assert sg.embedding_dimension() == 3
    # 34 = 13 + 21 is already reachable
    with_extra = NumericalSemigroup([13, 14, 15, 16, 18, 21, 34])
    assert with_extra.minimal_generators() == (13, 14, 15, 16, 18, 21)
    # a redundant huge generator: it lies past F, so no table reaches it
    far = NumericalSemigroup([4, 6, 9, 10**8 + 1], cell_limit=100)
    assert far.minimal_generators() == (4, 6, 9)


def test_minimal_generators_make_no_membership_call(monkeypatch):
    wide = NumericalSemigroup(range(1000, 2000))
    family = NumericalSemigroup(family_generators(12))

    def refuse(self, x):
        raise AssertionError(f"contains({x}) called")

    monkeypatch.setattr(NumericalSemigroup, "contains", refuse)
    assert wide.minimal_generators() == tuple(range(1000, 2000))
    assert family.minimal_generators() == family_generators(12)


def test_minimal_generators_with_unit():
    assert NumericalSemigroup([1, 5]).minimal_generators() == (1,)


def test_gaps_small_case():
    assert NumericalSemigroup([3, 5]).gaps() == [1, 2, 4, 7]
    assert NumericalSemigroup([3, 5]).n_count() == 4


def test_wilf_equality_case():
    s = NumericalSemigroup([3, 5]).summary()
    assert s.wilf_holds and s.wilf_slack == 0


def test_gaps_and_identity():
    sg = NumericalSemigroup([6, 9, 20])
    gaps = sg.gaps()
    assert len(gaps) == sg.genus()
    assert gaps[-1] == sg.frobenius()
    assert 43 in gaps and 44 not in gaps
    s = sg.summary()
    assert s.genus + s.n_count == s.frobenius + 1


def test_wilf_check_values():
    sg = NumericalSemigroup([6, 9, 20])
    s = sg.summary()
    assert s.wilf_holds
    assert s.wilf_slack == 3 * sg.n_count() - 44
    assert s.wilf_slack >= 0


def test_summary_fields():
    s = NumericalSemigroup([13, 14, 15, 16, 18, 21]).summary()
    assert s.frobenius == 38
    assert s.genus == 20
    assert s.embedding_dimension == 6
    assert s.multiplicity == 13
    assert s.n_count == 19
    assert s.wilf_holds


@st.composite
def coprime_generators(draw):
    gens = draw(st.lists(st.integers(min_value=2, max_value=60),
                         min_size=1, max_size=5))
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        gens.append(g + 1)  # consecutive integers are coprime
    return gens


def dijkstra_apery(gens, n):
    """Ap(S, n) by Nijenhuis's minimal-path algorithm (Amer. Math. Monthly,
    1979): single-source shortest paths on the residues mod n, each arc
    adding one generator; the distance to residue r is the least element
    congruent to r.  An independent route to compare the bitset against.
    """
    dist = [None] * n
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue  # stale entry
        for g in gens:
            nd, nr = d + g, (r + g) % n
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return tuple(dist)  # gcd 1: every residue is reached


@given(coprime_generators())
@settings(max_examples=150, deadline=None)
def test_apery_bitset_equals_dijkstra(gens):
    sg = NumericalSemigroup(gens)
    m, top = sg.multiplicity, sg.generators[-1]
    # the multiplicity, the largest generator, and an element that is no generator
    for n in (m, top, m + top):
        w = dijkstra_apery(sg.generators, n)
        assert sg.apery(n) == AperyTable(n, w)
        assert sg.apery_bitset(n) == sum(1 << wi for wi in w)
    # g + n(S) = F + 1, with F and g from the Dijkstra table, n(S) from the bitset
    w = dijkstra_apery(sg.generators, m)
    f = max(w) - m
    twice_g = 2 * sum(w) - m * (m - 1)
    assert twice_g % (2 * m) == 0
    assert twice_g // (2 * m) + sg.n_count() == f + 1
    # F from R's highest clear cell, g from the bitset's windows: against the same table
    assert sg.frobenius() == f
    assert sg.genus() == sum((wi - i) // m for i, wi in enumerate(w))
    # membership, the gap list and n(S), each read off R in its own way, against
    # the same table: x in S iff x >= w(x mod m), on both sides of F + m
    members = [x >= w[x % m] for x in range(f + 2 * m)]
    assert [sg.contains(x) for x in range(f + 2 * m)] == members
    assert sg.gaps() == [x for x in range(1, f + 1) if not members[x]]
    assert sg.n_count() == sum(members[:max(f, 0)])


@given(coprime_generators(), st.integers(min_value=1, max_value=128))
@example([3, 5], 1)  # windows of 3 cells, narrower than 5; the run 8..10 straddles two
@example([3, 5], 8)  # one window of 9 cells, closed under both; the run ends in the next
@example([5, 7], 5)  # windows of 5 cells; the run 24..28 straddles two
@settings(max_examples=150, deadline=None)
def test_windowed_reachability_equals_dijkstra(gens, floor):
    # windows as narrow as m, where no generator is narrower than one, and
    # wider, where some are: F, R and Ap(S, m) against Nijenhuis's table
    m = min(gens)
    width = -(-floor // m) * m
    w = dijkstra_apery(sorted(set(gens)), m)
    f = max(w) - m
    members = sum(1 << x for x in range(f + 1) if x >= w[x % m])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semigroup_core, "WINDOW_MIN_CELLS", floor)
        # one cell short of F + m + 1 refuses, however far its last window runs
        with pytest.raises(ResourceLimit, match=f"no run of {m} consecutive .* {f + m}-cell"):
            NumericalSemigroup(gens, cell_limit=f + m).frobenius()
        sg = NumericalSemigroup(gens, cell_limit=f + m + 1)
        got_f, reach = sg._reachability()
        assert got_f == f
        assert reach & ((1 << (f + 1)) - 1) == members
        assert reach.bit_length() < f + m + 1 + width  # the budget plus one window
        assert sg.apery_bitset(m) == sum(1 << wi for wi in w)


@given(coprime_generators())
@settings(max_examples=150, deadline=None)
def test_invariant_identities_random(gens):
    sg = NumericalSemigroup(gens)
    f = sg.frobenius()
    g = sg.genus()
    n = sg.n_count()
    assert g + n == f + 1
    assert f == -1 or not sg.contains(f)
    assert all(sg.contains(x) for x in range(f + 1, f + 50))
    assert sg.gaps() == [x for x in range(1, f + 1) if not sg.contains(x)]
    # Apery cardinality and the membership criterion x in S iff x >= w(x mod n)
    m = sg.multiplicity
    table = sg.apery(m)
    assert len(table.w) == m
    for x in range(0, f + 2 * m + 1):
        assert sg.contains(x) == (x >= table.w[x % m])
    msg = sg.minimal_generators()
    # the definition: nonzero elements that are not a sum of two nonzero
    # elements, all of which lie in [m, F + m] (m >= 2 here, so F >= 1)
    members = [x for x in range(m, f + m + 1) if sg.contains(x)]
    assert msg == tuple(x for x in members
                        if not any(sg.contains(x - y) for y in members if 2 * y <= x))
    assert NumericalSemigroup(gens + [msg[0] + msg[-1]]).minimal_generators() == msg
    regen = NumericalSemigroup(msg)
    assert regen.frobenius() == f
    assert regen.genus() == g
    assert regen.minimal_generators() == msg
