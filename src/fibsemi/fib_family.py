"""Closed-form invariants for semigroups generated by a Fibonacci tail shift.

For an index a the generators are f_a + f_0, f_a + f_1, f_a + f_2, ... taken
over the whole Fibonacci sequence; only finitely many matter because every
f_a + f_k with k >= a folds into earlier ones.  Everything here is a formula
or a small combinatorial count, so results for astronomically large ``a`` are
cheap.  The ``semigroup_core`` oracle recomputes the same invariants by brute
force in the feasible range and the tests require exact agreement.
"""
from __future__ import annotations

import os
from collections import namedtuple
from math import comb

from .fibonacci import beta, fib, gamma
from .semigroup_core import AperyTable, ResourceLimit

__all__ = [
    "TableTooLarge",
    "DEFAULT_TABLE_BOUND",
    "family_generators",
    "family_apery",
    "family_apery_bitset",
    "family_frobenius",
    "family_genus",
    "family_genus_sum",
    "family_genus_recurrence_check",
    "kaplansky_count",
    "zeckendorf_bijection_check",
    "FamilySummary",
    "family_summary",
]

DEFAULT_TABLE_BOUND = 1_000_000  # largest f_a (residues) of an Apery table or bitset

# Bytes of memory per entry of a family_apery table: one 8-byte tuple slot and
# one int.  tracemalloc reads 40.0 B per entry at a = 22 and a = 28.
APERY_ENTRY_BYTES = 40


class TableTooLarge(ResourceLimit):
    """A full Apery table was requested for an index with f_a above the bound."""


def family_generators(a: int) -> tuple[int, ...]:
    """Minimal generating set: f_a + f_k for k = 0 and 2 <= k <= a - 1.

    The k = 1 shift duplicates k = 2 and every k >= a folds into smaller
    shifts, leaving exactly a - 1 generators once a >= 3.  For a <= 2 the
    semigroup is all of N, minimally generated by 1.
    """
    if a < 0:
        raise ValueError("index must be nonnegative")
    fa = max(fib(a), 1)
    return (fa,) + tuple(fa + fib(k) for k in range(2, a))


def family_apery(a: int, *, table_bound: int = DEFAULT_TABLE_BOUND) -> AperyTable:
    """Full Apery table at the multiplicity f_a, straight from the formula."""
    if a < 0:
        raise ValueError("index must be nonnegative")
    _refuse_apery_table(a, table_bound)
    fa = max(fib(a), 1)
    return AperyTable(fa, tuple(beta(x) * fa + x for x in range(fa)))


def family_apery_bitset(a: int, *, table_bound: int = DEFAULT_TABLE_BOUND) -> int:
    """:func:`family_apery` as one int, with bit beta(x) * f_a + x set for each x.

    Built by the sparse-subset bijection's split [0, f_{j+1}) = [0, f_j) ++
    (f_j + [0, f_{j-1})), with beta one higher on the second block: layer
    L^j_k, the int with bit x set for each x < f_j with beta(x) = k, grows as
    L^{j+1}_k = L^j_k | (L^{j-1}_{k-1} << f_j) from the seed layers [1] on
    [0, f_2) and [1, 0b10] on [0, f_3).  Layer k of [0, f_a) lands at k * f_a.
    """
    if a < 0:
        raise ValueError("index must be nonnegative")
    if a <= 2:
        return 1
    _refuse_oversized_table(a, table_bound)
    below, layers = [1], [1, 0b10]
    for j in range(3, a):
        grown = layers + [0] * (len(below) + 1 - len(layers))
        for k, layer in enumerate(below, start=1):
            grown[k] |= layer << fib(j)
        below, layers = layers, grown
    del below  # free the layers of [0, f_{a-1}) before the join
    fa = fib(a)
    bits = 0
    while layers:  # top layer first, each freed once it is joined
        bits = bits << fa | layers.pop()
    return bits


def _refuse_oversized_table(a: int, table_bound: int) -> None:
    """Raise TableTooLarge when f_a exceeds ``table_bound``: a > gamma(bound)
    is refused before f_a, which has about a / 5 digits, is ever computed."""
    top = gamma(max(table_bound, 0))
    if a > top:
        need = f"= {fib(a)}" if a == top + 1 else f">= f_{top + 1} = {fib(top + 1)}"
        raise TableTooLarge(
            f"Apery table needs f_{a} {need} entries, above the bound {table_bound}"
        )


def _refuse_apery_table(a: int, table_bound: int) -> None:
    """Raise what :func:`family_apery` refuses, before any beta is computed.

    Past ``table_bound``, TableTooLarge.  Past physical memory, at
    APERY_ENTRY_BYTES per entry, ResourceLimit: no bound can help a table
    that no run can hold.  Where the platform does not report its memory,
    nothing is refused for memory; nor is the one-entry table at a <= 2.
    """
    if a <= 2:
        return
    _refuse_oversized_table(a, table_bound)
    try:
        pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return
    if pages <= 0 or page <= 0:
        return
    fa = fib(a)
    need, memory = fa * APERY_ENTRY_BYTES, pages * page
    if need > memory:
        raise ResourceLimit(
            f"Apery table of f_{a} = {fa} entries needs {need} bytes, "
            f"over the {memory} bytes of physical memory"
        )


def family_frobenius(a: int) -> int:
    """F = floor((a - 1) / 2) * f_a - 1.

    The largest Apery value has residue f_a - 1, whose minimal summand count
    is floor((a - 1) / 2).  Yields -1 for a = 2 as well, consistent with
    S = N there.
    """
    if a < 0:
        raise ValueError("index must be nonnegative")
    if a < 2:
        return -1
    return ((a - 1) // 2) * fib(a) - 1


def family_genus_sum(a: int) -> int:
    """Genus as the weighted sparse-subset count sum_i i * C(a - 1 - i, i).

    The O(a) reference route for :func:`family_genus`, kept off its hot
    path; ``verify`` and the tests hold the two equal.
    """
    if a < 3:
        raise ValueError("the combinatorial sum needs index at least 3")
    return sum(i * kaplansky_count(a, i) for i in range(1, (a - 1) // 2 + 1))


def family_genus(a: int) -> int:
    """g = ((a - 2) * f_a + a * f_{a-2}) / 5, always an exact integer."""
    if a < 0:
        raise ValueError("index must be nonnegative")
    if a < 2:
        return 0
    num = (a - 2) * fib(a) + a * fib(a - 2)
    assert num % 5 == 0, "closed-form genus numerator must be divisible by 5"
    return num // 5


def family_genus_recurrence_check(a: int) -> bool:
    """Check g(a) = g(a - 1) + g(a - 2) + f_{a-2}, the genus analogue of the
    Fibonacci recurrence.  Valid from a = 5 on, once both predecessors are
    genuine members of the family."""
    if a < 5:
        raise ValueError("the recurrence needs index at least 5")
    return family_genus(a) == family_genus(a - 1) + family_genus(a - 2) + fib(a - 2)


def kaplansky_count(n: int, m: int) -> int:
    """Number of m-element subsets of {2..n-1} with no two consecutive members.

    Equals C(n-1-m, m); zero as soon as 2m exceeds n - 1, and one for the
    empty set.
    """
    if n < 2:
        raise ValueError("index bound must be at least 2")
    if m < 0:
        raise ValueError("subset size must be nonnegative")
    if m == 0:
        return 1
    if 2 * m > n - 1:
        return 0
    return comb(n - 1 - m, m)


def zeckendorf_bijection_check(a: int) -> bool:
    """The sparse subsets of {2..a - 1} sum one to one onto [0, f_a):
    Zeckendorf's theorem below f_a.

    T_j, the int with bit s set for each sum s of a sparse subset of
    {j..a - 1}, is built down by the lowest member from T_a = T_{a+1} = 1 (the
    empty set): a subset omits j, or holds j and omits j + 1, so
    T_j = T_{j+1} | (T_{j+2} << f_j).  The check holds when there are f_a
    subsets, sum_m kaplansky_count(a, m), and T_2 is all of [0, f_a): f_a
    subsets whose sums fill f_a bits sum one to one.  It reads only ``fib``
    and ``kaplansky_count``, never :func:`family_apery_bitset`, which splits
    by the top member instead.
    """
    if a < 3:
        raise ValueError("the bijection check needs index at least 3")
    fa = fib(a)
    if sum(kaplansky_count(a, m) for m in range((a - 1) // 2 + 1)) != fa:
        return False
    above, sums = 1, 1  # T_{j+2} and T_{j+1}
    for j in range(a - 1, 1, -1):
        above, sums = sums, sums | above << fib(j)
    return sums == (1 << fa) - 1


class FamilySummary(namedtuple(
        "FamilySummary",
        "a embedding_dimension multiplicity frobenius genus n_count wilf_slack")):
    """Closed-form invariants for one family index."""

    __slots__ = ()

    @property
    def generators(self) -> tuple[int, ...]:
        """The minimal generators, built on each access: a - 1 big integers."""
        return family_generators(self.a)


def family_summary(a: int) -> FamilySummary:
    """All closed-form invariants: a fixed few big-integer operations per ``a``.

    e = a - 1 is the paper's count of minimal generators and m = f_a the
    least of them (both 1 for a <= 2, where S = N); the generator tuple
    itself is only built when :attr:`FamilySummary.generators` is read.
    n_count comes from the identity g + n = F + 1 rather than enumeration,
    and the Wilf slack is e * n - (F + 1).  Neither is asserted nonnegative
    here: ``verify`` checks both, and e and m against the generator tuple,
    as labelled checks, so a faulty closed form is reported as a mismatch
    rather than raised.
    """
    if a < 0:
        raise ValueError("index must be nonnegative")
    e, m = (a - 1, fib(a)) if a >= 3 else (1, 1)
    f = family_frobenius(a)
    g = family_genus(a)
    n = f + 1 - g
    return FamilySummary(
        a=a,
        embedding_dimension=e,
        multiplicity=m,
        frobenius=f,
        genus=g,
        n_count=n,
        wilf_slack=e * n - (f + 1),
    )
