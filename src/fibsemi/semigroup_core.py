"""Generic numerical-semigroup oracle, computed from first principles.

No family shortcuts live here.  Membership is a reachability bitset R over
the generators, built window by window (every generator is at least m, so
each window of R follows from the windows below it) and kept as the one int
its windows are joined into; the Apery set of a pivot n is R & ~(R << n),
{s in S : s - n not in S}.  Every other invariant derives from R: F is its
highest clear cell, membership shifts it, n(S) and the minimal generators
mask it, the gap list copies it to bytes once, and the genus is read off the
Apery bitset at the multiplicity.  The test suite plays it against an
independent route: Nijenhuis's shortest paths on the residue graph.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import repeat
from math import gcd
from operator import mod, ne

__all__ = [
    "SemigroupError",
    "EmptyGenerators",
    "ZeroGenerator",
    "NotCoprime",
    "PivotZero",
    "PivotNotInSemigroup",
    "ResourceLimit",
    "AperyTable",
    "SemigroupSummary",
    "NumericalSemigroup",
    "DEFAULT_CELL_LIMIT",
]

DEFAULT_CELL_LIMIT = 10_000_000  # membership-table cells (bits)

# Fewest cells in a window of the membership table, whose width is the least
# multiple of m that holds this many.  genus(), best of 5 calls (2 CPUs,
# CPython 3.11.7), at floors of 1, 1,024, 4,096 and 16,384 cells: <2, 2 *
# 10^6 + 1> took 433, 3.5, 1.6 and 1.1 ms, <100, 10^5 + 1> 78, 19, 14 and
# 12 ms, and <13, 14, 15, 16, 18, 21> 8, 8, 15 and 43 us.
WINDOW_MIN_CELLS = 4_096

class SemigroupError(Exception):
    """Base class for validation and resource errors raised by this package."""


class EmptyGenerators(SemigroupError):
    """No generators were supplied."""


class ZeroGenerator(SemigroupError):
    """A generator was zero or negative."""


class NotCoprime(SemigroupError):
    """The generators share a common factor, so the complement is infinite."""


class PivotZero(SemigroupError):
    """The Apery pivot must be a positive element."""


class PivotNotInSemigroup(SemigroupError):
    """The Apery pivot does not belong to the semigroup."""


class ResourceLimit(SemigroupError):
    """A computation would exceed its configured table budget."""


class AperyTable(namedtuple("AperyTable", "n w")):
    """Least semigroup element in each residue class modulo the pivot ``n``.

    ``w[i]`` is the least element congruent to i mod n; w[0] is always 0 and
    the table has exactly n entries.
    """

    __slots__ = ()

    def __init__(self, n: int, w: tuple[int, ...]) -> None:
        if n <= 0:
            raise ValueError("pivot must be positive")
        if len(w) != n:
            raise ValueError(f"expected {n} entries, got {len(w)}")
        if w[0] != 0:
            raise ValueError("w(0) must be 0")
        if any(map(ne, map(mod, w, repeat(n)), range(n))):
            # the pass above names no residue; find the first bad one
            i, wi = next((i, wi) for i, wi in enumerate(w) if wi % n != i)
            raise ValueError(f"w({i}) = {wi} is not congruent to {i} mod {n}")


class SemigroupSummary(namedtuple(
        "SemigroupSummary",
        "frobenius genus embedding_dimension multiplicity n_count wilf_holds "
        "wilf_slack minimal_generators")):
    """Aggregate invariants of one semigroup, as computed by the oracle: e, F,
    g and n, and Wilf's inequality F + 1 <= e * n with its slack e * n - (F + 1).
    """

    __slots__ = ()


class NumericalSemigroup:
    """A validated coprime generator list with lazily computed invariants.

    Instances are immutable after construction.  The membership table R is
    the one cache; every other invariant is recomputed from it on each call.
    Every table shares one budget of ``cell_limit`` cells (bits): the
    membership table, which needs F + m + 1 cells, refuses to grow past it,
    and the Apery table of a pivot n, which needs F + n + 1, is refused
    before it is allocated.
    """

    __slots__ = ("generators", "multiplicity", "cell_limit", "_reach")

    def __init__(self, generators: Iterable[int], *, cell_limit: int = DEFAULT_CELL_LIMIT):
        gens = sorted(set(generators))
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] <= 0:
            raise ZeroGenerator(f"generators must be positive, got {gens[0]}")
        g = gcd(*gens)
        if g != 1:
            raise NotCoprime(f"generators {gens} have gcd {g}")
        self.generators: tuple[int, ...] = tuple(gens)
        self.multiplicity: int = gens[0]
        self.cell_limit = cell_limit
        self._reach: tuple[int, int] | None = None

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.generators!r}"

    # -- membership -------------------------------------------------------

    def _reachability(self) -> tuple[int, int]:
        """(F, R): bit x of the int R is set iff x is an element, for x in its
        cells.  R is built window by window, each ``width`` cells, a multiple
        of m: as every generator is at least m, window j is the union of the
        earlier windows shifted up by each generator, closed under the
        generators narrower than a window.  The pass stops at the first window
        whose top m cells are elements, past which every integer is one, so F
        is the highest clear cell and R, its windows joined pairwise, has at
        least F + m + 1 cells.  It is refused when F + m + 1 passes
        ``cell_limit``, having built at most one window past the budget.
        """
        if self._reach is None:
            m, limit = self.multiplicity, self.cell_limit
            if m > limit:  # refused before anything of size m is built
                self._refuse()
            width = -(-WINDOW_MIN_CELLS // m) * m
            mask = (1 << width) - 1
            narrow = [g for g in self.generators if g < width]
            windows: list[int] = []
            while True:
                base = len(windows) * width
                window = 0 if windows else 1
                for g in self.generators:
                    if g >= base + width:
                        break  # g and every later generator reach below 0
                    # cells [base - g, base - g + width), from at most two
                    # earlier windows; the part inside this window, for a
                    # narrow g, is the closure's
                    q, shift = divmod(base - g, width)
                    if q >= 0:
                        window |= windows[q] >> shift
                    if shift and q + 1 < len(windows):
                        window |= windows[q + 1] << (width - shift)
                window &= mask
                for g in narrow:
                    step = g
                    while step < width:
                        window |= (window << step) & mask
                        step <<= 1
                windows.append(window)
                if (window ^ mask) >> (width - m) == 0 or base + width >= limit:
                    break
            # F is the highest clear cell: in the last window not all elements.
            # A pass cut at the budget left a clear cell in its top m, so is refused
            f = next((j * width + (windows[j] ^ mask).bit_length() - 1
                      for j in reversed(range(len(windows))) if windows[j] != mask), -1)
            if f + m + 1 > limit:
                self._refuse()
            while len(windows) > 1:  # join pairwise: log(windows) passes over R
                joined = [lo | hi << width for lo, hi in zip(windows[::2], windows[1::2])]
                windows = joined + windows[len(joined) * 2:]
                width *= 2
            self._reach = (f, windows[0])
        return self._reach

    def _refuse(self) -> None:
        raise ResourceLimit(
            f"membership table: no run of {self.multiplicity} consecutive elements "
            f"within the {self.cell_limit}-cell budget"
        )

    def contains(self, x: int) -> bool:
        """Membership: every x > F, else bit x of R (no Apery involvement)."""
        if x < 0:
            return False
        f, reach = self._reachability()
        return x > f or bool(reach >> x & 1)

    # -- Apery sets and the invariants built on them -----------------------

    def apery_bitset(self, n: int) -> int:
        """Apery set of ``n`` as one int: bit s is set iff s is in Ap(S, n).

        Ap(S, n) = {s in S : s - n not in S}, so its bits are R & ~(R << n)
        on [0, F + n], with every cell above F set: one per residue, the
        largest being F + n.  That needs F + n + 1 cells of ``cell_limit``;
        a pivot that needs more is refused before anything is allocated.
        """
        if n <= 0:
            raise PivotZero("Apery pivot must be a positive integer")
        if not self.contains(n):
            raise PivotNotInSemigroup(f"{n} is not an element of the semigroup")
        f, reach = self._reachability()
        cells = f + n + 1
        if cells > self.cell_limit:
            raise ResourceLimit(
                f"Apery table of pivot {n} needs {cells} cells (F + n + 1), "
                f"over the {self.cell_limit}-cell budget"
            )
        reach = reach & ((1 << (f + 1)) - 1) | ((1 << n) - 1) << (f + 1)
        return reach & ~(reach << n)

    def apery(self, n: int) -> AperyTable:
        """Apery set of ``n`` as a table, decoded from :meth:`apery_bitset`."""
        # bin()'s digits, reversed, split at each set bit: the runs of clear bits
        runs = bin(self.apery_bitset(n))[:1:-1].split("1")[:-1]
        w = [0] * n
        s = -1
        for run in runs:
            s += len(run) + 1  # the next set bit
            w[s % n] = s
        return AperyTable(n, tuple(w))

    def frobenius(self) -> int:
        """The highest clear cell of the membership table R; equals -1 exactly
        when the semigroup is all of N."""
        return self._reachability()[0]

    def genus(self) -> int:
        """Number of gaps: the sum of the k_i in w(i) = k_i * m + i over Ap(S, m).

        Window k of the Apery bitset, bits [k * m, (k + 1) * m), holds the w(i)
        with k_i = k, so this is the sum of k times the window's popcount.
        """
        m = self.multiplicity
        bits = self.apery_bitset(m)
        assert bits.bit_count() == m, "Ap(S, m) must have one element per residue"
        return _window_sum(bits, m)

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal system: nonzero elements that are not sums of two.

        Every minimal generator is one of the input generators.  An input
        generator g is a sum of two nonzero elements exactly when g - h is an
        element for some smaller input generator h: a nonzero summand s < g
        is h plus an element for some input generator h <= s.  So bit s of
        the sumset OR_h (nonzero << h) is set iff s is such a sum.

        Only sums up to top = min(largest generator, F + m) are read: a
        generator above F + m, other than m, is m plus a nonzero element.  Their
        summands are the nonzero elements up to top - m, read off R at once.
        """
        gens = self.generators
        m = self.multiplicity
        f, reach = self._reachability()
        top = max(m, min(gens[-1], f + m))  # top = m only for S = N
        nonzero = reach & ((1 << (top - m + 1)) - 2)
        sums = 0
        for h in gens:
            if h > top:
                break
            sums |= nonzero << h
        return tuple(g for g in gens if g == m or (g <= top and not sums >> g & 1))

    def embedding_dimension(self) -> int:
        return len(self.minimal_generators())

    def n_count(self) -> int:
        """Number of elements strictly below the Frobenius number."""
        f, reach = self._reachability()
        return (reach & ((1 << max(f, 0)) - 1)).bit_count()  # F = -1 for S = N

    def gaps(self) -> list[int]:
        """All nonmembers in increasing order; the length equals the genus."""
        f, reach = self._reachability()
        # a byte index is O(1) per cell, where R >> x copies all of R above x
        table = reach.to_bytes(reach.bit_length() // 8 + 1, "little")
        return [x for x in range(1, f + 1) if not table[x >> 3] >> (x & 7) & 1]

    def summary(self) -> SemigroupSummary:
        """All invariants at once, with the g + n = F + 1 identity asserted.
        The minimal generators are found once; e and Wilf's slack derive from
        them."""
        n = self.n_count()
        f = self.frobenius()
        g = self.genus()
        assert g + n == f + 1, "genus + n(S) must equal F(S) + 1"
        minimal = self.minimal_generators()
        slack = len(minimal) * n - (f + 1)
        return SemigroupSummary(
            frobenius=f,
            genus=g,
            embedding_dimension=len(minimal),
            multiplicity=self.multiplicity,
            n_count=n,
            wilf_holds=slack >= 0,
            wilf_slack=slack,
            minimal_generators=minimal,
        )


def _window_sum(bits: int, m: int) -> int:
    """Sum over k of k * popcount(bits[k * m, (k + 1) * m)), halving at a window
    boundary: O(size * log(windows)) work, however narrow the windows."""
    windows = -(-bits.bit_length() // m)
    if windows <= 1:
        return 0
    cut = windows // 2 * m
    high = bits >> cut  # its windows sit windows // 2 higher in bits
    return (_window_sum(bits & ((1 << cut) - 1), m) + _window_sum(high, m)
            + windows // 2 * high.bit_count())
