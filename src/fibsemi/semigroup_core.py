"""Generic numerical-semigroup oracle, computed from first principles.

No family shortcuts live here.  Membership is a reachability DP over the
generators and Apery sets come from shortest paths on the residue graph, two
independent routes that the test suite plays against each other.  Every other
invariant (Frobenius number, genus, minimal generators, gap list, Wilf check)
derives from those primitives.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple

__all__ = [
    "SemigroupError",
    "EmptyGenerators",
    "ZeroGenerator",
    "NotCoprime",
    "PivotZero",
    "PivotNotInSemigroup",
    "ResourceLimit",
    "AperyTable",
    "WilfResult",
    "SemigroupSummary",
    "NumericalSemigroup",
    "DEFAULT_CELL_LIMIT",
]

DEFAULT_CELL_LIMIT = 10_000_000  # membership-DP table cells


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


@dataclass(frozen=True)
class AperyTable:
    """Least semigroup element in each residue class modulo the pivot ``n``.

    ``w[i]`` is the least element congruent to i mod n; w[0] is always 0 and
    the table has exactly n entries.
    """

    n: int
    w: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("pivot must be positive")
        if len(self.w) != self.n:
            raise ValueError(f"expected {self.n} entries, got {len(self.w)}")
        if self.w[0] != 0:
            raise ValueError("w(0) must be 0")
        for i, wi in enumerate(self.w):
            if wi % self.n != i:
                raise ValueError(f"w({i}) = {wi} is not congruent to {i} mod {self.n}")


class WilfResult(NamedTuple):
    holds: bool
    slack: int


@dataclass(frozen=True)
class SemigroupSummary:
    """Aggregate invariants of one semigroup, as computed by the oracle."""

    frobenius: int
    genus: int
    embedding_dimension: int
    multiplicity: int
    n_count: int
    wilf_holds: bool


class NumericalSemigroup:
    """A validated coprime generator list with lazily cached invariants.

    Instances are immutable after construction; the caches only ever hold
    values identical to a fresh recomputation.  Both primitives share one
    budget of ``cell_limit`` table cells: the membership DP refuses a table
    past it and ``apery`` refuses a pivot above it, before allocating.
    """

    __slots__ = ("generators", "multiplicity", "cell_limit",
                 "_gen_set", "_members", "_apery_tables", "_msg")

    def __init__(self, generators: Iterable[int], *, cell_limit: int = DEFAULT_CELL_LIMIT):
        gens = sorted(set(generators))
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] <= 0:
            raise ZeroGenerator(f"generators must be positive, got {gens[0]}")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise NotCoprime(f"generators {gens} have gcd {g}")
        self.generators: tuple[int, ...] = tuple(gens)
        self.multiplicity: int = gens[0]
        self.cell_limit = cell_limit
        self._gen_set = frozenset(gens)
        self._members = bytearray((1,))  # membership table for 0..len-1
        self._apery_tables: dict[int, AperyTable] = {}
        self._msg: tuple[int, ...] | None = None

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.generators!r}"

    # -- membership -------------------------------------------------------

    def _members_up_to(self, limit: int) -> bytearray:
        """Reachability table: table[t] != 0 iff t is an element, 0 <= t <= limit."""
        if limit + 1 > self.cell_limit:
            raise ResourceLimit(
                f"membership table of {limit + 1} cells exceeds the "
                f"{self.cell_limit}-cell budget"
            )
        table = self._members
        if len(table) > limit:
            return table
        table = bytearray(limit + 1)
        table[0] = 1
        for g in self.generators:
            if g > limit:
                break
            for t in range(g, limit + 1):
                if table[t - g]:
                    table[t] = 1
        self._members = table
        return table

    def contains(self, x: int) -> bool:
        """Membership decided by generator-reachability DP (no Apery involvement)."""
        if x < 0:
            return False
        return bool(self._members_up_to(x)[x])

    # -- Apery sets and the invariants built on them -----------------------

    def apery(self, n: int) -> AperyTable:
        """Apery set of ``n``: single-source shortest paths on the residue graph.

        Vertices are residues mod n and each arc adds one generator; the
        distance to residue r is exactly the least element congruent to r.
        The table has one cell per residue, so a pivot above ``cell_limit``
        is refused before anything is allocated.
        """
        if n <= 0:
            raise PivotZero("Apery pivot must be a positive integer")
        if n > self.cell_limit:
            raise ResourceLimit(
                f"Apery table of {n} residues exceeds the {self.cell_limit}-cell budget"
            )
        if n not in self._gen_set and not self.contains(n):
            raise PivotNotInSemigroup(f"{n} is not an element of the semigroup")
        cached = self._apery_tables.get(n)
        if cached is not None:
            return cached
        dist: list[int | None] = [None] * n
        dist[0] = 0
        heap: list[tuple[int, int]] = [(0, 0)]
        while heap:
            d, r = heapq.heappop(heap)
            if d != dist[r]:
                continue  # stale entry
            for g in self.generators:
                nd = d + g
                nr = (r + g) % n
                cur = dist[nr]
                if cur is None or nd < cur:
                    dist[nr] = nd
                    heapq.heappush(heap, (nd, nr))
        # gcd 1 guarantees every residue is reached
        table = AperyTable(n, tuple(dist))  # type: ignore[arg-type]
        self._apery_tables[n] = table
        return table

    def frobenius(self) -> int:
        """max Ap(S, m) - m; equals -1 exactly when the semigroup is all of N."""
        table = self.apery(self.multiplicity)
        return max(table.w) - table.n

    def genus(self) -> int:
        """Number of gaps, from the Apery sum at the multiplicity.

        Asserts that the two textbook routes agree: (sum w)/n - (n-1)/2 and
        the sum of the k_i in w(i) = k_i*n + i.
        """
        table = self.apery(self.multiplicity)
        n = table.n
        twice = 2 * sum(table.w) - n * (n - 1)
        assert twice % (2 * n) == 0, "Apery-sum genus must be an exact integer"
        g = twice // (2 * n)
        assert g == sum((wi - i) // n for i, wi in enumerate(table.w))
        return g

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal system: nonzero elements that are not sums of two.

        Every minimal generator is one of the input generators.  An input
        generator g is a sum of two nonzero elements exactly when g - h is an
        element for some smaller input generator h: a nonzero summand s < g
        is h plus an element for some input generator h <= s.

        Schur's bound F <= (m - 1)(c - 1) - 1, with c the first generator that
        makes the sorted prefix coprime, caps the table, so a redundant huge
        generator does not blow up the DP.
        """
        if self._msg is None:
            gens = self.generators
            d = 0
            for c in gens:
                d = gcd(d, c)
                if d == 1:
                    break
            top = min(gens[-1] - self.multiplicity, (self.multiplicity - 1) * (c - 1))
            table = self._members_up_to(top)
            self._msg = tuple(g for i, g in enumerate(gens)
                              if not any(g - h > top or table[g - h] for h in gens[:i]))
        return self._msg

    def embedding_dimension(self) -> int:
        return len(self.minimal_generators())

    def n_count(self) -> int:
        """Number of elements strictly below the Frobenius number."""
        f = self.frobenius()
        if f <= 0:
            return 0
        # cached table may extend past f, so count only indices 0..f-1
        return sum(self._members_up_to(f - 1)[:f])

    def gaps(self) -> list[int]:
        """All nonmembers in increasing order; the length equals the genus."""
        f = self.frobenius()
        if f < 0:
            return []
        table = self._members_up_to(f)
        return [x for x in range(1, f + 1) if not table[x]]

    def wilf_check(self) -> WilfResult:
        """Wilf inequality F + 1 <= e * n, together with its integer slack."""
        target = self.embedding_dimension() * self.n_count()
        f1 = self.frobenius() + 1
        return WilfResult(f1 <= target, target - f1)

    def summary(self) -> SemigroupSummary:
        """All invariants at once, with the g + n = F + 1 identity asserted."""
        f = self.frobenius()
        g = self.genus()
        n = self.n_count()
        assert g + n == f + 1, "genus + n(S) must equal F(S) + 1"
        return SemigroupSummary(
            frobenius=f,
            genus=g,
            embedding_dimension=self.embedding_dimension(),
            multiplicity=self.multiplicity,
            n_count=n,
            wilf_holds=self.wilf_check().holds,
        )
