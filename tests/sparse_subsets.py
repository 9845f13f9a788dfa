"""Explicit sparse-subset enumeration: the independent reference for
``kaplansky_count``, shared by ``test_fib_family`` and ``test_acceptance``."""
from __future__ import annotations

from fibsemi.semigroup_core import ResourceLimit

MAX_SUBSET_INDEX = 40  # sparse-subset enumeration cutoff


class EnumerationTooLarge(ResourceLimit):
    """Sparse-subset enumeration was requested beyond the supported range."""


def enumerate_sparse_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-subsets of {2..n-1} with no two consecutive members, in lex order."""
    if n < 2:
        raise ValueError("index bound must be at least 2")
    if m < 0:
        raise ValueError("subset size must be nonnegative")
    if n > MAX_SUBSET_INDEX:
        raise EnumerationTooLarge(
            f"enumeration supports index bounds up to {MAX_SUBSET_INDEX}, got {n}"
        )
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], lo: int, remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        # after picking v, the rest needs v+2, v+4, ... to fit below n
        for v in range(lo, n - 2 * (remaining - 1)):
            extend(prefix + (v,), v + 2, remaining - 1)

    extend((), 2, m)
    return out
