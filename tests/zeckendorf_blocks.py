"""Zeckendorf's theorem block by block, by explicit enumeration: the
independent reference for ``fib_family.zeckendorf_bijection_check``, which
proves all of [0, f_a) at once from bitsets.  Blocks 3..a together make the
bijection at a."""
from __future__ import annotations

from fibsemi.fib_family import kaplansky_count
from fibsemi.fibonacci import fib


def zeckendorf_block_check(k: int) -> bool:
    """The sparse subsets of {2..k - 1} with top member k - 1 sum one to one
    onto [f_{k-1}, f_k): Zeckendorf's theorem on one block.

    The sets are enumerated on one int mask d, bit i standing for f_i, from
    {k - 1}, worth f_{k-1}.  Each step sets the lowest bit i >= 2 with bits i
    and i + 1 clear and clears every bit below it, so each set is sparse, has
    members >= 2 and is a larger mask than the one before.  Its value and size
    are kept up to date from the bits set and cleared, and each set must be
    worth one more than the one before, the last f_k - 1, so distinct sets sum
    onto the block.  That also keeps the top member k - 1: with bit k - 1 set,
    i is never k - 2 or k - 1, and i = k would leave {k}, worth f_k, past the
    block.  The sets of size m are the sparse m-subsets of {2..k - 1} less
    those inside {2..k - 2}: kaplansky_count(k, m) - kaplansky_count(k - 1, m),
    C(k - 2 - m, m - 1) by Pascal's rule, so matching counts make the
    enumeration reach each one.  Also checks f_k = sum over j of
    kaplansky_count(k, j), the count of all sparse subsets of {2..k - 1}.
    """
    if k < 3:
        raise ValueError("the bijection check needs index at least 3")
    fibs = [fib(i) for i in range(k + 1)]
    top = (k - 1) // 2  # a sparse subset of {2..k - 1} has at most top members
    per_size = [0, 1] + [0] * (top - 1)  # counting the first set, {k - 1}
    d, value, size = 1 << (k - 1), fibs[k - 1], 1
    for x in range(value + 1, fibs[k]):
        free = ~(d | d >> 1) & ~3
        i = (free & -free).bit_length() - 1
        cleared = d & ((1 << i) - 1)
        d ^= cleared | 1 << i
        value += fibs[i]
        size += 1
        while cleared:
            j = cleared.bit_length() - 1
            value -= fibs[j]
            size -= 1
            cleared ^= 1 << j
        if value != x:
            return False
        per_size[size] += 1
    return (value == fibs[k] - 1  # the last set, also where no step was taken
            and per_size == [kaplansky_count(k, m) - kaplansky_count(k - 1, m)
                             for m in range(top + 1)]
            and fibs[k] == sum(kaplansky_count(k, j) for j in range(top + 1)))



def zeckendorf_bijection_by_blocks(a: int) -> bool:
    """The nonempty sparse subsets of {2..a - 1} sum one to one onto
    1..f_a - 1: the blocks [f_{k-1}, f_k) for k = 3..a split 1..f_a - 1
    (f_2 = 1) as the top member k - 1 splits the subsets."""
    return all(zeckendorf_block_check(k) for k in range(3, a + 1))
