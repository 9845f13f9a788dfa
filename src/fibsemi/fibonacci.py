"""Exact Fibonacci arithmetic and Zeckendorf index sets.

Everything works on unbounded Python integers; there is no floating-point
(Binet) evaluation anywhere.  Index convention: fib(0) = 0, fib(1) = 1, and
all decomposition indices start at 2, so the duplicated value
fib(1) == fib(2) == 1 is always represented by index 2.

B(x), beta(x) and gamma(x) have one function each.

beta reads an append-only byte memo, byte x holding beta(x), grown by the
Fibonacci split [0, f_{k+1}) = [0, f_k) ++ (f_k + [0, f_{k-1})), on whose
second block beta is one higher, only by calls asking 0, 1, 2, ... in order;
fib_family.family_apery_bitset runs the same split on int bitsets.
"""
from __future__ import annotations

from bisect import bisect_right

__all__ = [
    "fib",
    "gamma",
    "beta",
    "zeckendorf_indices",
]

# Append-only memo: _FIBS[n] == fib(n).
_FIBS = [0, 1]

# Append-only memo: _BETAS[x] == beta(x) for x < f_k, starting at k = 3; one
# growth step to f_{k+1} appends _BETAS[:f_{k-1}] with every byte plus one.
# beta(x) <= k/2 for x < f_k, and no memo reaches f_512, so a byte holds it.
_BETAS = bytearray(b"\x00\x01")
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"
_RUN = 0  # x + 1 while the latest calls to beta asked 0, 1, ..., x in order


def _grow_to_index(n: int) -> None:
    while len(_FIBS) <= n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])


def _grow_past_value(x: int) -> None:
    while _FIBS[-1] <= x:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])


def fib(n: int) -> int:
    """The n-th Fibonacci number under fib(0) = 0, fib(1) = 1."""
    if n < 0:
        raise ValueError("Fibonacci index must be nonnegative")
    _grow_to_index(n)
    return _FIBS[n]


def gamma(x: int) -> int:
    """Largest index l with fib(l) <= x.

    gamma(0) = 0 and gamma(1) = 2: the memo is nondecreasing with the single
    repeat fib(1) == fib(2), so the rightmost qualifying index is always the
    one with the canonical (>= 2) meaning.
    """
    if x < 0:
        raise ValueError("gamma is defined on nonnegative integers")
    _grow_past_value(x)
    return bisect_right(_FIBS, x) - 1


def beta(x: int) -> int:
    """Minimum of sum(b_i) over all representations x = sum(b_i * fib(i)), i >= 2.

    Equals the Zeckendorf summand count: one index into the memo, which
    calls asking 0, 1, 2, ... in order grow one split step at a time as they
    pass its end; any other x past the memo is len(zeckendorf_indices(x)).
    """
    global _RUN
    if x == _RUN or not x:  # the latest calls asked 0, 1, ..., x - 1
        _RUN = x + 1
        try:
            return _BETAS[x]
        except IndexError:  # x == len(_BETAS) == f_k
            _BETAS.extend(_BETAS[:_FIBS[gamma(x) - 1]].translate(_PLUS_ONE))
            return _BETAS[x]
    _RUN = 0
    if x < 0:
        raise ValueError("beta is defined on nonnegative integers")
    return _BETAS[x] if x < len(_BETAS) else len(zeckendorf_indices(x))


def zeckendorf_indices(x: int) -> tuple[int, ...]:
    """The Zeckendorf index set B(x) of a nonnegative integer, increasing.

    The one greedy walk: repeatedly subtracting the largest fib(l) <= remainder
    yields the unique representation with non-consecutive indices >= 2 (each
    step drops the top index by at least 2, which is exactly the
    non-consecutive condition).  B(0) is the empty tuple.

    One bisect finds the top index gamma(x); the rest is one descent of
    O(gamma(x)) comparisons down the memo.  After taking fib(i) the remainder
    is below fib(i + 1) - fib(i) = fib(i - 1), so the next index is at most
    i - 2 and stepping down while fib(i) > remainder finds it: no second
    bisect.  Stepping down from above reaches index 2 before index 1, so the
    index-2 convention holds.
    """
    if x < 0:
        raise ValueError("cannot decompose a negative integer")
    fibs = _FIBS
    if x >= fibs[-1]:
        _grow_past_value(x)
    rev: list[int] = []
    r = x
    i = bisect_right(fibs, r) - 1  # gamma(x): the only bisect
    while r:
        while fibs[i] > r:
            i -= 1
        rev.append(i)
        r -= fibs[i]
        i -= 2  # r < fib(i - 1) now
    rev.reverse()
    return tuple(rev)
