"""Exact Fibonacci arithmetic, Zeckendorf index sets, and the
representation-reduction procedure.

Everything works on unbounded Python integers; there is no floating-point
(Binet) evaluation anywhere.  Index convention: fib(0) = 0, fib(1) = 1, and
all decomposition indices start at 2, so the duplicated value
fib(1) == fib(2) == 1 is always represented by index 2.

B(x), beta(x) and gamma(x) have one function each; the reduction of x >= f_a
to a lighter x - f_a is one recursive carry on a single coefficient list.

beta reads an append-only byte memo, byte x holding beta(x), grown by the
Fibonacci split [0, f_{k+1}) = [0, f_k) ++ (f_k + [0, f_{k-1})), on whose
second block beta is one higher, only by calls asking 0, 1, 2, ... in order;
fib_family.family_apery_bitset runs the same split on int bitsets.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

__all__ = [
    "fib",
    "gamma",
    "beta",
    "zeckendorf_indices",
    "CoefficientVector",
    "reduce_by_fib",
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
    """
    if x < 0:
        raise ValueError("cannot decompose a negative integer")
    _grow_past_value(x)
    rev: list[int] = []
    r = x
    while r:
        i = bisect_right(_FIBS, r) - 1
        rev.append(i)
        r -= _FIBS[i]
    return tuple(reversed(rev))


class CoefficientVector(namedtuple("CoefficientVector", "a coeffs")):
    """Coefficients (b_2, ..., b_{a-1}) over fib(2)..fib(a-1) for ambient ``a``."""

    __slots__ = ()

    def __init__(self, a: int, coeffs: tuple[int, ...]) -> None:
        if a < 3:
            raise ValueError("ambient parameter must be at least 3")
        if len(coeffs) != a - 2:
            raise ValueError(f"ambient {a} needs {a - 2} coefficients, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")

    def value(self) -> int:
        return sum(c * fib(i) for i, c in enumerate(self.coeffs, start=2))

    def weight(self) -> int:
        return sum(self.coeffs)


def reduce_by_fib(v: CoefficientVector) -> CoefficientVector:
    """Subtract fib(a) from the represented value while strictly lowering the weight.

    Raises ValueError when value(v) < fib(a); else :func:`_carry` does the work.
    """
    a, value = v.a, v.value()
    if value < fib(a):
        raise ValueError(f"vector value {value} is below fib({a}) = {fib(a)}")
    b = [0, 0, *v.coeffs]
    _carry(b, a)
    return CoefficientVector(a, tuple(b[2:]))


def _carry(b: list[int], a: int) -> None:
    """Lower sum(b[i] * fib(i) for 2 <= i < a), at least fib(a), by fib(a) in place.

    ``b[i]`` is the coefficient of fib(i); b[0] and b[1] are unused.  Case
    order: the a = 3 base, the two direct top-coefficient adjustments, the
    a = 4 base, then recursion one or two indices down (depth at most ``a``).
    """
    if a == 3:  # one coefficient over fib(2) = 1
        b[2] -= 2
    elif b[a - 2] and b[a - 1]:  # fib(a-2) + fib(a-1) == fib(a)
        b[a - 2] -= 1
        b[a - 1] -= 1
    elif not b[a - 2] and b[a - 1] >= 2:
        # 2*fib(a-1) == fib(a) + fib(a-3); for a == 4 the fib(1) credit is
        # banked at index 2 (fib(1) == fib(2))
        b[a - 1] -= 2
        b[max(a - 3, 2)] += 1
    elif a == 4:  # what is left: b[3] == 0 and b[2] >= fib(4) = 3
        b[2] -= 3
    elif b[a - 2]:  # b[a-1] == 0: spend one fib(a-2), owe fib(a-1) one level down
        b[a - 2] -= 1
        _carry(b, a - 1)
    elif b[a - 1]:  # b[a-1] == 1: spend it, owe fib(a-2) two levels down
        b[a - 1] = 0
        _carry(b, a - 2)
    else:  # the top two are zero: owe fib(a-2), then fib(a-1)
        _carry(b, a - 2)
        _carry(b, a - 1)
