"""Exact Fibonacci arithmetic, Zeckendorf decompositions, and the
representation-reduction procedure.

Everything works on unbounded Python integers; there is no floating-point
(Binet) evaluation anywhere.  Index convention: fib(0) = 0, fib(1) = 1, and
all decomposition indices start at 2, so the duplicated value
fib(1) == fib(2) == 1 is always represented by index 2.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "fib",
    "gamma",
    "beta",
    "zeckendorf",
    "zeckendorf_indices",
    "ZeckendorfDecomposition",
    "CoefficientVector",
    "reduce_by_fib",
]

# Append-only memo: _FIBS[n] == fib(n).
_FIBS = [0, 1]


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

    Equals the Zeckendorf summand count: the number of steps of the greedy
    walk in :func:`zeckendorf_indices`, counted here without building the
    index tuple (this is the hot path when materializing family Apery
    tables).
    """
    if x < 0:
        raise ValueError("beta is defined on nonnegative integers")
    _grow_past_value(x)
    count = 0
    r = x
    while r:
        r -= _FIBS[bisect_right(_FIBS, r) - 1]
        count += 1
    return count


@dataclass(frozen=True)
class ZeckendorfDecomposition:
    """The unique non-consecutive Fibonacci representation of ``x``.

    ``indices`` is the index set B(x) as a strictly increasing tuple of
    integers >= 2; ``beta`` is the summand count and ``gamma`` the largest
    index (0 when x == 0, where the index tuple is empty).
    """

    x: int
    indices: tuple[int, ...]
    beta: int
    gamma: int

    def summands(self) -> tuple[int, ...]:
        """The Fibonacci values fib(i) for i in ``indices``."""
        return tuple(fib(i) for i in self.indices)


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


def zeckendorf(x: int) -> ZeckendorfDecomposition:
    """Greedy Zeckendorf decomposition of a nonnegative integer.

    The indices come from the shared walk :func:`zeckendorf_indices`; this
    wraps them with their count and top index.
    """
    indices = zeckendorf_indices(x)
    return ZeckendorfDecomposition(x, indices, len(indices), indices[-1] if indices else 0)


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients (b_2, ..., b_{a-1}) over fib(2)..fib(a-1) for ambient ``a``."""

    a: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.a < 3:
            raise ValueError("ambient parameter must be at least 3")
        if len(self.coeffs) != self.a - 2:
            raise ValueError(
                f"ambient {self.a} needs {self.a - 2} coefficients, got {len(self.coeffs)}"
            )
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")

    def value(self) -> int:
        return sum(c * fib(i) for i, c in enumerate(self.coeffs, start=2))

    def weight(self) -> int:
        return sum(self.coeffs)


def reduce_by_fib(v: CoefficientVector) -> CoefficientVector:
    """Subtract fib(a) from the represented value while strictly lowering the weight.

    Case order: the two direct top-coefficient adjustments, then the small-a
    base cases, then recursion one or two indices down.  Recursion depth is
    at most ``a``.  Raises ValueError when value(v) < fib(a).
    """
    a = v.a
    f_a = fib(a)
    if v.value() < f_a:
        raise ValueError(f"vector value {v.value()} is below fib({a}) = {f_a}")
    b = list(v.coeffs)

    if a == 3:
        # single coefficient over fib(2) = 1: subtract fib(3) directly
        return CoefficientVector(3, (b[0] - f_a,))

    # direct case 1: fib(a-2) + fib(a-1) == fib(a)
    if b[-2] >= 1 and b[-1] >= 1:
        b[-2] -= 1
        b[-1] -= 1
        return CoefficientVector(a, tuple(b))
    # direct case 2: 2*fib(a-1) == fib(a) + fib(a-3); for a == 4 the fib(1)
    # credit is banked at index 2 (fib(1) == fib(2))
    if b[-2] == 0 and b[-1] >= 2:
        b[-1] -= 2
        b[max(a - 3, 2) - 2] += 1
        return CoefficientVector(a, tuple(b))

    if a == 4:
        # remaining base case: (b_2, 0) with b_2 >= fib(4) = 3
        return CoefficientVector(4, (b[0] - 3, 0))

    # recursive cases, a >= 5
    if b[-2] >= 1 and b[-1] == 0:
        # spend one fib(a-2), owe fib(a-1) one level down
        inner = b[:-1]
        inner[-1] -= 1
        c = reduce_by_fib(CoefficientVector(a - 1, tuple(inner)))
        return CoefficientVector(a, c.coeffs + (0,))
    if b[-2] == 0 and b[-1] == 1:
        # spend the single fib(a-1), owe fib(a-2) two levels down
        c = reduce_by_fib(CoefficientVector(a - 2, tuple(b[:-2])))
        return CoefficientVector(a, c.coeffs + (0, 0))
    # top two coefficients are zero: owe fib(a-2), then fib(a-1)
    c = reduce_by_fib(CoefficientVector(a - 2, tuple(b[:-2])))
    c = reduce_by_fib(CoefficientVector(a - 1, c.coeffs + (0,)))
    return CoefficientVector(a, c.coeffs + (0,))
