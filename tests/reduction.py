"""The paper's reduction step, by explicit carries: the test-side witness
that a representation x = sum(b_i * fib(i)) over 2 <= i < a with x >= f_a
rewrites into one of x - f_a of strictly smaller weight sum(b_i), the step
behind w(x) = beta(x) * f_a + x.  Shared by ``test_fibonacci`` and
``test_records``; ``golden/reduce_by_fib.txt`` pins its output."""
from __future__ import annotations

from collections import namedtuple

from fibsemi.fibonacci import fib


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
