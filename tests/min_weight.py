"""Coin-change DP over the Fibonacci numbers: the independent reference for
beta's minimality, shared by ``test_fibonacci`` and ``test_acceptance``."""
from __future__ import annotations

from fibsemi.fibonacci import fib

MAX_CELLS = 100_000  # keeps every table desk-scale


def min_weight_table(limit: int, max_index: int) -> list[int]:
    """dp[t] = least summand count for t over the coin set {fib(2), ..., fib(max_index)}.

    Unbounded coin-change DP, capped at ``MAX_CELLS`` cells.
    """
    if max_index < 2:
        raise ValueError("max_index must be at least 2")
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > MAX_CELLS:
        raise ValueError(f"limit {limit} exceeds the table cap {MAX_CELLS}")
    coins = [fib(i) for i in range(2, max_index + 1)]
    unreachable = limit + 1  # true counts never exceed limit: the 1-coin is present
    dp = [0] + [unreachable] * limit
    for c in coins:
        for t in range(c, limit + 1):
            alt = dp[t - c] + 1
            if alt < dp[t]:
                dp[t] = alt
    return dp


def min_weight_oracle(x: int, max_index: int) -> int:
    """Exhaustive minimum of sum(c_i) over all c with sum(c_i * fib(i)) == x."""
    return min_weight_table(x, max_index)[x]
