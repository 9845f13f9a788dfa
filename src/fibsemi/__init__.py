"""Numerical-semigroup invariants for Fibonacci-shift generator families.

Three layers: ``fibonacci`` (Zeckendorf index sets, the beta/gamma
statistics and the reduction step), ``semigroup_core`` (a generic
brute-force oracle for any coprime generator list), and ``fib_family``
(closed forms for the semigroups generated by f_a + f_0, f_a + f_1, ...).
The closed forms and the oracle compute the same invariants by unrelated
algorithms; the test suite and the ``verify`` CLI subcommand hold them to
exact agreement.
"""
from .fibonacci import (
    CoefficientVector,
    beta,
    fib,
    gamma,
    reduce_by_fib,
    zeckendorf_indices,
)
from .semigroup_core import (
    AperyTable,
    EmptyGenerators,
    NotCoprime,
    NumericalSemigroup,
    PivotNotInSemigroup,
    PivotZero,
    ResourceLimit,
    SemigroupError,
    SemigroupSummary,
    WilfResult,
    ZeroGenerator,
)
from .fib_family import (
    EnumerationTooLarge,
    FamilySummary,
    TableTooLarge,
    enumerate_sparse_subsets,
    family_apery,
    family_apery_value,
    family_frobenius,
    family_generators,
    family_genus,
    family_genus_recurrence_check,
    family_genus_sum,
    family_summary,
    kaplansky_count,
    zeckendorf_bijection_check,
)

__version__ = "0.1.0"

__all__ = [
    "fib",
    "gamma",
    "beta",
    "zeckendorf_indices",
    "CoefficientVector",
    "reduce_by_fib",
    "NumericalSemigroup",
    "AperyTable",
    "WilfResult",
    "SemigroupSummary",
    "SemigroupError",
    "EmptyGenerators",
    "ZeroGenerator",
    "NotCoprime",
    "PivotZero",
    "PivotNotInSemigroup",
    "ResourceLimit",
    "family_generators",
    "family_apery",
    "family_apery_value",
    "family_frobenius",
    "family_genus",
    "family_genus_sum",
    "family_genus_recurrence_check",
    "kaplansky_count",
    "enumerate_sparse_subsets",
    "zeckendorf_bijection_check",
    "FamilySummary",
    "family_summary",
    "TableTooLarge",
    "EnumerationTooLarge",
    "__version__",
]
