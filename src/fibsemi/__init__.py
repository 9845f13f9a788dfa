"""Numerical-semigroup invariants for Fibonacci-shift generator families.

Three layers: ``fibonacci`` (Zeckendorf index sets and the beta/gamma
statistics), ``semigroup_core`` (a generic brute-force oracle for any coprime
generator list), and ``fib_family`` (closed forms for the semigroups
generated by f_a + f_0, f_a + f_1, ...).
The closed forms and the oracle compute the same invariants by unrelated
algorithms; the test suite and the ``verify`` CLI subcommand hold them to
exact agreement.

The package exports every name in the three modules' ``__all__``, which are
the only lists of public names, and ``__version__``.
"""
from . import fib_family, fibonacci, semigroup_core
from .fib_family import *
from .fibonacci import *
from .semigroup_core import *

__version__ = "0.1.0"

__all__ = [*fibonacci.__all__, *semigroup_core.__all__, *fib_family.__all__,
           "__version__"]
