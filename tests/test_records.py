"""The public record types: repr, validation messages, immutability and hash.

Every expected string here was captured from the library before the records
became named tuples, so the contract they print and raise is unchanged.  The
one later change is ``SemigroupSummary``'s two last fields, ``wilf_slack`` and
``minimal_generators``, added after the first six.  ``CoefficientVector``, the
record of the reduction step's test-side witness in ``reduction``, is held to
the same contract.
"""
from __future__ import annotations

import pytest

from fibsemi import AperyTable, NumericalSemigroup, family_summary
from reduction import CoefficientVector


def test_reprs():
    sg = NumericalSemigroup([6, 9, 20])
    assert repr(sg) == "NumericalSemigroup(6, 9, 20)"
    assert repr(family_summary(7)) == (
        "FamilySummary(a=7, embedding_dimension=6, multiplicity=13, frobenius=38, "
        "genus=20, n_count=19, wilf_slack=75)")
    assert repr(AperyTable(3, (0, 4, 8))) == "AperyTable(n=3, w=(0, 4, 8))"
    assert repr(sg.summary()) == (
        "SemigroupSummary(frobenius=43, genus=22, embedding_dimension=3, "
        "multiplicity=6, n_count=22, wilf_holds=True, wilf_slack=22, "
        "minimal_generators=(6, 9, 20))")
    assert repr(CoefficientVector(5, (1, 0, 2))) == "CoefficientVector(a=5, coeffs=(1, 0, 2))"


@pytest.mark.parametrize("n, w, message", [
    (0, (), "pivot must be positive"),
    (-1, (), "pivot must be positive"),
    (3, (0, 4), "expected 3 entries, got 2"),
    (3, (1, 4, 8), "w(0) must be 0"),
    (3, (0, 4, 7), "w(2) = 7 is not congruent to 2 mod 3"),
    # two bad residues: the first is named
    (3, (0, 5, 7), "w(1) = 5 is not congruent to 1 mod 3"),
    (4, (0, 5, 7, 10), "w(2) = 7 is not congruent to 2 mod 4"),
])
def test_apery_table_messages(n, w, message):
    with pytest.raises(ValueError) as exc:
        AperyTable(n, w)
    assert str(exc.value) == message


@pytest.mark.parametrize("a, coeffs, message", [
    (2, (), "ambient parameter must be at least 3"),
    (3, (), "ambient 3 needs 1 coefficients, got 0"),
    (5, (1, 2), "ambient 5 needs 3 coefficients, got 2"),
    (4, (1, -1), "coefficients must be nonnegative"),
    (3, (-1,), "coefficients must be nonnegative"),
])
def test_coefficient_vector_messages(a, coeffs, message):
    with pytest.raises(ValueError) as exc:
        CoefficientVector(a, coeffs)
    assert str(exc.value) == message


def test_keyword_construction_is_validated_too():
    assert AperyTable(n=2, w=(0, 3)).w == (0, 3)
    with pytest.raises(ValueError, match="w\\(1\\) = 4"):
        AperyTable(n=2, w=(0, 4))


def _records():
    sg = NumericalSemigroup([6, 9, 20])
    return [family_summary(7), AperyTable(3, (0, 4, 8)), sg.summary(),
            CoefficientVector(5, (1, 0, 2))]


def test_records_are_immutable():
    for record, field in zip(_records(), ("a", "n", "frobenius", "a")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0  # no per-instance __dict__


def test_equal_records_hash_equal():
    for first, second in zip(_records(), _records()):
        assert first == second and first is not second
        assert hash(first) == hash(second)
