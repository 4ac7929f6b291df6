"""The package's immutable value records: equality, hashing, repr and
read-only attributes, as frozen dataclasses gave them."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from missingdigits.certify import CertificateReport, Theorem, Verdict
from missingdigits.dimension import BoundKind, DimensionBound, SupF, factor_candidates
from missingdigits.graham import Restriction, RestrictionSystem
from missingdigits.measure import (BasePower, DigitInterval, ExplicitDigits, MissingDigitsSpec,
                                   ProductMeasureSpec)
from missingdigits.projection import (DensityProfile, LatticeDiagnostics, ProfileAxis,
                                      ProfileMethod)


def _c3():
    return MissingDigitsSpec(BasePower(3), ExplicitDigits([0, 2]))


def _bound(value=1.25):
    return DimensionBound(value, BoundKind.CRUDE, True)


# a fresh instance of each record, built the same way on every call,
# next to the repr that the frozen dataclass gave it
RECORDS = {
    "BasePower": (lambda: BasePower(10, 400), "BasePower(b=10, e=400)"),
    "ExplicitDigits": (lambda: ExplicitDigits([(2, 0), (0, 1)]),
                       "ExplicitDigits(vectors=((0, 1), (2, 0)))"),
    "DigitInterval": (lambda: DigitInterval(BasePower(2, 3), BasePower(10, 100)),
                      "DigitInterval(lo=8, hi=BasePower(b=10, e=100))"),
    "MissingDigitsSpec": (_c3, "MissingDigitsSpec(base=BasePower(b=3, e=1), "
                               "digits=ExplicitDigits(vectors=((0,), (2,))), ambient_dim=1)"),
    "ProductMeasureSpec": (lambda: ProductMeasureSpec([_c3(), _c3()]),
                           "ProductMeasureSpec(factors=(" + ", ".join(
                               ["MissingDigitsSpec(base=BasePower(b=3, e=1), digits="
                                "ExplicitDigits(vectors=((0,), (2,))), ambient_dim=1)"] * 2)
                           + "))"),
    "DimensionBound": (lambda: DimensionBound(1.25, BoundKind.CRUDE, rigorous=True),
                       "DimensionBound(value=1.25, kind=<BoundKind.CRUDE: 'Crude'>, "
                       "rigorous=True)"),
    "SupF": (lambda: SupF(2.0, 2.5, (0.25,), 1e-4, 3.0, 16, 96),
             "SupF(sup_estimate=2.0, certified_upper=2.5, argmax=(0.25,), h=0.0001, "
             "lipschitz=3.0, evaluations=16, cells=96)"),
    "LatticeDiagnostics": (lambda: LatticeDiagnostics(3.5, (1.0, 2.5), (1.25,)),
                           "LatticeDiagnostics(partial=3.5, shell_totals=(1.0, 2.5), "
                           "dyadic_slopes=(1.25,))"),
    "Restriction": (lambda: Restriction(5, {0, 2}, Fraction(1, 2)),
                    "Restriction(base=5, digits=frozenset({0, 2}), scale=Fraction(1, 2))"),
    "RestrictionSystem": (lambda: RestrictionSystem((Restriction(3, {0, 1}),)),
                          "RestrictionSystem(restrictions=(Restriction(base=3, "
                          "digits=frozenset({0, 1}), scale=Fraction(1, 1)),))"),
    "CertificateReport": (lambda: CertificateReport(Theorem.RADIAL_LP, 1.5, _bound(), 0.25,
                                                    Verdict.CERTIFIED, p_exp=2),
                          "CertificateReport(theorem=<Theorem.RADIAL_LP: 'RadialLp'>, "
                          "threshold=1.5, bound_used=DimensionBound(value=1.25, "
                          "kind=<BoundKind.CRUDE: 'Crude'>, rigorous=True), margin=0.25, "
                          "verdict=<Verdict.CERTIFIED: 'Certified'>, p_exp=2, "
                          "side_conditions=())"),
}

# an instance of each record that differs from RECORDS' in one field
OTHERS = {
    "BasePower": BasePower(10, 401),
    "ExplicitDigits": ExplicitDigits([(2, 0)]),
    "DigitInterval": DigitInterval(9, BasePower(10, 100)),
    "MissingDigitsSpec": MissingDigitsSpec(BasePower(3), ExplicitDigits([0, 1])),
    "ProductMeasureSpec": ProductMeasureSpec([_c3()]),
    "DimensionBound": DimensionBound(1.25, BoundKind.CRUDE, rigorous=False),
    "SupF": SupF(2.0, 2.5, (0.25,), 1e-4, 3.0, 16, 97),
    "LatticeDiagnostics": LatticeDiagnostics(3.5, (1.0, 2.5), (1.5,)),
    "Restriction": Restriction(5, {0, 2}),
    "RestrictionSystem": RestrictionSystem((Restriction(3, {0, 2}),)),
    "CertificateReport": CertificateReport(Theorem.RADIAL_LP, 1.5, _bound(), 0.25,
                                           Verdict.CERTIFIED, p_exp=3),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_are_equal_and_hash_alike(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_that_differ_in_a_field_or_in_type_are_unequal(name):
    record = RECORDS[name][0]()
    assert record != OTHERS[name]
    for other in sorted(RECORDS):
        if other != name:
            assert record != RECORDS[other][0](), other
    fields = tuple(getattr(record, f) for f in type(record)._fields)
    assert record != fields
    assert record != object()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_reads_as_its_dataclass_did(name):
    make, expected = RECORDS[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_cannot_be_changed(name):
    record = RECORDS[name][0]()
    field = type(record)._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_survives_pickling(name):
    record = RECORDS[name][0]()
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and hash(copy) == hash(record)


def test_constructor_defaults_and_keywords_are_kept():
    assert BasePower(7).e == 1
    spec = MissingDigitsSpec(base=BasePower(3), digits=DigitInterval(0, 1))
    assert spec.ambient_dim == 1
    assert Restriction(3, [0, 1]).scale == Fraction(1)
    assert Restriction(3, [0, 1]).digits == frozenset({0, 1})
    report = CertificateReport(theorem=Theorem.THEOREM_B, threshold=1.0, bound_used=_bound(),
                               margin=0.25, verdict=Verdict.CERTIFIED)
    assert (report.p_exp, report.side_conditions) == (None, ())
    assert LatticeDiagnostics(partial=1.0, shell_totals=(1.0,), dyadic_slopes=()).partial == 1.0


def test_validation_runs_in_the_constructor():
    with pytest.raises(ValueError, match="finite"):
        DimensionBound(float("nan"), BoundKind.CRUDE, True)
    with pytest.raises(ValueError, match="base must be >= 2"):
        BasePower(1)
    with pytest.raises(ValueError, match="empty"):
        DigitInterval(3, 2)
    with pytest.raises(ValueError, match="outside"):
        MissingDigitsSpec(BasePower(3), ExplicitDigits([0, 3]))
    with pytest.raises(ValueError, match="scale"):
        Restriction(3, [0], 0.5)
    with pytest.raises(ValueError, match="nonempty"):
        RestrictionSystem(())


def test_density_profile_equality_ignores_metadata():
    grid, values = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 1.0])
    a = DensityProfile(ProfileAxis.ANGLE_ON_SPHERE, grid, values, ProfileMethod.TUBE_COUNT,
                       {"delta": 0.5})
    b = DensityProfile(ProfileAxis.ANGLE_ON_SPHERE, grid, values, ProfileMethod.TUBE_COUNT,
                       {"delta": 0.25, "flags": ["NonConvergent"]})
    assert a == b
    assert a != DensityProfile(ProfileAxis.ANGLE_ON_SPHERE, grid, values,
                               ProfileMethod.MONTE_CARLO)
    assert repr(a).endswith("metadata={'delta': 0.5})")
    with pytest.raises(AttributeError):
        a.metadata = {}
    with pytest.raises(TypeError):  # its arrays are unhashable, as they were
        hash(a)


def test_specs_work_as_dict_keys():
    table = {_c3(): "C3", BasePower(3): "three"}
    assert table[_c3()] == "C3"
    assert table[BasePower(3, 1)] == "three"
    # a product of equal, distinct factors bounds each distinct factor once
    candidates = factor_candidates(ProductMeasureSpec([_c3(), _c3()]))
    assert [factor for factor, _ in candidates] == [_c3(), _c3()]
    assert candidates[0][1] is candidates[1][1]
