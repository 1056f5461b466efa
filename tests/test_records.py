"""The package's 18 record types keep the semantics of frozen value records:
construction by position or keyword with the same defaults, equality and
hash by value over the fields (only against the same class), no assignment
after construction, no instance __dict__, and their reprs.

Each record's slot order is its constructor: a missing, unknown, repeated
or surplus field raises TypeError, whether the record has the one
Record.__init__, a validating __init__ that calls it, or the hand-written
__init__ of FFElement or IntPoly.  No record defines __eq__ or __hash__,
and only those two and the validating records define __init__, so each
field list is written once, in __slots__."""

import copy
import pickle
from fractions import Fraction

import pytest

from frobsplit.density import (
    DensityReport,
    GaloisModel,
    GoursatReport,
    ModelEntry,
    SimulationResult,
)
from frobsplit.finfield import FFElement, FiniteField, make_field
from frobsplit.groups import (
    AnisotropicTorus,
    GroupDescriptor,
    GroupElement,
    NormalizerCensus,
    TorusCensus,
    identity_element,
)
from frobsplit.intpoly import IntPoly
from frobsplit.weil import (
    Certificate,
    CertificateRecord,
    CMSignature,
    FactorConstraint,
    SplitReport,
    WeilPoly,
)

F25 = make_field(5, 2)
GSP4 = GroupDescriptor("C", 2, 5)
ONE = identity_element(GSP4)
F = IntPoly((9, 0, 6, 0, 1))
H = IntPoly((0, 0, 1))  # the real transform of F at q = 3
W = WeilPoly(F, 3, 3, 1, H)
FACTOR = FactorConstraint(IntPoly((3, 0, 1)), 2, 1, 2, "prime field", ())
CERT = CertificateRecord(5, Certificate.SIMPLE, "irreducible mod 5")
ENTRY = ModelEntry(GroupDescriptor("C", 1, 3))

# (type, arguments, the same arguments with one field changed)
CASES = [
    (FiniteField, (5, 2, F25.modulus), (5, 2, (3, 4, 1))),
    (FFElement, (F25, (1, 2)), (F25, (1, 3))),
    (GroupDescriptor, ("C", 2, 5), ("C", 2, 7)),
    (GroupElement, (GSP4, ONE.matrix, 1), (GSP4, ONE.matrix, 2)),
    (AnisotropicTorus, (GSP4, (ONE,), 26), (GSP4, (ONE,), 24)),
    (NormalizerCensus, (6, 2), (6, 3)),
    (
        TorusCensus,
        (GSP4, 1, 26, 20, 20, Fraction(15, 13), {"full": 26}, 208, 8, False),
        (GSP4, 2, 26, 20, 20, Fraction(15, 13), {"full": 26}, 208, 8, False),
    ),
    (IntPoly, ((1, 2, 1),), ((1, 2, 2),)),
    (WeilPoly, (F, 3, 3, 1, H), (F, 9, 3, 2, H)),
    (FactorConstraint, (F, 1, None, None, None, ((1, 2),)), (F, 1, None, None, None, ((2, 1),))),
    (CertificateRecord, (None, Certificate.UNKNOWN, "x"), (None, Certificate.SIMPLE, "x")),
    (
        SplitReport,
        (W, 1, F, (FACTOR,), (), (0,), (CERT,), Certificate.SIMPLE, "X", "note", False, True),
        (W, 1, F, (FACTOR,), (), (0,), (CERT,), Certificate.SIMPLE, "X", "note", True, True),
    ),
    (CMSignature, (6, ((1, 5),)), (6, ((2, 4),))),
    (ModelEntry, (GSP4, "der"), (GSP4, "full")),
    (GaloisModel, ((ENTRY,), 1), ((ENTRY,), 2)),
    (
        DensityReport,
        (((3, Fraction(1, 4), True),), Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), 1),
        (((3, Fraction(1, 4), True),), Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(3, 8), 2),
    ),
    (
        SimulationResult,
        (10, 3, Fraction(3, 10), Fraction(1, 4), 0.36, 1, 1, ((7, 10, 3),)),
        (10, 3, Fraction(3, 10), Fraction(1, 4), None, 1, 1, ((7, 10, 3),)),
    ),
    (
        GoursatReport,
        ((120, 336), (True, True), 40320, 40320, True, True, "n"),
        ((120, 336), (True, False), 40320, 40320, True, True, "n"),
    ),
]


def test_every_record_type_is_covered():
    assert len({cls for cls, _, _ in CASES}) == 18


@pytest.mark.parametrize("cls,args,other", CASES, ids=lambda c: c.__name__ if isinstance(c, type) else "")
def test_record_semantics(cls, args, other):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b
    assert a == cls(**dict(zip(cls.__slots__, args)))
    first, rest = cls.__slots__[0], dict(zip(cls.__slots__[1:], args[1:]))
    with pytest.raises(TypeError):  # the first field is missing
        cls(**rest)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):  # the first field by position and by keyword
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError):
        cls(*args, None)
    assert a != c and not a == c
    assert a.__eq__(args) is NotImplemented and a != args
    if any(isinstance(x, dict) for x in args):
        with pytest.raises(TypeError):  # a dict field makes the record unhashable
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in cls.__slots__))
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_the_plain_records_define_no_constructor():
    """Equality and hashing come from Record on every type; a constructor of
    its own only on the two per-operation types and the validating ones."""
    records = {cls for cls, _, _ in CASES}
    assert [cls.__name__ for cls in records if {"__eq__", "__hash__"} & vars(cls).keys()] == []
    own_init = {cls.__name__ for cls in records if "__init__" in vars(cls)}
    assert own_init == {"FFElement", "IntPoly", "ModelEntry", "GaloisModel", "CMSignature", "GroupDescriptor"}


def test_a_plain_record_binds_mixed_arguments_in_slot_order():
    mixed = CertificateRecord(5, detail="irreducible mod 5", status=Certificate.SIMPLE)
    assert mixed == CERT and mixed.detail == "irreducible mod 5"
    with pytest.raises(TypeError):  # a surplus positional beside a full set of keywords
        CertificateRecord(5, Certificate.SIMPLE, "x", "y", ell=5, status=Certificate.SIMPLE, detail="x")


def test_defaults():
    desc = GroupDescriptor("A", 2, 3)
    assert ModelEntry(desc) == ModelEntry(desc, "full")
    assert GaloisModel((ModelEntry(desc),)) == GaloisModel((ModelEntry(desc),), 1)


def test_reprs():
    assert repr(F25) == "GF(5^2)" and repr(make_field(7)) == "GF(7)"
    assert repr(FFElement(F25, (1, 2))) == "1 + 2u"
    assert repr(FFElement(make_field(3, 3), (0, 1, 2))) == "u + 2u^2"
    assert repr(F25.zero()) == "0"
    assert repr(GSP4) == "GSp_4(ell=5)" and repr(GroupDescriptor("A", 3, 2)) == "GU_3(ell=2)"
    assert repr(NormalizerCensus(6, 2)) == "NormalizerCensus(normalizer_order=6, weyl_order=2)"
    assert repr(IntPoly((1, 2))) == "IntPoly(coeffs=(1, 2))"
    assert repr(CMSignature(2, ((1, 1),))) == "CMSignature(r=2, pairs=((1, 1),))"
