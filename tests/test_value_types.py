"""Contract of the tuple-backed value types: Degree, Monomial, BasisEntry
and StandardModule.

Each is a tuple of its fields.  The constructors keep their checks and
messages, instances carry no __dict__ and refuse attribute writes, and
repr, hash, equality and ordering are those of the field tuple.
"""

import copy
import pickle

import pytest

from realspectra.coefficients import BasisEntry, Monomial
from realspectra.grading import Degree
from realspectra.localcoh import StandardModule, pbar

M = Monomial(1, 2, (0, 1))
E = BasisEntry(M, 1, True, (2,))
MOD = StandardModule("IdealF2", s=0, t=2, shift=Degree(1, -1))
VALUES = [Degree(3, -2), M, E, MOD]


# --- constructors keep their checks ----------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: Monomial(-1, 0), "negative a-exponent"),
    (lambda: Monomial(0, 0, (1, -1, 0)), "negative vbar-exponent"),
    (lambda: M._replace(k=-1), "negative a-exponent"),
    (lambda: M._replace(c=(-2,)), "negative vbar-exponent"),
    (lambda: StandardModule("Q"), "unknown module kind 'Q'"),
    (lambda: StandardModule("Pbar", s=-1), "Pbar index must be >= 0"),
    (lambda: StandardModule("DualPbar", s=-1), "Pbar index must be >= 0"),
    (lambda: StandardModule("IdealZ", t=-1), "IdealZ needs t >= 0"),
    (lambda: StandardModule("IdealF2", s=2, t=2), "IdealF2 needs 0 <= s < t"),
    (lambda: StandardModule("IdealF2", s=-1, t=1), "IdealF2 needs 0 <= s < t"),
    (lambda: pbar(1)._replace(s=-1), "Pbar index must be >= 0"),
])
def test_constructors_reject_with_the_same_message(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_monomial_converts_and_strips_its_exponents():
    m = Monomial(0, 3, [True, 0, 0])
    assert m.c == (1,) and type(m.c) is tuple and type(m.c[0]) is int
    assert M._replace(c=[2, 0]).c == (2,)
    assert Monomial(0, 0, ()) == Monomial(0, 0, [0, 0]) == Monomial(0, 0)


# --- no __dict__, no attribute writes ---------------------------------------------

@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_instances_are_slotted_and_read_only(value):
    assert type(value).__slots__ == ()
    assert not hasattr(value, "__dict__")
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


# --- repr, hash, ==, < and _replace against a recorded table ---------------------

REPRS = [
    "Degree(triv=3, sgn=-2)",
    "Monomial(k=1, l=2, c=(0, 1))",
    "BasisEntry(mono=Monomial(k=1, l=2, c=(0, 1)), lattice=1, torsion=True,"
    " betas=(2,))",
    "StandardModule(kind='IdealF2', s=0, t=2, shift=Degree(triv=1, sgn=-1))",
]


@pytest.mark.parametrize("value, text", zip(VALUES, REPRS),
                         ids=lambda v: type(v).__name__)
def test_repr_and_hash_are_those_of_the_fields(value, text):
    assert repr(value) == text
    fields = tuple(getattr(value, f) for f in value._fields)
    # the frozen dataclasses these replace hashed the same field tuple
    assert hash(value) == hash(fields)
    # an instance equals the plain tuple of its fields
    assert value == fields and tuple(value) == fields


@pytest.mark.parametrize("small, large", [
    (Degree(1, 5), Degree(2, -9)),
    (Degree(1, -1), Degree(1, 0)),
    (Monomial(0, 5, (3,)), Monomial(1, -4)),
    (Monomial(1, 2), Monomial(1, 2, (0, 1))),
    (Monomial(1, 2, (0, 1)), Monomial(1, 2, (1,))),
    (BasisEntry(M, 1, False), BasisEntry(M, 1, True)),
    (BasisEntry(M, 2, True), BasisEntry(Monomial(2, 0), 1, False)),
    (BasisEntry(M, 1, True), E),
])
def test_ordering_is_field_by_field(small, large):
    assert small < large and large > small
    assert small != large and not small == large
    assert sorted([large, small]) == [small, large]


@pytest.mark.parametrize("value, change, want", [
    (Degree(3, -2), {"sgn": 4}, Degree(3, 4)),
    (M, {"k": 0}, Monomial(0, 2, (0, 1))),
    (E, {"torsion": False}, BasisEntry(M, 1, False, (2,))),
    (E, {"betas": (2, 3)}, BasisEntry(M, 1, True, (2, 3))),
    (MOD, {"shift": Degree(0, 0)}, StandardModule("IdealF2", 0, 2)),
], ids=["Degree", "Monomial", "BasisEntry-torsion", "BasisEntry-betas",
        "StandardModule"])
def test_replace_returns_the_public_type(value, change, want):
    got = value._replace(**change)
    assert type(got) is type(value)
    assert got == want and repr(got) == repr(want)
    assert value != got


def test_degree_operators_are_group_operations():
    a, b = Degree(1, 2), Degree(-3, 5)
    assert a + b == Degree(-2, 7) and type(a + b) is Degree
    assert a - b == Degree(4, -3) and type(a - b) is Degree
    assert 3 * a == a * 3 == Degree(3, 6) and type(3 * a) is Degree
    assert -a == Degree(-1, -2) and type(-a) is Degree


@pytest.mark.parametrize("value", VALUES + [pbar(2).shifted(Degree(0, 1))],
                         ids=lambda v: type(v).__name__)
def test_copies_keep_the_public_type(value):
    for again in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value) and again == value
