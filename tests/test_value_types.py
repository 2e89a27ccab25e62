"""Contract of the tuple-backed value types: Degree, Monomial, BasisEntry
and StandardModule, then Window and the record types.

Each is a tuple of its fields.  The constructors keep their checks and
messages, instances carry no __dict__ and refuse attribute writes, and
repr and hash are those of the field tuple.  The value types also take
the field tuple's equality and ordering; a record equals only a record
of its own type.
"""

import copy
import pickle

import pytest

from realspectra.blocks import AssembledClass, DiagonalCell, TowerClass
from realspectra.cli import RunConfig
from realspectra.coefficients import (BasisEntry, Monomial, QuotientIdeal,
                                      TowerGroup)
from realspectra.duality import (
    Differential, DualityRecord, DualityReport, Extension, GorensteinTable,
    SSData, default_ssdata)
from realspectra.grading import Degree, Window
from realspectra.hfpss import Page
from realspectra.localcoh import LCSummand, StandardModule, pbar

from oracles import MapGroup, ShiftSpec, without

M = Monomial(1, 2, (0, 1))
E = BasisEntry(M, 2, True)
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
    "BasisEntry(mono=Monomial(k=1, l=2, c=(0, 1)), lattice=2, torsion=True)",
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
    (E, {"torsion": False}, BasisEntry(M, 2, False)),
    (E, {"lattice": 1}, BasisEntry(M, 1, True)),
    (MOD, {"shift": Degree(0, 0)}, StandardModule("IdealF2", 0, 2)),
], ids=["Degree", "Monomial", "BasisEntry-torsion", "BasisEntry-lattice",
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


# --- record types: Window and the types that were dataclasses -------------
#
# Each is a tuple of its fields too, but equals only an instance of its own
# type: never a plain tuple, nor a record of another type with equal fields.

D = Differential("bb", Degree(0, 0), Degree(1, 2), 3)
X = Extension("nb", Degree(2, 2))
REC = DualityRecord(Degree(1, 0), (1, 0), (1, 0), True)
# (value, repr); the values hash, their fields being hashable
HASHABLE = [
    (Window(-1, 2, 0, 3),
     "Window(triv_min=-1, triv_max=2, sgn_min=0, sgn_max=3)"),
    (QuotientIdeal((0, 2), 1), "QuotientIdeal(exponents=(0, 2), tail=1)"),
    (TowerClass(3), "TowerClass(level=3)"),
    (AssembledClass(1, TowerClass(3)),
     "AssembledClass(u_power=1, entry=TowerClass(level=3))"),
    (DiagonalCell(4, 1, MOD), f"DiagonalCell(d=4, column=1, module={MOD!r})"),
    (LCSummand(2, MOD), f"LCSummand(s=2, module={MOD!r})"),
    (D, "Differential(block='bb', source=Degree(triv=0, sgn=0), "
        "target=Degree(triv=1, sgn=2), rank=3)"),
    (X, "Extension(block='nb', degree=Degree(triv=2, sgn=2))"),
    (SSData(2, (D,), (X,)), f"SSData(n=2, differentials=({D!r},), "
                            f"extensions=({X!r},))"),
    (REC, "DualityRecord(degree=Degree(triv=1, sgn=0), gamma=(1, 0), "
          "dual=(1, 0), ok=True, note='')"),
    (ShiftSpec("P", Degree(0, 0), ()),
     "ShiftSpec(tag='P', shift=Degree(triv=0, sgn=0), ideal=())"),
    (MapGroup(1, 0), "MapGroup(free=1, f2=0, restriction_index=None)"),
    (TowerGroup((E,), (), True), f"TowerGroup(sub=({E!r},), quot=(), "
                                 "known=True)"),
    (RunConfig("coeff", "", None, "bpr", Window(0, 0, 0, 0), 40, "json",
               None, None, False),
     "RunConfig(command='coeff', mode='', n=None, spectrum='bpr', "
     "window=Window(triv_min=0, triv_max=0, sgn_min=0, sgn_max=0), "
     "caps=40, fmt='json', out=None, ssdata=None, oracle=False)"),
]
# records with a list or dict field: equal and repr, but no hash
UNHASHABLE = [
    Page(2, 3, {Degree(0, 0): [E]}, ()),
    DualityReport([REC], [], "1 degree"),
    GorensteinTable(1, (), (), (), {}, {}, {}),
]
RECORDS = [value for value, _ in HASHABLE] + UNHASHABLE


def _fields(value) -> tuple:
    """The plain tuple of a record's fields (a Window iterates degrees)."""
    return value[:]


@pytest.mark.parametrize("value, text", HASHABLE,
                         ids=[type(v).__name__ for v, _ in HASHABLE])
def test_record_repr_and_hash(value, text):
    assert repr(value) == text
    assert hash(value) == hash(_fields(value))


@pytest.mark.parametrize("value", RECORDS, ids=lambda v: type(v).__name__)
def test_record_equals_only_its_own_type(value):
    twin = copy.deepcopy(value)
    assert twin is not value and twin == value and not twin != value
    assert value != _fields(value) and _fields(value) != value
    for other in RECORDS:
        if type(other) is not type(value):
            assert value != other and not value == other


@pytest.mark.parametrize("value", RECORDS, ids=lambda v: type(v).__name__)
def test_record_is_read_only(value):
    assert not hasattr(value, "__dict__")
    field = "triv_min" if type(value) is Window else value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_records_with_equal_fields_differ_by_type():
    assert AssembledClass(2, MOD) != LCSummand(2, MOD)
    assert _fields(AssembledClass(2, MOD)) == _fields(LCSummand(2, MOD))
    assert Window(0, 1, 0, 1) != (0, 1, 0, 1)
    assert len({AssembledClass(2, MOD), LCSummand(2, MOD)}) == 2


def test_ssdata_items_equal_only_themselves():
    # a mutation run drops one record with `without`: it must drop no other
    ss = default_ssdata(2)
    items = ss.items()
    assert {type(item) for item in items} == {Differential, Extension}
    for i, item in enumerate(items):
        assert [j for j, other in enumerate(items) if other == item] == [i]
        assert len(without(ss, item).items()) == len(items) - 1


@pytest.mark.parametrize("build, message", [
    (lambda: Window(1, 0, 0, 0), "empty window 1:0,0:0"),
    (lambda: Window(0, 0, 2, -2), "empty window 0:0,2:-2"),
    (lambda: QuotientIdeal((1,), 2), "tail must be 0 or 1"),
    (lambda: QuotientIdeal((1, -1)), "negative exponent"),
    (lambda: QuotientIdeal()._replace(tail=3), "tail must be 0 or 1"),
    (lambda: Differential("xx", Degree(0, 0), Degree(1, 2)),
     "unknown block 'xx'"),
    (lambda: D._replace(rank=0), "differential rank must be positive"),
    (lambda: D._replace(target=Degree(0, 0)),
     "d_2 from 0 must land on the next diagonal down, not at 0"),
    (lambda: Extension("tt", Degree(0, 0)), "unknown block 'tt'"),
    (lambda: X._replace(block="zz"), "unknown block 'zz'"),
], ids=["Window-triv", "Window-sgn", "QuotientIdeal-tail",
        "QuotientIdeal-exponent", "QuotientIdeal-replace",
        "Differential-block", "Differential-rank", "Differential-diagonal",
        "Extension-block", "Extension-replace"])
def test_record_constructors_keep_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_window_copies_its_bounds_not_its_degrees():
    w = Window(-1, 0, 2, 4)
    assert len(w) == 6 and _fields(w) == (-1, 0, 2, 4)
    assert (w.triv_min, w.triv_max, w.sgn_min, w.sgn_max) == (-1, 0, 2, 4)
    for again in (copy.copy(w), copy.deepcopy(w),
                  pickle.loads(pickle.dumps(w))):
        assert type(again) is Window and again == w
