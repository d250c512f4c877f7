"""The value and record types: reprs, equality, immutability and copying.

The reprs below are pinned to the text the types printed when they were
frozen dataclasses, so a change of implementation cannot change them.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from fibgrid import Case, LightState, NullityRecord, PolyGF2, Report, render

CASE = Case("n=1", 0, PolyGF2(3))

REPRS = [
    (PolyGF2.parse("x^3 + x + 1"), "PolyGF2('x^3 + x + 1')"),
    (PolyGF2(), "PolyGF2('0')"),
    (LightState(n=2, bits=5), "LightState(n=2, bits=5)"),
    (NullityRecord(n=1, d=0, delta=0), "NullityRecord(n=1, d=0, delta=0)"),
    (CASE, "Case(params='n=1', expected=0, computed=PolyGF2('x + 1'))"),
    (
        Report("x", (CASE,)),
        "Report(name='x', cases=(Case(params='n=1', expected=0, computed=PolyGF2('x + 1')),),"
        " scope=None)",
    ),
    (
        Report("x", (CASE,), "n=1..5"),
        "Report(name='x', cases=(Case(params='n=1', expected=0, computed=PolyGF2('x + 1')),),"
        " scope='n=1..5')",
    ),
]

VALUES = [value for value, _ in REPRS]


@pytest.mark.parametrize("value,text", REPRS)
def test_repr(value, text):
    assert repr(value) == text


def test_equality_and_hash_follow_the_fields():
    assert PolyGF2(11) == PolyGF2.parse("x^3 + x + 1")
    assert PolyGF2(bits=11) != PolyGF2(10)
    assert hash(PolyGF2(11)) == hash((11,))
    assert LightState(2, 5) == LightState(n=2, bits=5)
    assert LightState(2, 5) != LightState(3, 5)
    assert LightState(2, 5) != LightState(2, 4)
    assert hash(LightState(2, 5)) == hash((2, 5))
    # no equality across types, even with equal field values
    assert PolyGF2(5) != 5 and PolyGF2(5) != (5,)
    assert LightState(2, 5) != (2, 5)
    assert len({PolyGF2(1), PolyGF2(1), LightState(1, 1), LightState(1, 1)}) == 2
    assert Report("x", (CASE,)) == Report("x", (CASE,), None)
    assert hash(Report("x", (CASE,))) == hash(Report("x", (CASE,), None))
    # the raster is no record type: it is its rows, a plain tuple of ints
    assert render(3) == (1, 2, 5)


@pytest.mark.parametrize(
    "value,field", [(PolyGF2(3), "bits"), (LightState(2, 5), "n"), (LightState(2, 5), "bits")]
)
def test_value_types_refuse_assignment_and_deletion(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(value, field, 1)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        value.other = 1
    assert getattr(value, field) == before


@pytest.mark.parametrize(
    "value,field",
    [(CASE, "params"), (NullityRecord(1, 0, 0), "d"), (Report("x", ()), "scope")],
)
def test_records_refuse_assignment_and_deletion(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1


@pytest.mark.parametrize("value", VALUES)
def test_pickle_and_deepcopy_round_trip(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value)
        assert clone == value
        assert repr(clone) == repr(value)


def test_reduce_rebuilds_through_the_constructor():
    # so pickle and copy run __init__'s validation instead of writing slots
    assert PolyGF2.__reduce__(PolyGF2(6)) == (PolyGF2, (6,))
    assert LightState.__reduce__(LightState(2, 5)) == (LightState, (2, 5))


def test_value_types_are_not_tuples():
    p = PolyGF2(3)
    with pytest.raises(TypeError):
        2 * p
    with pytest.raises(TypeError):
        p * 2
    with pytest.raises(TypeError):
        len(p)
    with pytest.raises(TypeError):
        iter(p)
    with pytest.raises(TypeError):
        len(LightState(2, 5))
    with pytest.raises(TypeError):
        iter(LightState(2, 5))


def test_keyword_construction_and_pattern_matching():
    assert PolyGF2(bits=6) == PolyGF2(6)
    assert LightState(n=1) == LightState(1, 0)
    match LightState(2, 5):
        case LightState(n, bits):
            assert (n, bits) == (2, 5)
    match PolyGF2(6):
        case PolyGF2(bits):
            assert bits == 6
