"""Value semantics of the frozen value types: keyword construction,
equality within a class, hashing as the field tuple, immutability."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from genco import EventuallyPeriodicSeq, FloorRule, HechlerCondition, StemPattern

# class, constructor keywords, the canonical fields they give
SAMPLES = [
    (FloorRule, {"table": (3, 1), "slope": 1, "intercept": 0}, ((3,), 1, 0)),
    (
        HechlerCondition,
        {"stem": [1], "exclusions": {(1,): [4, 2]}, "floor": FloorRule((), 1, 0)},
        ((1,), (((1,), (2, 4)),), FloorRule((), 1, 0)),
    ),
    (StemPattern, {"min_len": 2, "hits": ((5, 1),)}, (2, ((5, 1),))),
    (EventuallyPeriodicSeq, {"prefix": [1], "cycle": (0, 2)}, ((1,), (0, 2))),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
# a new value for each class's last field
LAST_FIELD = {
    FloorRule: {"intercept": 2},
    HechlerCondition: {"floor": None},
    StemPattern: {"hits": ((5, 2),)},
    EventuallyPeriodicSeq: {"cycle": (0, 3)},
}


@pytest.mark.parametrize("cls, kwargs, fields", SAMPLES, ids=IDS)
class TestValueSemantics:
    def test_keywords_match_positions(self, cls, kwargs, fields):
        v = cls(**kwargs)
        assert v == cls(*kwargs.values())
        assert tuple(getattr(v, name) for name in kwargs) == fields

    def test_equal_values_hash_as_their_fields(self, cls, kwargs, fields):
        a, b = cls(**kwargs), cls(*fields)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(fields)

    def test_a_different_field_makes_a_different_value(self, cls, kwargs, fields):
        assert cls(**kwargs) != cls(**dict(kwargs, **LAST_FIELD[cls]))

    def test_fields_cannot_be_assigned_or_deleted(self, cls, kwargs, fields):
        v = cls(**kwargs)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(v, name, 0)
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert v == cls(*fields)

    def test_repr_names_every_field(self, cls, kwargs, fields):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(kwargs, fields))
        assert repr(cls(**kwargs)) == f"{cls.__name__}({body})"

    def test_copies_and_pickles_are_equal(self, cls, kwargs, fields):
        v = cls(**kwargs)
        assert copy.copy(v) == copy.deepcopy(v) == pickle.loads(pickle.dumps(v)) == v


def test_different_classes_are_unequal():
    values = [cls(**kwargs) for cls, kwargs, _ in SAMPLES]
    for a, b in itertools.combinations(values, 2):
        assert a != b
    for v, (_, _, fields) in zip(values, SAMPLES):
        assert v != fields
    # equal field tuples, different classes (the unchecked path allows it)
    assert HechlerCondition._trusted((), 0, 0) != FloorRule((), 0, 0)


def test_floor_rule_trims_its_trailing_table():
    f = FloorRule([3, 1, 2, 3, 4], 1, 0)
    assert f.table == (3,)
    assert f == FloorRule((3,), 1, 0) and hash(f) == hash(FloorRule((3,), 1, 0))
    assert FloorRule((0, 0), 0, 0).table == ()
    assert FloorRule((5, 0), 0, 0).table == (5,)


def test_trusted_condition_equals_the_constructed_one():
    floor = FloorRule((2,), 1, 1)
    for stem, excl in [((), ()), ((4, 1), (((4, 1), (0, 3)), ((4, 1, 7), (2,))))]:
        T = HechlerCondition._trusted(stem, excl, floor)
        U = HechlerCondition(stem, excl, floor)
        assert T == U and hash(T) == hash(U) and repr(T) == repr(U)
    assert HechlerCondition._trusted((), (), None) == HechlerCondition()
