"""Value semantics of the frozen value types: keyword construction,
equality within a class, hashing as the field tuple, immutability; and
of the records, which behave as the `typing.NamedTuple`s they replace."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from genco import EventuallyPeriodicSeq, FloorRule, HechlerCondition, StemPattern
from genco.cli import RunConfig
from genco.cohenpair import PairRecord, PairTranscript
from genco.conditions import ExtendsAnswer
from genco.generic import CheckResult, RunRecord, RunTranscript, TranscriptEntry, VerificationReport

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


_CHECK = CheckResult("chain.extends", "entry 0", False, "witness (0,)")
_RECORD = RunRecord("MEET", 0, None, 0, (2, 5), (), FloorRule((3,), 1, 0))
_STAGE = PairRecord(0, 0, b"\x01", 0, b"\x00\x01")
# class, every field by keyword in field order, the defaults, and the repr
# the typing.NamedTuple of the same class body printed
RECORDS = [
    (
        RunConfig,
        {"poset": "hechler", "steps": 2, "dense": (), "help": None, "x": EventuallyPeriodicSeq((1,), (0, 2)), "dense2": ()},
        {"help": None, "x": None, "dense2": ()},
        "RunConfig(poset='hechler', steps=2, dense=(), help=None, x=EventuallyPeriodicSeq(prefix=(1,), cycle=(0, 2)), "
        "dense2=())",
    ),
    (
        ExtendsAnswer,
        {"witness": (0, 1), "reason": "no floor"},
        {"witness": None, "reason": None},
        "ExtendsAnswer(witness=(0, 1), reason='no floor')",
    ),
    (
        TranscriptEntry,
        {"kind": "CODE", "index": 1, "condition": HechlerCondition((2, 4)), "z": 4},
        {"z": None},
        "TranscriptEntry(kind='CODE', index=1, condition=HechlerCondition(stem=(2, 4), exclusions=(), floor=None), z=4)",
    ),
    (
        RunRecord,
        dict(zip(RunRecord._fields, _RECORD)),
        {},
        "RunRecord(kind='MEET', index=0, z=None, keep=0, new=(2, 5), exclusions=(), "
        "floor=FloorRule(table=(3,), slope=1, intercept=0))",
    ),
    (
        RunTranscript,
        {"roster_hash": "0" * 8, "help_config": {"kind": "evens"}, "target_config": None, "steps": 1,
         "records": (_RECORD,), "g_prefix": (2, 5)},
        {},
        "RunTranscript(roster_hash='00000000', help_config={'kind': 'evens'}, target_config=None, steps=1, "
        "records=(RunRecord(kind='MEET', index=0, z=None, keep=0, new=(2, 5), exclusions=(), "
        "floor=FloorRule(table=(3,), slope=1, intercept=0)),), g_prefix=(2, 5))",
    ),
    (
        CheckResult,
        dict(zip(CheckResult._fields, _CHECK)),
        {"detail": ""},
        "CheckResult(check='chain.extends', locus='entry 0', ok=False, detail='witness (0,)')",
    ),
    (
        VerificationReport,
        {"checks": (_CHECK,)},
        {},
        "VerificationReport(checks=(CheckResult(check='chain.extends', locus='entry 0', ok=False, "
        "detail='witness (0,)'),))",
    ),
    (
        PairRecord,
        dict(zip(PairRecord._fields, _STAGE)),
        {},
        "PairRecord(index=0, p_keep=0, p_new=b'\\x01', q_keep=0, q_new=b'\\x00\\x01')",
    ),
    (
        PairTranscript,
        {"roster1_hash": "1" * 8, "roster2_hash": "2" * 8, "target_config": {"prefix": [], "cycle": [1]},
         "stages": 1, "records": (_STAGE,), "c1": b"\x01", "c2": b"\x00"},
        {},
        "PairTranscript(roster1_hash='11111111', roster2_hash='22222222', target_config={'prefix': [], 'cycle': [1]}, "
        "stages=1, records=(PairRecord(index=0, p_keep=0, p_new=b'\\x01', q_keep=0, q_new=b'\\x00\\x01'),), "
        "c1=b'\\x01', c2=b'\\x00')",
    ),
]


@pytest.mark.parametrize("cls, kwargs, defaults, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecords:
    def test_equal_and_hash_as_a_plain_tuple(self, cls, kwargs, defaults, text):
        v, plain = cls(*kwargs.values()), tuple(kwargs.values())
        assert v == plain and plain == v
        try:
            want = hash(plain)
        except TypeError:  # a transcript holds its header dicts
            with pytest.raises(TypeError):
                hash(v)
        else:
            assert hash(v) == want
        assert isinstance(v, tuple) and len(v) == len(kwargs)
        assert v != plain[:-1] + ("other",)

    def test_positional_keyword_and_default_construction(self, cls, kwargs, defaults, text):
        v = cls(*kwargs.values())
        assert cls(**kwargs) == v and type(cls(**kwargs)) is cls
        assert tuple(getattr(v, name) for name in kwargs) == tuple(kwargs.values())
        required = {name: value for name, value in kwargs.items() if name not in defaults}
        assert cls(**required) == tuple(dict(kwargs, **defaults).values())
        assert cls(*required.values()) == cls(**required)
        if required:
            with pytest.raises(TypeError, match="missing"):
                cls(*list(required.values())[:-1])
        with pytest.raises(TypeError, match="unexpected"):
            cls(*kwargs.values(), bogus=1)
        with pytest.raises(TypeError, match="positional"):
            cls(*kwargs.values(), None)
        with pytest.raises(TypeError, match="multiple"):
            cls(*kwargs.values(), **{next(iter(kwargs)): None})

    def test_fields_and_replace(self, cls, kwargs, defaults, text):
        assert cls._fields == tuple(kwargs)
        assert cls._field_defaults == defaults
        v = cls(**kwargs)
        last = cls._fields[-1]
        w = v._replace(**{last: "other"})
        assert type(w) is cls and w == tuple(kwargs.values())[:-1] + ("other",)
        assert v._replace() == v and v == tuple(kwargs.values())
        with pytest.raises(ValueError):
            v._replace(bogus=1)

    def test_no_dict_and_fields_cannot_be_assigned(self, cls, kwargs, defaults, text):
        v = cls(**kwargs)
        assert not hasattr(v, "__dict__")
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(v, name, 0)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert v == tuple(kwargs.values())

    def test_copies_and_pickles_round_trip(self, cls, kwargs, defaults, text):
        v = cls(**kwargs)
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(w) is cls and w == v

    def test_repr_is_the_named_tuple_text(self, cls, kwargs, defaults, text):
        assert repr(cls(**kwargs)) == text
