"""Immutable value types built without code generation at import time.

A `Frozen` subclass names its fields in `__slots__`, in constructor
order, and sets them once with `_set`.  It equals only instances of its
own class, hashes as its field tuple and refuses assignment.

A `Record` subclass is a slotted tuple whose fields are the annotated
names of its class body, in order; a class value on a field is its
default.  It behaves as the `typing.NamedTuple` of the same body does:
it equals and hashes as a plain tuple, and has `_fields`,
`_field_defaults`, `_replace` and the NamedTuple repr.  The annotations
are only read for their names, never evaluated, so nothing is compiled.
"""

from collections import _tuplegetter
from operator import attrgetter

_tuple_new = tuple.__new__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)  # no descriptor: called as self._values(self)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class _RecordType(type):
    """Turns a class body into a `Record`: each annotated name becomes a
    field read by index, and its class value, if any, its default."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["__slots__"] = ()
        ns["_fields"] = fields
        ns["_field_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        for i, f in enumerate(fields):
            ns[f] = _tuplegetter(i, f"Alias for field number {i}")
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    def __new__(cls, *args, **kwargs):
        if len(args) == len(cls._fields) and not kwargs:
            return _tuple_new(cls, args)
        return _tuple_new(cls, cls._values_of(args, kwargs))

    @classmethod
    def _values_of(cls, args, kwargs):
        """The field values of a call with keywords or defaults, with the
        `TypeError` a function of the same signature would raise."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments but {len(args)} were given")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values = list(args)
        for name in fields[len(args) :]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in cls._field_defaults:
                values.append(cls._field_defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
        return values

    def _replace(self, **changes):
        """A copy with the given fields changed."""
        record = _tuple_new(self.__class__, map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({fields})"

    def __getnewargs__(self):
        return tuple(self)
