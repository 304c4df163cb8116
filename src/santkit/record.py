"""Immutable records: the one base class of santkit's data types.

A subclass lists its fields as annotations in its class body, in order; a
class attribute of the same name is that field's default.  ``Record`` gives
every subclass one shared ``__init__`` (positional or keyword), equality by
class and field values, the hash of the field tuple, a
``Name(field=value, ...)`` repr and frozen attributes.  Nothing is generated
per class: the shared methods read the field tuple and a C-level getter that
``__init_subclass__`` stores once, so defining a record costs about as much
as defining a plain class.
"""

from __future__ import annotations

from operator import attrgetter

# ``__init__`` stores each field through ``object.__setattr__``.  That keeps
# the values in CPython's compact per-class instance layout; filling
# ``self.__dict__`` in one ``update`` builds a full dict instead, which on
# 3.11 takes 64 more bytes per record and reads fields 2-3x slower.
_set = object.__setattr__


def _getter(fields: tuple[str, ...]):
    """A callable from a record to the tuple of its field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        one = attrgetter(fields[0])
        return lambda record: (one(record),)
    return lambda record: ()


class Record:
    _fields: tuple[str, ...]         # the annotated names, in order
    _defaults: dict[str, object]     # field -> default, for those with one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in fields
                         if name in cls.__dict__}
        cls._values = staticmethod(_getter(fields))
        cls.__match_args__ = fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}(" \
            f"{', '.join(f'{name}={value!r}' for name, value in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls: type[Record], args: tuple, kwargs: dict) -> list:
    """The field values of ``cls(*args, **kwargs)``, in field order."""
    fields = cls._fields
    given = dict(zip(fields, args))
    values = {**cls._defaults, **given, **kwargs}
    if len(args) <= len(fields) == len(values) \
            and given.keys().isdisjoint(kwargs):
        try:
            return [values[name] for name in fields]
        except KeyError:             # a field missing, an unknown name given
            pass
    raise TypeError(f"{cls.__qualname__}() {_mismatch(cls, args, kwargs)}")


def _mismatch(cls: type[Record], args: tuple, kwargs: dict) -> str:
    """Why ``cls(*args, **kwargs)`` binds no record."""
    fields = cls._fields
    if len(args) > len(fields):
        return (f"takes {len(fields)} positional argument(s) but "
                f"{len(args)} were given")
    for name in fields[:len(args)]:
        if name in kwargs:
            return f"got multiple values for argument {name!r}"
    for name in kwargs:
        if name not in fields:
            return f"got an unexpected keyword argument {name!r}"
    missing = [name for name in fields[len(args):]
               if name not in kwargs and name not in cls._defaults]
    return f"missing required argument(s): {', '.join(map(repr, missing))}"


def replace(record: Record, /, **changes) -> Record:
    """A copy of ``record`` with the named fields set to new values."""
    cls = type(record)
    values = [changes.pop(name, value)
              for name, value in zip(cls._fields, cls._values(record))]
    if changes:
        raise TypeError(
            f"{cls.__qualname__} has no field {next(iter(changes))!r}")
    return cls(*values)
