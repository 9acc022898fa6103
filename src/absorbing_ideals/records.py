"""Frozen value records: the package's result and descriptor types.

A record class lists its fields as annotations, in order, any with a
default after those without; a `Fresh(factory)` default gives each
instance a new value, and `kw_only=True` in the class statement
refuses positional arguments.  Records compare equal by class and
fields, hash as the tuple of their fields, show as
`Name(field=value, ...)` and refuse assignment, as frozen dataclasses
do, but no code is generated for them: the fields are read once per
class.  Passing every field positionally is the fast way to build one.
"""

from itertools import repeat
from operator import attrgetter, itemgetter

_set = object.__setattr__


class Fresh:
    """A field default made anew for each instance by `factory()`."""

    def __init__(self, factory):
        self.factory = factory


def _tuple_getter(getter, fields: tuple):
    """`getter(*fields)`, returning a tuple for a single field too."""
    get = getter(*fields)
    return get if len(fields) > 1 else lambda source: (get(source),)


class Record:
    """Base of the frozen value records described above."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, kw_only: bool = False):
        super().__init_subclass__()
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        cls._fresh = tuple(f for f, d in cls._defaults.items() if type(d) is Fresh)
        cls._arity = -1 if kw_only else len(fields)  # -1 turns the fast path off
        cls._astuple = staticmethod(_tuple_getter(attrgetter, fields))
        cls._pick = staticmethod(_tuple_getter(itemgetter, fields))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != self._arity:
            args = self._bind(args, kwargs)
        any(map(_set, repeat(self), self._fields, args))  # every call returns None

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """Field values in order from any arguments and the defaults."""
        name, fields, defaults = type(self).__name__, self._fields, self._defaults
        if args:
            if len(args) > max(self._arity, 0):
                raise TypeError(f"{name}() takes {max(self._arity, 0)} positional arguments")
            repeated = kwargs.keys() & fields[: len(args)]
            if repeated:
                raise TypeError(f"{name}() got multiple values for {sorted(repeated)}")
            kwargs.update(zip(fields, args))
        values = {**defaults, **kwargs}
        for field in self._fresh:
            if values[field] is defaults[field]:
                values[field] = defaults[field].factory()
        if len(values) == len(fields):
            try:
                return self._pick(values)
            except KeyError:
                pass  # an unknown name stood in for a missing one
        missing = [f for f in fields if f not in values]
        unknown = [k for k in values if k not in fields]
        raise TypeError(f"{name}() missing arguments {missing}, unexpected arguments {unknown}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
