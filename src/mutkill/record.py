"""Frozen records: the fields, defaults, `repr`, equality, hashing and
`replace` of a frozen dataclass, from one base class instead of code
generated per class.

A record keeps its fields either all in slots, set through their member
descriptors, or all in a `__dict__` of its own, set as one dict.  Neither
goes through `__setattr__`, which refuses every assignment.  `replace`
copies the fields into a new instance of a class that takes its
construction from `Record`, a `__dict__` in one copy; a class with its own
`__init__` or `__new__`, which checks its values or interns its instances,
is rebuilt through it."""

import operator
import types


class Record:
    """A frozen record.  A subclass names its fields, in order, in
    `__slots__`, or in `_fields` where it keeps a `__dict__` (for
    `cached_property`, or for a `replace` that copies one dict), and gives
    `_defaults` for the trailing ones.
    `repr`, equality and hashing leave out the fields in `_hidden`.

    The fields are set by the constructor, positionally or by name, and by
    nothing else: `replace` returns a new record with some of them changed."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}
    _hidden: tuple = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        if cls._shown:
            # the compared value: a tuple, or the one field's value
            cls._compared = staticmethod(operator.attrgetter(*cls._shown))
        slots = [getattr(cls, f, None) for f in cls._fields]
        # whether the fields are kept in the instance's `__dict__`
        cls._in_dict = cls.__dictoffset__ != 0 and not any(
            isinstance(slot, types.MemberDescriptorType) for slot in slots)
        # field -> setter(record, value) of a slot, in field order
        cls._setters = {} if cls._in_dict else {
            f: slot.__set__ for f, slot in zip(cls._fields, slots)}
        cls._copied = cls.__init__ is Record.__init__ and cls.__new__ is object.__new__

    @classmethod
    def _complete(cls, args: tuple, named: dict) -> tuple:
        """`args` followed by the named and defaulted remaining fields."""
        fields = cls._fields
        try:
            args += tuple(named.pop(f) if f in named else cls._defaults[f]
                          for f in fields[len(args):])
        except KeyError as e:
            raise TypeError(f"{cls.__name__}() misses the field {e}") from None
        if named or len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}")
        return args

    def __init__(self, *args, **named) -> None:
        if named or len(args) != len(self._fields):
            args = self._complete(args, named)
        if self._in_dict:
            # a dict of its own, not one grown key by key from the class's
            # shared keys: reading an attribute from it stays fast
            object.__setattr__(self, "__dict__", dict(zip(self._fields, args)))
            return
        for setter, value in zip(self._setters.values(), args):
            setter(self, value)

    def replace(self, **changes):
        """A copy with the named fields changed."""
        cls = type(self)
        if not cls._copied:
            return cls(*[changes.pop(f) if f in changes else getattr(self, f)
                         for f in cls._fields], **changes)
        new = object.__new__(cls)
        if cls._in_dict:
            # one copy of the `__dict__`, less what cached properties keep
            # there
            fields = {**self.__dict__, **changes}
            if len(fields) != len(cls._fields):
                if not changes.keys() <= set(cls._fields):
                    raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}")
                fields = {f: fields[f] for f in cls._fields}
            object.__setattr__(new, "__dict__", fields)
            return new
        for f, setter in cls._setters.items():
            setter(new, changes.pop(f) if f in changes else getattr(self, f))
        if changes:
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}")
        return new

    def __repr__(self) -> str:
        # a plain loop: one Python frame per level of a nested record
        parts = []
        for f in self._shown:
            parts.append(f"{f}={getattr(self, f)!r}")
        return f"{type(self).__qualname__}({', '.join(parts)})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickling and copying rebuild through the constructor
        return type(self), tuple([getattr(self, f) for f in self._fields])
