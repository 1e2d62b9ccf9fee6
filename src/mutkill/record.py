"""Frozen records: the fields, defaults, `repr`, equality, hashing and
`replace` of a frozen dataclass, from one base class instead of code
generated per class."""

import operator


class Record:
    """A frozen record.  A subclass names its fields, in order, in
    `__slots__`, or in `_fields` where it keeps a `__dict__` (for
    `cached_property`), and gives `_defaults` for the trailing ones.
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
        for f, value in zip(self._fields, args):
            object.__setattr__(self, f, value)

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(*[changes.pop(f) if f in changes else getattr(self, f)
                            for f in self._fields], **changes)

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
