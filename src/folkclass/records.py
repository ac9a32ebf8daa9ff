"""The base of the value records that are not named tuples.

Records are immutable values built without `dataclasses`, whose import
(with `inspect`) and per-class code generation cost a short CLI process
more than its work.  A plain record is a `typing.NamedTuple`; a record
whose constructor checks its fields, or whose `len` and `in` must not be
a tuple's, derives from `Record`.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """A subclass names its fields in `__slots__` and sets them in `__init__`
    with `object.__setattr__`.  As a frozen dataclass: assigning a field
    raises AttributeError, an instance equals only an instance of its own
    class with equal fields, hashes as the tuple of its fields, prints as
    `Name(field=value, ...)`, and copies and pickles through `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__     # the field names, as a dataclass has them

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
