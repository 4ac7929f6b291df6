"""Immutable value records.

A Value subclass names its fields in `_fields`, in constructor order,
and sets them once in its `__init__` through `_set`.  Instances of one
class are equal, and hash alike, when their `_compared` fields (all
fields unless the class says otherwise) are; the repr shows every field
as `Name(field=value, ...)`.  Assigning or deleting an attribute raises
AttributeError.  This is what `@dataclass(frozen=True)` generates,
without the code generation and the `inspect` import that it costs
when a module loads.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _compared: tuple | None = None

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared or self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
