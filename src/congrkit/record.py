"""Base classes of the package's small records.

A record names its fields, in order, in __slots__, and takes them in that
order in __init__.  The base gives it the repr a dataclass would print,
Class(field=value, ...), and pickling and copying by calling the class on
its fields again.  Each record writes its own __eq__ (and, when frozen,
__hash__) with the fields spelled out, as both sit on hot paths.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """A record whose fields are set once, by __init__ through
    object.__setattr__; any later assignment or deletion raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
