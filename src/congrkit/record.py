"""Base classes of the package's small records.

A record names its fields, in order, in __slots__, and takes them in that
order in __init__.  The base gives it the repr a dataclass would print,
Class(field=value, ...), and pickling and copying by calling the class on
its fields again.  Each record writes its own __eq__ (and, when frozen,
__hash__) with the fields spelled out, as both sit on hot paths.

A record that users take apart with the dataclasses functions also sets
__dataclass_fields__ = DataclassFields(), which imports dataclasses only
when first read, so importing the package does not load it.
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


class DataclassFields:
    """The __dataclass_fields__ of a record class, built on first read.

    It lists the fields in __slots__ order, each with its __init__
    annotation and default, as @dataclass would have: so is_dataclass,
    fields, asdict, astuple and replace take the record and its class.  The
    built dict then replaces this descriptor on the class.
    """

    def __get__(self, instance, owner: type) -> dict:
        import dataclasses

        init = owner.__init__
        names, notes = owner.__slots__, init.__annotations__
        defaults = init.__defaults__ or ()
        first = len(names) - len(defaults)
        spec = [(name, notes[name]) for name in names[:first]]
        spec += [(name, notes[name], dataclasses.field(default=default))
                 for name, default in zip(names[first:], defaults)]
        fields = dataclasses.make_dataclass(owner.__name__, spec).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields
