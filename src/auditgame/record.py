"""Immutable value records: the base class of the package's value types.

A subclass names its fields in `_fields`, in declaration order, and writes
its own `__init__`, which validates its arguments and stores the field
values with `_set`.  The base derives equality, hashing, the repr and
`replace` from `_fields`, with the semantics of a frozen standard-library
data class, but it generates no code and imports nothing (the standard
decorator imports `inspect`), so defining a record costs no start-up time.
"""


class Record:
    """Equality, hash and repr over `_fields`; assignment raises.

    Two records are equal when they are of the same class and their field
    values are equal; the hash is that of the tuple of field values.  An
    instance keeps its fields in its `__dict__`, so `copy` and `pickle`
    restore it without calling `__init__` or `__setattr__`.
    """

    _fields = ()

    def _set(self, *values):
        """Store `values` as the fields, in `_fields` order."""
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with `changes` applied, validated again by `__init__`."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return type(self)(**fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
