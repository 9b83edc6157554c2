"""The base of the library's value types."""


class Record:
    """A value type with slotted fields.

    A subclass names its fields in `__slots__`, in order, and sets every
    one of them in its `__init__`; nothing reassigns a field after that.
    Two records are equal when they are of the same type and their fields
    are equal in order, and the hash is that of the tuple of fields, so
    equal records hash equal.  The repr is `Name(field=value, ...)`.

    A type on a hot path writes its own `__eq__` and `__hash__`, with the
    same meaning: the generic ones here cost a getattr per field."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
