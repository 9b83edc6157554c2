"""The base of the library's value types."""

from operator import attrgetter


class Record:
    """A value type with slotted fields.

    A subclass names its fields in `__slots__`, in order, and sets every
    one of them in its `__init__`; nothing reassigns a field after that.
    Two records are equal when they are of the same type and their fields
    are equal in order, and equal records hash equal: a record of several
    fields hashes the tuple of its fields, a record of one field that
    field.  The repr is `Name(field=value, ...)`.

    Every record compares and hashes by this one rule, through a getter of
    its fields that each subclass builds once, when it is defined.  Two
    types answer other questions and write their own: `QuatAlgebra` hashes
    its integer table alone, and `WittClass` compares by Witt equality.
    `WittClass` also keeps its kernel unpeeled until it is read, and then
    stores it in `form` in place of its diagonal and sets `_terms` to None:
    a class's value never changes."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
