"""Immutable value types, without code generated per class.

A value type subclasses :class:`Value`; its fields are the parameters of
its ``__init__``, which checks them and then sets them all with
:func:`set_fields` (or, on hot paths, each with :func:`set_field` and
then ``_key``, the tuple of their values).  ``Value`` makes attributes
read-only, gives the repr ``Name(field=value, ...)``, and compares and
hashes by ``_key``; a type that holds arrays is made with ``eq=False``
and compares by identity.  Other attributes ``__init__`` sets are
derived: they stay out of the repr and of ``==``.
"""

from __future__ import annotations

set_field = object.__setattr__


class Value:
    def __init_subclass__(cls, eq: bool = True):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


def set_fields(value: Value, *values) -> None:
    """Set the fields of a new ``value`` to ``values``, in ``_fields`` order, and its key."""
    for name, field in zip(value._fields, values):
        set_field(value, name, field)
    set_field(value, "_key", values)
