"""Base of the package's frozen value objects.

Each subclass names its fields once, in ``_fields``, and writes its own
``__init__`` that validates its arguments and stores them into the instance
``__dict__``.  Equality, hashing, ``repr``, immutability and copying are
defined here alone.  (The ``dataclasses`` module would give the same
behaviour, but importing it and decorating the classes take longer than
most CLI commands spend on their work.)
"""

from __future__ import annotations


class Value:
    """Frozen record: compares and hashes by its field values, in ``_fields`` order."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, which validates.
        return type(self), self._values()
