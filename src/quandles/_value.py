"""The base of the package's immutable value classes."""

from __future__ import annotations

from operator import attrgetter


class Value:
    """An immutable record whose fields are its class's annotated names, in order.

    A subclass's ``__init__`` validates its arguments and stores them with
    ``_init``. Two values are equal when they have the same class and
    equal fields, and then hash alike; the repr names every field.
    Assigning or deleting an attribute raises ``AttributeError``. Pickle
    and copy restore the ``__dict__`` without calling ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = cls._fields
        # Reads the field values in C: a tuple of them, or the value itself for one field.
        cls._key = staticmethod(attrgetter(*cls._fields))

    def _init(self, *values: object) -> None:
        """Set the fields, in order, to the values, past ``__setattr__``."""
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
