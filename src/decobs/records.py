"""Plain value classes whose fields are their ``__slots__``.

A :class:`Record` equals another instance of its own class whose fields are
equal, and its ``repr`` names its class and fields, in ``__slots__`` order;
it is unhashable, as a mutable value should be.  A :class:`FrozenRecord` is
also hashable and refuses assignment and deletion.  Each subclass writes its
own ``__init__``, which gives the fields their values with :meth:`Record._set`
and then validates them.  Both pickle and copy by calling the class again.

The config, result and kernel values that ``import decobs.cli`` creates are
records rather than dataclasses, because loading ``dataclasses`` (with
``copy``) and creating the classes cost a short call several milliseconds of
start-up.
"""

from __future__ import annotations


class Record:
    """A mutable value: equality and ``repr`` over the fields named by ``__slots__``."""

    __slots__ = ()
    __hash__ = None

    def _set(self, *values) -> None:
        """Give the fields their values, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable value: a :class:`Record` that is hashable and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
