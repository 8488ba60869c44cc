"""Base of lcamatch's record classes; dataclasses would load inspect and ast on every start."""

from __future__ import annotations


class Record:
    """Fields named in ``__slots__``, taken by position or keyword.

    A field left out is built by its zero-argument factory in ``_defaults``.
    Records of one class with equal fields are equal.  A class declared
    ``frozen=True`` hashes by its fields and refuses assignment with
    ``AttributeError``; other records are unhashable.
    """

    __slots__ = ()
    _defaults: dict = {}
    _hidden: tuple[str, ...] = ()  # fields left out of repr

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = lambda self: hash(self._values())

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes the fields {names}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                _set(self, name, cls._defaults[name]())
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
        if kwargs:  # unknown, or given by position too
            raise TypeError(f"{cls.__name__} takes the fields {names}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        # Copies and unpickled records go through the constructor, not setattr.
        return type(self), self._values()

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n not in self._hidden)
        return f"{type(self).__name__}({', '.join(shown)})"


_set = object.__setattr__  # frozen records refuse their own __setattr__


def _refuse(self, name: str, *value) -> None:
    raise AttributeError(f"cannot set or delete field {name!r} of a frozen {type(self).__name__}")
