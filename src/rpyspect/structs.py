"""The base classes of rpyspect's record types.

A record is a slotted class whose fields are its ``__slots__``, in
constructor order. ``Struct`` builds, compares, shows and copies one from
that list alone, so no class generates code when it is defined. A subclass
gives defaults for its trailing fields in ``_defaults``, or in
``_factories`` as a callable that makes a fresh value for each record (a
mutable default); names the fields that ``==`` and ``hash`` skip in
``_uncompared``; and checks its fields in ``_validate``, which every
construction runs, ``replace`` included. A type built many times per run
writes its own ``__init__`` instead, setting its fields through
``object.__setattr__``.

``Struct`` is mutable and unhashable; ``Frozen`` records reject
assignment and hash by type and compared fields.
"""

from __future__ import annotations

from typing import Callable


class Struct:
    """A slotted record; see the module docstring."""

    __slots__ = ()
    _defaults: dict[str, object] = {}
    _factories: dict[str, Callable[[], object]] = {}
    _uncompared: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            if field in kwargs:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            kwargs[field] = value
        for field in fields:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]
            elif field in self._factories:
                value = self._factories[field]()
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
            object.__setattr__(self, field, value)
        if kwargs:
            raise TypeError(f"{name}() got unexpected keyword arguments {sorted(kwargs)}")
        self._validate()

    def _validate(self) -> None:
        """Raise unless the fields make a valid record."""

    def _compared(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if f not in self._uncompared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared() == other._compared()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild the record through its constructor: their
        # default restores each slot with setattr, which Frozen rejects.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def replace(self, **changes):
        """A new record with ``changes`` applied, built (and so validated)
        by the constructor."""
        return type(self)(**{**{f: getattr(self, f) for f in self.__slots__}, **changes})


class Frozen(Struct):
    """A record whose fields cannot be assigned after construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__name__}")

    def __hash__(self) -> int:
        return hash((type(self), *self._compared()))
