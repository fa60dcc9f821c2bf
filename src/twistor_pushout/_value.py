"""Frozen value classes: equality, hashing and repr by declared fields.

Every immutable value type of the package derives from :class:`Value`, which
gives it value semantics from its field names alone: no code is generated per
class and no annotation is evaluated, and nothing beyond ``operator`` is
imported, so a fresh process pays neither for a class decorator's code
generation nor for the ``inspect``, ``ast``, ``dis`` and ``tokenize`` modules
such a decorator loads.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Base of the package's immutable value classes.

    A subclass declares its fields as class annotations, in order, and its
    ``__init__`` sets them with :meth:`_assign` (or ``object.__setattr__``).
    A name that starts with an underscore is private state, set the same way
    but left out of equality, hashing and ``repr``.  Annotations are read as
    names only, never evaluated.

    Instances are equal when they are of the same class with equal field
    tuples, hash as their field tuple, print as ``Name(field=value, ...)``,
    and refuse assignment and deletion with ``AttributeError``.  A subclass
    without ``__slots__`` keeps a ``__dict__``, so ``cached_property`` works.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__annotations__ if not name.startswith("_"))
        get = attrgetter(*fields)
        cls._fields = fields
        # the field tuple, also for one field, so hashes match a tuple's
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def _assign(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
