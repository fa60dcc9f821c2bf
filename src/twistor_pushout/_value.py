"""Frozen value classes: construction, equality, hashing and repr by declared fields.

Every immutable value type of the package derives from :class:`Value`, which
gives it a constructor and value semantics from its field names alone (a
validating class adds a ``_check`` hook): no code is generated per class and no
annotation is evaluated, and nothing beyond ``operator`` is imported, so a fresh
process pays neither for a class decorator's code generation nor for the
``inspect``, ``ast``, ``dis`` and ``tokenize`` modules such a decorator loads.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Base of the package's immutable value classes.

    A subclass declares its fields as class annotations, in order; a value assigned in
    the class body is that field's default.  The constructor binds positional and then
    keyword arguments to the fields, in that order, and raises ``TypeError`` naming the
    class on too many arguments, an unknown keyword, a field given twice or a missing
    field without a default, then runs ``_check``, which a validating subclass defines.
    A subclass with ``__slots__`` has its own constructor and sets its fields with
    ``object.__setattr__``.  Annotations are read as names only, never evaluated.

    Instances are equal when they are of the same class with equal field
    tuples, hash as their field tuple, print as ``Name(field=value, ...)``,
    and refuse assignment and deletion with ``AttributeError``.  A private
    cache is a ``cached_property`` of a subclass without ``__slots__``, kept in
    its ``__dict__`` outside the fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        get = attrgetter(*fields)
        body = vars(cls)
        slots = body.get("__slots__", ())
        cls._fields = fields
        cls._defaults = {name: body[name] for name in fields if name in body and name not in slots}
        # the field tuple, also for one field, so hashes match a tuple's
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self._check()

    def _check(self) -> None:
        """Refuse invalid field values; run by the constructor once they are bound."""

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not give every field positionally."""
        fields, defaults, name = self._fields, self._defaults, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        rest = fields[len(args):]
        for key in kwargs:
            if key not in rest:
                problem = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {problem} argument {key!r}")
        given = {**defaults, **kwargs}
        for field in rest:
            if field not in given:
                raise TypeError(f"{name}() missing argument {field!r}")
        return [*args, *(given[field] for field in rest)]

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
