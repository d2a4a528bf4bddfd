"""The base of the package's immutable value types and their unchecked
constructor.  A leaf module, so that counting.ColorSpec can subclass
Frozen without loading the paths module."""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound="Frozen")


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in __slots__, in constructor order, and
    its __init__ sets them once, through _freeze; assigning or deleting
    an attribute raises AttributeError, as on a frozen dataclass.  The
    field tuple is kept beside the fields, so that equality (of the
    same class only) and the hash, which are those of the field tuple,
    read one slot instead of every field.  pickle and copy rebuild a
    value through its constructor, which checks it again.
    """

    __slots__ = ("_values",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _freeze(self, *values) -> None:
        """Set the fields to values, in __slots__ order, and their tuple."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def unchecked(cls: type[F]) -> Callable[[object], F]:
    """The unchecked constructor of cls, a Frozen class with one field.

    It sets the field and the field tuple through their slot descriptors
    and skips __init__, so no check runs: the caller vouches for the
    value, as the package's walkers do for the paths and frames they build.
    """
    set_field, set_values = getattr(cls, cls.__slots__[0]).__set__, Frozen._values.__set__

    def build(value):
        obj = object.__new__(cls)
        set_field(obj, value)
        set_values(obj, (value,))
        return obj

    return build
