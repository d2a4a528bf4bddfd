"""The package's leaf module, which imports nothing from the package:
the exception types, the two argument guards (refuse_over for work over
a size cap, require_size for every size argument), the readers of count
text that every size flag goes through, and Frozen, the base of the
immutable value types, with unchecked, their unchecked constructor."""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound="Frozen")


class DyckFramesError(Exception):
    """Base class for all library-specific errors."""


class MalformedPath(DyckFramesError, ValueError):
    """Text does not describe a valid lattice path."""


class NotDyck(DyckFramesError, ValueError):
    """The operation needs a path without horizontal steps."""


class ResourceLimit(DyckFramesError):
    """Work over a size cap, refused by refuse_over before it starts."""


def refuse_over(what: str, size: int, cap: int | None, unit: str) -> None:
    """Raise ResourceLimit when size exceeds cap; a cap of None admits any size.

    Every capped function and command calls this before its work starts,
    so every refusal reads "<what>: <unit> <size> exceeds the cap of <cap>".
    """
    if cap is not None and size > cap:
        raise ResourceLimit(f"{what}: {unit} {size} exceeds the cap of {cap}")


def require_size(name: str, value: int) -> None:
    """Raise ValueError unless value is a nonnegative int (a bool is not one);
    every public size argument is checked here, so each refusal reads
    "<name> must be a nonnegative int"."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a nonnegative int")


def parse_count(text: str, noun: str, where: str) -> int:
    """Parse one nonnegative integer in ASCII digits, blanks around it ignored.

    A sign, an underscore or a digit of another script, which int() takes,
    is refused with a ValueError that names noun and where.
    """
    piece = text.strip()
    if not (piece.isascii() and piece.isdigit()):
        raise ValueError(f"bad {noun} {piece!r} in {where}")
    return int(piece)


def parse_counts(text: str, noun: str, where: str) -> tuple[int, ...]:
    """Parse comma-separated numbers, each read by parse_count."""
    return tuple(parse_count(piece, noun, where) for piece in text.split(","))


class Underflow(DyckFramesError, ValueError):
    """A sequence operation would produce a negative entry."""


class NotLifted(DyckFramesError, ValueError):
    """The sequence has no leading 2 to remove."""


class NotAdmissible(DyckFramesError, ValueError):
    """The sequence is not the frame of any Dyck path."""


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
