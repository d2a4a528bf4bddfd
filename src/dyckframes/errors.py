"""Exception types shared across the package, its two argument guards
(refuse_over for work over a size cap, require_size for every size
argument), and the readers of count text that every size flag goes
through."""


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
