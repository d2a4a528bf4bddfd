"""Lattice paths built from up, down, and horizontal unit steps.

Paths start and end at level 0 and never dip below it.  A path without
horizontal steps is a Dyck path; allowing them gives Motzkin paths.  The
exhaustive enumerators here are the ground truth that every closed
counting formula elsewhere in the package is tested against.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import Frozen, MalformedPath, refuse_over, require_size, unchecked

DYCK_ENUMERATION_CAP = 16
MOTZKIN_ENUMERATION_CAP = 14

_RISE = {"U": 1, "D": -1, "H": 0}


def _walk(text: str) -> Iterator[int]:
    """Yield the level after each step of text, checking it on the way.

    Raises MalformedPath at the first character that is not a step or
    that takes the walk below level 0, and at the end if the walk does
    not return to level 0.
    """
    level = 0
    for ch in text:
        rise = _RISE.get(ch)
        if rise is None:
            raise MalformedPath(f"illegal step character {ch!r}")
        level += rise
        if level < 0:
            raise MalformedPath(f"path dips below level 0: {text!r}")
        yield level
    if level != 0:
        raise MalformedPath(f"path ends at level {level}, not 0: {text!r}")


class Path(Frozen):
    """An immutable lattice path, stored as its string of U, D, and H steps.

    Validity (a str of step characters only, never below level 0, ending
    at level 0) is checked on construction, so every Path value is a real
    path.  The walkers and operators of this package build paths that
    are valid by construction, through _trusted, which does not walk
    them again.
    """

    __slots__ = ("text",)
    text: str

    def __init__(self, text: str = "") -> None:
        if not isinstance(text, str):
            raise MalformedPath(f"path text must be a str, got {text!r}")
        for _ in _walk(text):
            pass
        self._freeze(text)

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.text)

    @property
    def is_dyck(self) -> bool:
        return "H" not in self.text

    def levels(self) -> tuple[int, ...]:
        """The level of each lattice node, in order, starting and ending at
        0; len(path) + 1 of them.  level_sequence(path) is the same function."""
        return (0, *_walk(self.text))


NULL_PATH = Path()
_trusted = unchecked(Path)
level_sequence = Path.levels


def parse_path(text: str) -> Path:
    """Parse a string of U/D/H characters into a validated Path."""
    return Path(text)


def foot_count(path: Path, level: int) -> int:
    """How many nodes of the path lie at the given level."""
    require_size("level", level)
    return path.levels().count(level)


def lift(path: Path) -> Path:
    """Wrap a path in an up step at the start and a down step at the end."""
    return _trusted("U" + path.text + "D")


def glue(first: Path, second: Path) -> Path:
    """Concatenate two paths; associative but not commutative."""
    return _trusted(first.text + second.text)


def enumerate_dyck(
    half_length: int, cap: int | None = DYCK_ENUMERATION_CAP
) -> Iterator[Path]:
    """Yield every Dyck path of length 2 * half_length exactly once.

    Paths come out in lexicographic order of their step strings with
    U sorting before D, so the first path is the single big mountain and
    the last is the sawtooth.  Pass cap=None to lift the size guard.
    Each Path wraps a word of the walker's stream, _dyck_words.
    """
    return map(_trusted, _dyck_words(half_length, cap))


def enumerate_motzkin(
    length: int,
    horizontal_levels: Iterable[int] | None = None,
    cap: int | None = MOTZKIN_ENUMERATION_CAP,
) -> Iterator[Path]:
    """Yield every Motzkin path of the given length exactly once.

    When horizontal_levels is given, horizontal steps may only occur at
    those levels; the empty set forbids them entirely, while None leaves
    them unrestricted.  Order is lexicographic with U < D < H.  Each
    Path wraps a word of the walker's stream, _motzkin_words.
    """
    return map(_trusted, _motzkin_words(length, horizontal_levels, cap))


def _dyck_words(half_length: int, cap: int | None) -> Iterator[str]:
    """The step strings of enumerate_dyck, checked against the cap first."""
    require_size("half_length", half_length)
    refuse_over("Dyck enumeration", half_length, cap, "half-length")
    return _paths(2 * half_length, frozenset())


def _motzkin_words(
    length: int, horizontal_levels: Iterable[int] | None, cap: int | None
) -> Iterator[str]:
    """The step strings of enumerate_motzkin, checked against the cap first."""
    require_size("length", length)
    refuse_over("Motzkin enumeration", length, cap, "length")
    allowed = None if horizontal_levels is None else frozenset(horizontal_levels)
    return _paths(length, allowed)


# Steps at the end of every path that _paths serves from a table.
_TAIL_STEPS = 8


def _paths(length: int, allowed: frozenset[int] | None) -> Iterator[str]:
    """The word (step string) of every path of the given length, in
    U < D < H order.

    Flat steps may sit only at allowed levels, or anywhere when allowed
    is None.  moves[level], built once per call from _RISE, lists each
    (step, next level) open at a level, in U, D, H order: none goes
    below level 0, and H only from an allowed level.  Both parts of the
    walk read it.  The last T = min(length, _TAIL_STEPS) steps come from
    a table of every string of T steps from each level back to level 0,
    built one step at a time: a level's moves, each followed by every
    string one step shorter from the move's next level.  The first
    length - T steps are a depth-first walk over a stack of (prefix,
    level) pairs, so deep paths need no recursion (Knuth, TAOCP 4A,
    7.2.1.6).  A move is taken only if its next level is below the steps
    left, so level 0 stays in reach and a prefix of length - T steps
    ends at a level of at most T; moves are pushed in reverse so that U
    pops first.  Each such prefix is finished with its level's strings
    of the table, so paths stream out one prefix at a time.
    """
    tail = min(length, _TAIL_STEPS)
    moves = [
        [
            (step, level + rise)
            for step, rise in _RISE.items()
            if level + rise >= 0 and (rise or allowed is None or level in allowed)
        ]
        for level in range(length + 1)
    ]
    tails = {0: [""]}
    for _ in range(tail):
        shorter = tails.get
        tails = {
            level: [step + s for step, nxt in moves[level] for s in shorter(nxt, ())]
            for level in range(tail + 1)
        }
    stack = [("", 0)]
    while stack:
        prefix, level = stack.pop()
        remaining = length - len(prefix)
        if remaining == tail:
            yield from [prefix + s for s in tails[level]]
            continue
        stack += [(prefix + step, nxt) for step, nxt in reversed(moves[level]) if nxt < remaining]
