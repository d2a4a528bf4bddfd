"""Frames of Dyck paths and the algebra of raw count sequences.

The frame of a Dyck path records how many of its lattice nodes sit at
each level, lowest level first, with trailing zeros dropped.  Two paths
are equivalent exactly when their frames agree.  Four elementary
operators drive everything here: prepending a 2 (what lifting a path
does to its frame), adding 1 to the first two entries (gluing a single
peak onto the end), and their two inverses.  A sequence is admissible
when it is the frame of at least one path; this module decides that by
two independent methods (the reduction itself and a closed test on the
up steps per level), builds the canonical representative path of any
admissible frame, and walks the class of paths that have that frame.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    Frozen,
    NotAdmissible,
    NotDyck,
    NotLifted,
    Underflow,
    parse_counts,
    refuse_over,
    require_size,
    unchecked,
)
from .paths import Path, _trusted

# A raw sequence is any finite tuple of nonnegative ints, trailing zeros
# trimmed; admissibility is a property to be decided, not assumed.
RawSequence = tuple[int, ...]


def trim(seq: Iterable[int] | "Frame") -> RawSequence:
    """A sequence as a tuple with trailing int zeros removed.

    A tuple whose last entry is not 0 is returned as it is, without a
    copy or a scan, and any other tuple is scanned without a copy: the
    deciders trim every sequence they are given.  A zero that is not an
    int, such as 0.0 or False, stays for them to refuse.
    """
    if type(seq) is tuple:
        if seq and seq[-1] != 0:
            return seq
        counts = seq
    elif isinstance(seq, Frame):
        counts = seq.counts
    else:
        try:
            counts = tuple(seq)
        except TypeError:
            raise ValueError(f"expected a sequence of counts, got {seq!r}") from None
    end = len(counts)
    while end and counts[end - 1] == 0 and type(counts[end - 1]) is int:
        end -= 1
    return counts[:end]


def frame_length(seq: Sequence[int] | "Frame") -> int:
    """Sum of the entries minus one; even for admissible sequences."""
    return sum(trim(seq)) - 1


def lift_frame(seq: Sequence[int] | "Frame") -> RawSequence:
    """Prepend a 2: the frame counterpart of lifting a path."""
    return (2,) + trim(seq)


def glue_frames(
    first: Sequence[int] | "Frame", second: Sequence[int] | "Frame"
) -> RawSequence:
    """Entrywise sum with the leading entry reduced by one.

    The glued paths share the node where they meet, so one level-0 foot
    is double counted.  Commutative and associative; (1,) is the
    identity.
    """
    a, b = trim(first), trim(second)
    if not a or not b:
        raise ValueError("glue_frames requires two nonempty sequences")
    if len(a) < len(b):
        a, b = b, a
    merged = list(a)
    for k, value in enumerate(b):
        merged[k] += value
    merged[0] -= 1
    return trim(merged)


def extend_frame(seq: Sequence[int] | "Frame") -> RawSequence:
    """Add 1 to the first two entries: gluing a single peak onto the end."""
    counts = trim(seq)
    if not counts:
        raise ValueError("extend_frame requires a nonempty sequence")
    second = counts[1] if len(counts) > 1 else 0
    return (counts[0] + 1, second + 1) + counts[2:]


def unextend(seq: Sequence[int] | "Frame") -> RawSequence:
    """Subtract 1 from the first two entries; inverse of extend_frame."""
    counts = trim(seq)
    first = counts[0] if counts else 0
    second = counts[1] if len(counts) > 1 else 0
    if first < 1 or second < 1:
        raise Underflow(f"first two entries of {counts!r} must both be at least 1")
    return trim((first - 1, second - 1) + counts[2:])


def unlift(seq: Sequence[int] | "Frame") -> RawSequence:
    """Drop a leading 2; inverse of lift_frame on its image."""
    counts = trim(seq)
    if not counts or counts[0] != 2:
        raise NotLifted(f"leading entry of {counts!r} is not 2")
    return trim(counts[1:])


def is_admissible_trace(seq: Sequence[int] | "Frame") -> bool:
    """Decide admissibility by running the reduction procedure.

    Repeatedly, a leading 2 is erased, and otherwise 1 is subtracted from
    the first two entries; the sequence is admissible exactly when this
    reaches (1,).  _reduction_ops runs the reduction a level at a time;
    it works on the entries and their running sum, independently of the
    up-step recurrence behind is_admissible_closed.  An entry that is not
    a number stops the sums with TypeError: not a frame either.
    """
    counts = trim(seq)
    try:
        return _reduction_ops(counts) is not None
    except TypeError:
        return False


def is_admissible_closed(seq: Sequence[int] | "Frame") -> bool:
    """Decide admissibility from the up steps per level, no reduction.

    Writing the trimmed sequence as (c0, ..., cf), the would-be up steps
    from level k are v0 = c0 - 1 and vk = ck - v(k-1).  The sequence is a
    frame exactly when every vk with k < f is at least 1 and vf is 0,
    that is cf == v(f-1).  Then every entry is at least 1, so negative
    entries are rejected too.  Entries that are not numbers stop the sums
    with TypeError, and other numbers can pass them, so an accepted
    sequence has its entry types checked last.  This is
    up_steps_per_level inlined, kept as a plain loop because the decider
    is swept over millions of sequences.
    """
    counts = trim(seq)
    ups = 1
    try:
        for value in counts[:-1]:
            ups = value - ups
            if ups < 1:
                return False
    except TypeError:
        return False
    return bool(counts) and counts[-1] == ups and all(type(v) is int for v in counts)


class Frame(Frozen):
    """An admissible frame: the per-level foot counts of some Dyck path.

    Construction trims trailing zeros and checks admissibility with the
    closed decider, which also refuses any entry that is not an int, so
    a Frame value is a proof that a matching path exists.  frame_of and
    the frame walker build admissible frames through _trusted_frame,
    which does not check them again.
    """

    __slots__ = ("counts",)
    counts: RawSequence

    def __init__(self, counts: RawSequence) -> None:
        normalized = trim(counts)
        if not is_admissible_closed(normalized):
            raise NotAdmissible(f"not the frame of any Dyck path: {normalized!r}")
        self._freeze(normalized)

    @property
    def degree(self) -> int:
        """Index of the highest level that has any feet."""
        return len(self.counts) - 1

    length = property(frame_length)  # of every path in the class; always even

    def foot_count(self, level: int) -> int:
        require_size("level", level)
        return self.counts[level] if level <= self.degree else 0

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.counts)

    @classmethod
    def parse(cls, text: str) -> "Frame":
        return cls(parse_frame_text(text))


NULL_FRAME = Frame((1,))
_trusted_frame = unchecked(Frame)  # for trimmed, admissible counts


def parse_frame_text(text: str) -> RawSequence:
    """Parse comma-separated nonnegative integers; trailing zeros dropped."""
    return trim(parse_counts(text, "frame entry", repr(text)))


def ensure_frame(value: Frame | Sequence[int]) -> Frame:
    """Coerce raw counts to a Frame, proving admissibility on the way."""
    return value if isinstance(value, Frame) else Frame(value)


def frame_of(path: Path) -> Frame:
    """The frame of a Dyck path: its foot counts per level.

    One pass over the steps of a path that is valid already.  The counts
    of a Dyck path are always admissible (verify's frame_set_oracle checks
    this census against enumerate_frames), so the Frame is not checked.
    """
    if not path.is_dyck:
        raise NotDyck(f"path has horizontal steps: {path.text!r}")
    counts = [1]
    level = top = 0
    for step in path.text:
        if step == "U":
            level += 1
            if level > top:  # the first node at a new level
                top = level
                counts.append(1)
                continue
        else:
            level -= 1
        counts[level] += 1
    return _trusted_frame(tuple(counts))


# The half-length cap of enumerate_frames: there are 2**(n-1) frames of
# half-length n, and enumerate_frames(20) yields its 524,288 in 0.57 s
# (min of 5, in process, CPython 3.11.7 on a 2-vCPU Intel Xeon VM).
FRAME_ENUMERATION_CAP = 20


def enumerate_frames(
    half_length: int, cap: int | None = FRAME_ENUMERATION_CAP
) -> Iterator[Frame]:
    """Yield every admissible frame of length 2 * half_length exactly once.

    Every frame of length 2n + 2 is the lifting or the extension of one
    of length 2n.  The two children coincide only when the parent is
    the null frame, which is why there are 2**(n-1) frames of length 2n
    for n > 0.  Frames come out in the order of their choices of
    lifting (first) and extension, read from the null frame up.
    """
    require_size("half_length", half_length)
    refuse_over("frame enumeration", half_length, cap, "half-length")
    return _frames(half_length)


def _frames(half_length: int) -> Iterator[Frame]:
    stack: list[tuple[RawSequence, int]] = [((1,), 0)]
    while stack:
        counts, size = stack.pop()
        if size == half_length:  # a lifting or extension of an admissible frame
            yield _trusted_frame(counts)
            continue
        if counts != (1,):  # both children of the null frame are (2, 1)
            stack.append((extend_frame(counts), size + 1))
        stack.append((lift_frame(counts), size + 1))


def up_steps_per_level(frame: Frame | Sequence[int]) -> tuple[int, ...]:
    """Up steps joining level k to k + 1, for k from 0 below the degree.

    The value depends only on the frame, not on the particular path:
    each node contributes two incident steps, half rising, so the counts
    satisfy v0 = c0 - 1 and vk = ck - v(k-1).  They are all positive and
    sum to half the frame length.  A Dyck path has the frame exactly when
    it rises vk times across each gap k, which is how frame_class walks
    it; is_admissible_closed runs the same recurrence inline.
    """
    frame = ensure_frame(frame)
    ups = []
    previous = 1
    for count in frame.counts[: frame.degree]:
        previous = count - previous
        ups.append(previous)
    return tuple(ups)


def frame_class(frame: Frame | Sequence[int]) -> Iterator[Path]:
    """Yield every Dyck path whose frame is the given one, exactly once.

    Paths come out in lexicographic order with U before D, as from
    paths.enumerate_dyck, and there are counting.frame_cardinality of
    them.  Raises NotAdmissible at once for a sequence that is not a
    frame.
    """
    frame = ensure_frame(frame)
    return _class_paths(up_steps_per_level(frame), frame.length)


def _class_paths(ups: RawSequence, length: int) -> Iterator[Path]:
    """A depth-first walk that carries the rises left across each gap: a
    U step from level l spends one across gap l, and a D step none, as
    every gap below the walk is crossed down once more than up.  U needs
    a rise left across gap l, and D one across gap l - 1 unless none is
    left across gap l.  These keep a rise left across every gap from the
    walk up to the highest one that has any, which is exactly when an
    Euler trail back to level 0 exists (van Aardenne-Ehrenfest and de
    Bruijn 1951), so no branch dead-ends and each path costs O(n * f)
    for length 2n and degree f.  D is pushed before U so that U pops
    first."""
    stack = [("", 0, ups)]
    while stack:
        prefix, level, left = stack.pop()
        if len(prefix) == length:
            yield _trusted(prefix)
            continue
        above = left[level] if level < len(left) else 0
        if level and (left[level - 1] or not above):
            stack.append((prefix + "D", level - 1, left))
        if above:
            rest = left[:level] + (above - 1,) + left[level + 1 :]
            stack.append((prefix + "U", level + 1, rest))


def _reduction_ops(counts: RawSequence) -> list[int] | None:
    """Reduce counts to (1,) a level at a time; None if it gets stuck.

    A leading entry x >= 2 takes x - 2 unit subtractions from the first
    two entries and is then erased as a 2, so the level goes in one move:
    x - 2 is recorded (the peaks glued at that level), taken from the
    next entry, and the sum of the entries left drops by 2 * (x - 1).  A
    leading entry below 2 with more than 1 left is stuck.  A next entry
    too small to give x - 2 needs no check of its own: it leaves a
    leading entry below 2 one level later, or a last entry that is not 1.
    The list records one count per erased level, lowest first.  Entries
    that are not ints, and negative entries, can reach (1,) too, so both
    are refused there, on the accept path.
    """
    total = sum(counts)
    ops: list[int] = []
    taken = 0  # what the level below took from this entry
    for x in counts:
        x -= taken
        if total < 2:
            if total == 1 and x == 1 and all(type(v) is int and v >= 0 for v in counts):
                return ops
            return None
        if x < 2:
            return None
        taken = x - 2
        ops.append(taken)
        total -= 2 * (x - 1)
    return None


def canonical_representative(frame: Frame | Sequence[int]) -> Path:
    """The distinguished path of a frame.

    The frame is reduced to (1,) by the admissibility procedure, then the
    steps are replayed backwards on paths: an erased 2 becomes a lifting
    and a subtraction becomes a peak glued onto the end.  In the result,
    any maximal run of down steps is followed by at most one up step.
    """
    frame = ensure_frame(frame)
    ops = _reduction_ops(frame.counts)
    if ops is None:  # unreachable for a validated Frame; kept as a guard
        raise NotAdmissible(f"not reducible to the null frame: {frame.counts!r}")
    return _trusted("U" * len(ops) + "".join("D" + "UD" * k for k in reversed(ops)))


def consequences_hold(frame: Frame | Sequence[int]) -> bool:
    """Check three structural facts that every admissible frame satisfies.

    With counts (c0, ..., cf): the entry below the top exceeds the top
    entry; c0 == c1 + 1 exactly when the second entry is the last one
    (degree 1; at higher degrees c1 >= c0, so the gap of one is
    impossible); and every interior entry cj with 0 < j < f - 1
    satisfies 2 <= cj <= c(j-1) + c(j+1) - 2.  Vacuously true for the
    null frame.
    """
    frame = ensure_frame(frame)
    counts, f = frame.counts, frame.degree
    if f == 0:
        return True
    if not counts[f - 1] > counts[f]:
        return False
    if (counts[0] == counts[1] + 1) != (f == 1):
        return False
    for j in range(1, f - 1):
        if not 2 <= counts[j] <= counts[j - 1] + counts[j + 1] - 2:
            return False
    return True


def left_progenitor(seq: Sequence[int] | "Frame") -> RawSequence:
    """Strip the maximal run of leading 2s (repeated unlift)."""
    counts = trim(seq)
    k = 0
    while k < len(counts) and counts[k] == 2:
        k += 1
    return counts[k:]


def right_progenitor(seq: Sequence[int] | "Frame") -> RawSequence:
    """Normalize the leading entry to 2 by repeated unextend."""
    counts = trim(seq)
    if not counts or counts[0] < 2:
        raise ValueError(f"no right progenitor for {counts!r}")
    shift = counts[0] - 2
    second = counts[1] if len(counts) > 1 else 0
    if second < shift:
        raise Underflow(f"second entry of {counts!r} cannot absorb {shift}")
    return trim((2, second - shift) + counts[2:])
