"""Exact counting: foot tables, frame cardinalities, and path counts.

Everything returns plain Python integers, so results stay exact at any
magnitude.  Path counts are served by a transfer DP over levels.  The
paper's sums over frames and over foot tables, the second route, live
in the verify module, and the enumerators in the paths module are the
brute-force route; the tests and verify compare the DP against both.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice, zip_longest
from operator import mul
from typing import Iterator, Sequence

from . import frames  # lazy (see __init__), read at call time: count never runs it
from .errors import Frozen, require_size

# Size caps the command line applies before a count starts.  The transfer
# DP cap is in level-by-step cells, each charged the 64-bit words of the
# widest weight (transfer_charge); it admits up to count_motzkin(1999) or
# count_colored_dyck(999), each well under a second.  The Catalan cap is
# a half-length whose number prints in about a tenth of a second.
TRANSFER_CELL_CAP = 2_000_000
CATALAN_CAP = 30_000
# The foot-table cap is in foot_table_terms, the packed DP entries of the
# one level built: it admits feet-table --max up to 214 at any --level
# (--max 214 --level 4 as a subprocess: median of 21 runs 0.20 s, VmHWM
# 35.4 MiB, CPython 3.11.7 on a 2-vCPU Intel Xeon VM).
FOOT_TABLE_TERM_CAP = 20_000_000


def binomial(top: int, bottom: int) -> int:
    """Binomial coefficient with the conventions the counting sums need.

    binomial(a, 0) is 1 for every integer a, including a = -1, which is
    how choosing nothing from an empty supply contributes a factor 1.
    binomial(a, b) is 0 whenever b is negative or exceeds a.
    """
    if bottom == 0:
        return 1
    if bottom < 0 or top < bottom:
        return 0
    return math.comb(top, bottom)


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1)."""
    require_size("n", n)
    return math.comb(2 * n, n) // (n + 1)


class FootTable:
    """Counts of Dyck paths by half-length, level, and number of feet.

    count(n, s, j) is the number of Dyck paths of length 2n with exactly
    j lattice nodes at level s.  Every node but the start is entered by
    one step, so the feet at level s number v(s-1) + v(s), v(k) the up
    steps across gap k, plus the start node at s = 0.  The transfer DP
    with weight x on those gaps gives the foot polynomial at x for every
    half-length in one pass; with x = 2**b > C_max, a row is its base-x
    digits.  The one bound is the half-length: any level is built on
    first use and cached, and a query past the bound is answered by a
    table built for it, so the bound never changes.
    """

    def __init__(self, max_half_length: int) -> None:
        require_size("max_half_length", max_half_length)
        self._max_half_length = max_half_length
        self._levels: dict[int, list[tuple[int, ...]]] = {}

    @property
    def max_half_length(self) -> int:
        return self._max_half_length

    def _build(self, level: int) -> list[tuple[int, ...]]:
        # Level-0 rows are one entry longer, n + 2 against n + 1: the
        # start node is a foot there, and a factor x counts it.  The
        # digits are read off the binary text, lowest first.
        m = self._max_half_length
        bits = catalan(m).bit_length()
        x = 1 << bits
        w = [x if gap in (level - 1, level) else 1 for gap in range(m)]
        start, width = (x, 2) if level == 0 else (1, 1)
        totals = islice(_transfer_walk(2 * m, (0,) * (m + 1), w), 0, None, 2)
        rows = []
        for n, total in enumerate(totals):
            digits = format(total * start, f"0{bits * (n + width)}b")
            ends = range(len(digits), 0, -bits)
            rows.append(tuple(int(digits[end - bits : end], 2) for end in ends))
        return rows

    def row(self, half_length: int, level: int) -> tuple[int, ...]:
        """All counts for one length and level, from 0 feet upward."""
        require_size("half_length", half_length)
        require_size("level", level)
        if half_length > self._max_half_length:
            return FootTable(half_length).row(half_length, level)
        if level not in self._levels:
            self._levels[level] = self._build(level)
        return self._levels[level][half_length]

    def count(self, half_length: int, level: int, feet: int) -> int:
        """Number of Dyck paths of length 2 * half_length with feet nodes at level."""
        require_size("feet", feet)
        row = self.row(half_length, level)
        return row[feet] if feet < len(row) else 0


def feet_table(max_half_length: int) -> FootTable:
    """Foot counts at every level for lengths up to 2 * max_half_length.
    feet_level0 is this same function, for the table read at level 0."""
    return FootTable(max_half_length)


feet_level0 = feet_table


def frame_cardinality(frame: frames.Frame | Sequence[int]) -> int:
    """Exact number of Dyck paths whose frame is the given one.

    With v = up_steps_per_level(frame), each of the v(k-1) rises into
    level k opens a stay at or above level k, and the vk rises from
    level k fall into those stays in order: a weak composition of vk
    into v(k-1) parts, binomial(ck - 1, vk) ways since ck = v(k-1) + vk.
    The product over the levels 0 < k < f is the class size; the tests
    check it against the census of enumerated paths.
    """
    frame = frames.ensure_frame(frame)
    ups = frames.up_steps_per_level(frame)
    pairs = zip(frame.counts[1:], ups[1:])
    return math.prod(math.comb(count - 1, up) for count, up in pairs)


class ColorSpec(Frozen):
    """Available colors per level (h) and per gap between levels (u, d).

    h[k] colors horizontal steps resting at level k, with 0 meaning no
    horizontal step may sit there; u[k] and d[k] color the up and down
    steps joining levels k and k + 1.  Entries must be nonnegative ints,
    so every count stays exact.
    """

    __slots__ = ("h", "u", "d")
    h: tuple[int, ...]
    u: tuple[int, ...]
    d: tuple[int, ...]

    def __init__(
        self, h: Sequence[int] = (), u: Sequence[int] = (), d: Sequence[int] = ()
    ) -> None:
        vecs = []
        for name, vec in zip(self.__slots__, (h, u, d)):
            vec = tuple(vec)
            if any(type(v) is not int or v < 0 for v in vec):
                raise ValueError(f"color counts in {name} must be nonnegative ints")
            vecs.append(vec)
        self._freeze(*vecs)


def transfer_cells(steps: int) -> int:
    """Cells the transfer DP visits for paths of the given length, at most."""
    return steps * (steps // 2 + 1)


def transfer_charge(steps: int, colors: ColorSpec) -> int:
    """transfer_cells(steps) times the 64-bit words of the largest weight.

    Every cell multiplies row entries by the Jacobi weights of colors,
    so wide weights make each cell dearer.  The factor is at least 1, so
    weights below 2**64 are charged just the cells.  A color vector too
    short for the length raises ValueError, as the count would.
    """
    h, w = _jacobi_weights(steps, colors)
    widest = max((*h, *w)).bit_length()
    return transfer_cells(steps) * max(1, -(-widest // 64))


def foot_table_terms(max_half_length: int) -> int:
    """Work of one FootTable level up to max_half_length: one transfer DP
    over 2 * max_half_length steps, whose cells each hold
    max_half_length + 2 packed entries."""
    return transfer_cells(2 * max_half_length) * (max_half_length + 2)


def _transfer_walk(steps: int, h: Sequence[int], w: Sequence[int]) -> Iterator[int]:
    """Weighted paths from level 0 back to level 0 of each length up to steps.

    A flat step at level k weighs h[k], and a rise from level k together
    with the fall that closes it weighs w[k]; these are the Jacobi
    continued-fraction weights of the path generating function (Flajolet
    1980), with w[k] = u[k] * d[k] for colored steps.  row[k] holds the
    weight of the prefixes that end at level k, kept only for levels from
    which level 0 is still reachable; a prefix back at level 0 is never
    dropped, so row[0] after each step is the total for that length.
    h needs steps // 2 + 1 entries and w needs steps // 2.
    """
    row = [1]
    yield 1
    for step in range(1, steps + 1):
        top = min(step, steps - step)
        rise = [0, *map(mul, row, w)]
        flat = map(mul, row, h)
        fall = islice(row, 1, None)
        arrivals = zip_longest(rise, flat, fall, fillvalue=0)
        row = [a + b + c for a, b, c in islice(arrivals, top + 1)]
        yield row[0]


def _jacobi_weights(n: int, colors: ColorSpec) -> tuple[tuple[int, ...], list[int]]:
    """The weights the transfer DP reads for paths of length n: h[k] for
    the levels up to n // 2 and u[k] * d[k] for the gaps below it."""
    levels = n // 2
    for name, vec, size in (
        ("h", colors.h, levels + 1),
        ("u", colors.u, levels),
        ("d", colors.d, levels),
    ):
        if len(vec) < size:
            raise ValueError(f"colors.{name} needs at least {size} entries, got {len(vec)}")
    return colors.h[: levels + 1], list(map(mul, colors.u[:levels], colors.d[:levels]))


def count_colored_dyck(n: int, colors: ColorSpec) -> int:
    """Dyck paths of length 2n with colored up and down steps.

    A rise across gap k and the fall that closes it contribute
    u[k] * d[k] choices.  Horizontal colors are ignored.  All-ones colors
    reduce this to the Catalan number; verify.count_by_frames is the
    second route.
    """
    require_size("n", n)
    return count_colored_motzkin(2 * n, ColorSpec((0,) * (n + 1), colors.u, colors.d))


def k_motzkin_colors(n: int, k: int, r: int = 1) -> ColorSpec:
    """Colors of the level-k Motzkin paths of length n: h is r at level
    k, if k <= n // 2, and 0 elsewhere, and every gap weighs 1.  The
    vectors are repeated tuples, so a length too large to hold raises
    OverflowError or MemoryError at once."""
    require_size("n", n)
    require_size("k", k)
    require_size("r", r)
    levels = n // 2
    h = (0,) * (levels + 1) if k > levels else (0,) * k + (r,) + (0,) * (levels - k)
    return ColorSpec(h, (1,) * levels, (1,) * levels)


def _require_r(r: int) -> None:
    """The k-Motzkin pair's rule for r: a size, and at least 1."""
    require_size("r", r)
    if r < 1:
        raise ValueError("r must be at least 1")


def count_k_motzkin(n: int, k: int, r: int = 1) -> int:
    """Motzkin paths of length n with horizontal steps only at level k.

    Each horizontal step has r colors.  A level k above n // 2 admits no
    horizontal step, which leaves the Dyck paths of length n.
    verify.count_k_motzkin_by_feet is the second route.
    """
    _require_r(r)
    return count_colored_motzkin(n, k_motzkin_colors(n, k, r))


def count_motzkin(n: int) -> int:
    """The n-th Motzkin number: paths weighted 1 on every step."""
    require_size("n", n)
    levels = n // 2
    return count_colored_motzkin(n, ColorSpec((1,) * (levels + 1), (1,) * levels, (1,) * levels))


def count_colored_motzkin(n: int, colors: ColorSpec) -> int:
    """Motzkin paths of length n colored per ColorSpec, exactly.

    A horizontal step at level k has h[k] colors, and a rise across gap
    k with the fall that closes it has u[k] * d[k]; zero colors forbid
    the step.  Every path count here is this one on its own ColorSpec;
    verify.count_by_frames is the second route.
    """
    require_size("n", n)
    return deque(_transfer_walk(n, *_jacobi_weights(n, colors)), maxlen=1)[0]


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of parts nonnegative integers summing to total.

    The tuples come in descending lexicographic order, so the first
    entry descends from total to 0.  There are
    binomial(total + parts - 1, total) of them.  Zero parts are allowed
    only for a zero total, which yields the empty composition.
    """
    require_size("total", total)
    require_size("parts", parts)
    if parts == 0 and total > 0:
        raise ValueError("cannot compose a positive total into zero parts")
    return _compositions(total, parts)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """An odometer: move one unit from the rightmost nonzero entry before
    the last one step right, and carry the last entry along with it."""
    if parts == 0:
        yield ()
        return
    vec = [total] + [0] * (parts - 1)
    while True:
        yield tuple(vec)
        last, vec[-1] = vec[-1], 0
        i = parts - 2
        while i >= 0 and not vec[i]:
            i -= 1
        if i < 0:
            return
        vec[i] -= 1
        vec[i + 1] = last + 1


# Most (product, items left) nodes _spread grows in one step.
_SPREAD_BATCH = 64


def _spread(m: int, columns: list[list[int]]) -> int:
    """Sum over the weak compositions a of m into len(columns) parts of
    the product of columns[i][a[i]].

    The products are built as a tree: one bin at a time, each node
    carries (product so far, items left), and a node at the second-to-
    last bin takes its last two bins in one step, summing each split of
    what is left between them.  Nodes with equal items left are never
    merged, so every composition is one product in the sum.  The tree is
    walked depth first in batches of at most _SPREAD_BATCH nodes, so
    memory grows with the bins and m, not with the number of
    compositions.
    """
    if not columns:
        return int(m == 0)
    if len(columns) == 1:
        return columns[0][m]
    *inner, before, last = columns
    total = 0
    stack = [(0, [(1, m)])]
    while stack:
        depth, nodes = stack.pop()
        if depth == len(inner):
            total += sum(
                product * before[a] * last[left - a]
                for product, left in nodes
                for a in range(left + 1)
            )
            continue
        column = inner[depth]
        grown = [(product * column[a], left - a) for product, left in nodes for a in range(left + 1)]
        for start in range(0, len(grown), _SPREAD_BATCH):
            stack.append((depth + 1, grown[start : start + _SPREAD_BATCH]))
    return total


def binomial_identity_check(m: int, parts: Sequence[int]) -> bool:
    """Check one instance of the composition identity for binomials.

    Distributing m items over bins of capacities given by parts, counted
    all at once, must agree with the sum over weak compositions of the
    per-bin binomial products; with no bins and m >= 1 both sides are 0.
    Each bin's column of binomial(a + size - 1, a) for a = 0..m is built
    once per call, and _spread still sums one product per weak
    composition, one column entry per bin.
    """
    require_size("m", m)
    sizes = tuple(parts)
    if any(type(v) is not int or v < 0 for v in sizes):
        raise ValueError("part sizes must be nonnegative ints")
    direct = binomial(m + sum(sizes) - 1, m)
    columns = [[binomial(amount + size - 1, amount) for amount in range(m + 1)] for size in sizes]
    return direct == _spread(m, columns)
