"""Self-verification: every closed formula against brute-force enumeration
or the paper's second route.  The second routes live here: the weighted
sum over frames and the sum over the foot table, each an oracle for the
transfer DP that counting serves the counts with.  The other modules are
reached through their module objects, so a fault planted in one of them
shows up in the checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, starmap
from operator import ne
from typing import Iterator

from . import counting, frames, paths
from .errors import Frozen, refuse_over, require_size


class VerifyCheck(Frozen):
    __slots__ = ("name", "params", "expected", "actual")
    name: str
    params: str
    expected: int
    actual: int

    def __init__(self, name: str, params: str, expected: int, actual: int) -> None:
        self._freeze(name, params, expected, actual)

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class VerifyReport(Frozen):
    __slots__ = ("max_n", "checks")
    max_n: int
    checks: tuple[VerifyCheck, ...]

    def __init__(self, max_n: int, checks: tuple[VerifyCheck, ...]) -> None:
        self._freeze(max_n, checks)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for check in self.checks if check.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0


# Entries at the end of every sequence that _sequences_up_to serves from a table.
_TAIL_ENTRIES = 3


def _sequences_up_to(max_len: int, max_sum: int) -> Iterator[list[tuple[int, ...]]]:
    """Every tuple of nonnegative ints with bounded length and entry sum,
    as a stream of lists.

    tails[t][r], built once per call one entry at a time, lists every
    tuple of t entries summing to at most r: each first entry v followed
    by every tuple one entry shorter summing to at most r - v.  A tuple
    of a given length is a head of length - T entries from
    counting.weak_compositions, T = min(length, _TAIL_ENTRIES), joined
    to each tail of T entries that the head's sum leaves room for; each
    head yields one list, so the callers map over whole lists.  At
    (6, 17) the 134,596 tuples come in 1,333 lists of at most 1,140.
    """
    tails = [[[()]] * (max_sum + 1)]
    for _ in range(min(max_len, _TAIL_ENTRIES)):
        shorter = tails[-1]
        tails.append(
            [[(v,) + s for v in range(r + 1) for s in shorter[r - v]] for r in range(max_sum + 1)]
        )
    for length in range(max_len + 1):
        tail = min(length, _TAIL_ENTRIES)
        room = tails[tail]
        for total in range(max_sum + 1 if length > tail else 1):
            for head in counting.weak_compositions(total, length - tail):
                yield [head + s for s in room[max_sum - total]]


def _positive_vectors(max_sum: int):
    """Every nonempty tuple of positive ints with bounded sum."""
    for total in range(1, max_sum + 1):
        for parts in range(1, total + 1):
            for spare in counting.weak_compositions(total - parts, parts):
                yield tuple(value + 1 for value in spare)


def count_by_frames(n: int, colors: counting.ColorSpec) -> int:
    """Colored Motzkin paths of length n, summed over frames.

    The paper's route, kept as the oracle for the transfer DP.  Sums
    over the frame (c0, ..., cf) of the underlying Dyck path of length
    2j: the class size, the up/down color choices per gap, and the ways
    to place the n - 2j horizontal steps on its feet, h[t] colors each.
    Every path of a frame uses the same number v[k] of up steps per gap,
    so each contributes (u[k] * d[k]) ** v[k] color choices.  Spreading
    k steps over the ct feet at level t gives
    binomial(k + ct - 1, k) * h[t] ** k, so the placements are the
    coefficient of x ** (n - 2j) in the product over t of
    (1 - h[t] x) ** -ct; binomial_identity_check tests the composition
    identity behind this.  Each foot at a colored level multiplies the
    series by 1 / (1 - h[t] x), one prefix-sum pass.  With h all zero
    only the frames of length n contribute, so this also counts colored
    Dyck paths of length n.  Color vectors too short for n raise
    ValueError, as in the DP, before any frame is enumerated.
    """
    require_size("n", n)
    counting._jacobi_weights(n, colors)  # the DP's rule for the vector lengths
    levels = n // 2
    total = 0
    for j in range(levels + 1):
        flat = n - 2 * j
        if flat and not any(colors.h[: levels + 1]):
            continue
        for frame in frames.enumerate_frames(j, cap=None):
            series = [1] + [0] * flat
            for t, feet in enumerate(frame.counts):
                for _ in range(feet if colors.h[t] else 0):
                    for k in range(1, flat + 1):
                        series[k] += colors.h[t] * series[k - 1]
            weight = counting.frame_cardinality(frame)
            for k, ups in enumerate(frames.up_steps_per_level(frame)):
                weight *= (colors.u[k] * colors.d[k]) ** ups
            total += weight * series[flat]
    return total


def count_k_motzkin_by_feet(n: int, k: int, r: int = 1) -> int:
    """Level-k Motzkin paths of length n from the foot table.

    The oracle for count_k_motzkin.  Such a path is a Dyck path of
    length 2j plus n - 2j horizontal steps distributed over its feet at
    level k, giving a binomial factor per foot census entry; r colors
    per horizontal step contribute r ** (n - 2j).  The 0-footed census
    entry still counts the bare Dyck paths when n == 2j, via
    binomial(-1, 0) == 1.
    """
    require_size("n", n)
    require_size("k", k)
    counting._require_r(r)
    half = n // 2
    table = counting.feet_table(half)
    total = 0
    for j in range(half + 1):
        flat = n - 2 * j
        for i, paths_ji in enumerate(table.row(j, k)):
            if paths_ji:
                total += paths_ji * counting.binomial(flat + i - 1, flat) * r**flat
    return total


def run_verification(max_n: int, cap: int | None = paths.DYCK_ENUMERATION_CAP) -> VerifyReport:
    """Cross-check the closed formulas against brute-force enumeration.

    Each n <= max_n walks all Dyck paths of half-length n, so a max_n over
    cap raises ResourceLimit before any work; cap=None lifts the guard.
    The Motzkin and frame walks stay under their own caps.
    """
    require_size("max_n", max_n)
    refuse_over("verification", max_n, cap, "max_n")
    to_max = range(max_n + 1)
    len(to_max)  # OverflowError before any walk when max_n + 1 fits no index
    checks: list[VerifyCheck] = []

    def add(name: str, params: str, expected: int, actual: int) -> None:
        checks.append(VerifyCheck(name, params, expected, actual))

    def differ(name: str, params: str, pairs) -> None:
        """Two routes to the same values: count the (a, b) pairs that differ."""
        add(name, params, 0, sum(starmap(ne, pairs)))

    def motzkin_walk(n: int, flat_levels: set[int] | None = None) -> int:
        return sum(1 for _ in paths.enumerate_motzkin(n, flat_levels, cap=None))

    def foot_cells(n: int, census: Counter[frames.Frame], level: int):
        """The foot table at (n, level) against the census: a path's feet at
        a level are its frame's entry there.  Each level is tallied just
        before the table is read there, so a table too large to build fails
        before the tally walks every level."""
        tally: Counter[int] = Counter()
        for frame, many in census.items():
            tally[frame.foot_count(level)] += many
        return ((table.count(n, level, k), tally[k]) for k in range(n + 2))

    table = counting.feet_table(max_n)
    for n in to_max:
        census = Counter(map(frames.frame_of, paths.enumerate_dyck(n, cap=None)))
        formula = list(frames.enumerate_frames(n, cap=None))
        sizes = [counting.frame_cardinality(fr) for fr in formula]
        at_n = f"n={n}"
        if n > 0:
            add("frame_count_power", at_n, 2 ** (n - 1), len(formula))
        add("frame_set_oracle", at_n, 0, len(set(census) ^ set(formula)))
        differ("cardinality_oracle", at_n, ((size, census[fr]) for fr, size in zip(formula, sizes)))
        add("cardinality_sum_catalan", at_n, counting.catalan(n), sum(sizes))
        cells = (cell for level in to_max for cell in foot_cells(n, census, level))
        differ("foot_table_oracle", f"n={n} level<={max_n}", cells)
        add("feet_sum_catalan", at_n, counting.catalan(n), sum(table.row(n, 0)))
        roundtrips = (frames.frame_of(frames.canonical_representative(fr)) for fr in formula)
        differ("canonical_roundtrip", at_n, zip(roundtrips, formula))
        differ("consequences_hold", at_n, ((frames.consequences_hold(fr), True) for fr in formula))

    for n in range(min(max_n, 12) + 1):
        add("motzkin_oracle", f"n={n}", motzkin_walk(n), counting.count_motzkin(n))
    top_k = min(5, max_n)
    for n in range(min(max_n, 10) + 1):
        pairs = ((counting.count_k_motzkin(n, k), motzkin_walk(n, {k})) for k in range(top_k + 1))
        differ("k_motzkin_oracle", f"n={n} k<={top_k}", pairs)

    # One all-ones spec serves both reductions; the Dyck count ignores h.
    ones = (1,) * (max_n + 1)
    all_ones = counting.ColorSpec(h=ones, u=ones, d=ones)
    up_to = f"n<={max_n}"
    pairs = ((counting.count_colored_dyck(n, all_ones), counting.catalan(n)) for n in to_max)
    differ("colored_dyck_reduction", up_to, pairs)
    # A Motzkin path is a Dyck path of length 2k with n - 2k flats among its steps.
    pairs = (
        (
            counting.count_colored_motzkin(n, all_ones),
            sum(counting.binomial(n, 2 * k) * counting.catalan(k) for k in range(n // 2 + 1)),
        )
        for n in to_max
    )
    differ("colored_motzkin_reduction", up_to, pairs)

    # The transfer DP serves the counts; the frame sum and the foot table
    # are the paper's routes to the same numbers.  Colors include zeros.
    spec = counting.ColorSpec(
        h=tuple((k + 2) % 4 for k in to_max),
        u=tuple(k % 3 + 1 for k in to_max),
        d=tuple((k + 1) % 2 + 1 for k in to_max),
    )
    no_flats = counting.ColorSpec(h=(0,) * (max_n + 1), u=spec.u, d=spec.d)
    pairs = (
        (counting.count_colored_dyck(n, spec), count_by_frames(2 * n, no_flats)) for n in to_max
    )
    differ("colored_dyck_frame_sum", up_to, pairs)
    pairs = ((counting.count_colored_motzkin(n, spec), count_by_frames(n, spec)) for n in to_max)
    differ("colored_motzkin_frame_sum", up_to, pairs)
    pairs = (
        (counting.count_k_motzkin(n, k, 2), count_k_motzkin_by_feet(n, k, 2))
        for n in to_max
        for k in range(top_k + 1)
    )
    differ("k_motzkin_foot_table", f"{up_to} k<={top_k}", pairs)

    entries = min(max_n, 6)
    entry_sum = min(2 * max_n + 1, 17)
    # Bound per call, not at import, so a decider planted in frames shows.
    trace, closed = frames.is_admissible_trace, frames.is_admissible_closed
    batches = _sequences_up_to(entries, entry_sum)
    pairs = chain.from_iterable(zip(map(trace, batch), map(closed, batch)) for batch in batches)
    differ("decider_agreement", f"len<={entries} sum<={entry_sum}", pairs)

    m_top = min(max_n, 6)
    part_sum = min(max_n, 8)
    pairs = (
        (counting.binomial_identity_check(m, parts), True)
        for m in range(m_top + 1)
        for parts in _positive_vectors(part_sum)
    )
    differ("binomial_identity", f"m<={m_top} parts_sum<={part_sum}", pairs)

    return VerifyReport(max_n, tuple(checks))
