"""Self-verification: every closed formula against brute-force enumeration
or the paper's second route.  The other modules are reached through their
module objects, so a fault planted in one of them shows up in the checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from . import counting, frames, paths
from .errors import refuse_over, require_size


class VerifyCheck(paths.Frozen):
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


class VerifyReport(paths.Frozen):
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


def _sequences_up_to(max_len: int, max_sum: int):
    """Every tuple of nonnegative ints with bounded length and entry sum."""
    return chain.from_iterable(
        counting.weak_compositions(total, length)
        for length in range(max_len + 1)
        for total in range(max_sum + 1 if length else 1)
    )


def _positive_vectors(max_sum: int):
    """Every nonempty tuple of positive ints with bounded sum."""
    for total in range(1, max_sum + 1):
        for parts in range(1, total + 1):
            for spare in counting.weak_compositions(total - parts, parts):
                yield tuple(value + 1 for value in spare)


def run_verification(max_n: int, cap: int | None = paths.DYCK_ENUMERATION_CAP) -> VerifyReport:
    """Cross-check the closed formulas against brute-force enumeration.

    Each n <= max_n walks all Dyck paths of half-length n, so a max_n over
    cap raises ResourceLimit before any work; cap=None lifts the guard.
    The Motzkin and frame walks stay under their own caps.
    """
    require_size("max_n", max_n)
    refuse_over("verification", max_n, cap, "max_n")
    checks: list[VerifyCheck] = []

    def add(name: str, params: str, expected: int, actual: int) -> None:
        checks.append(VerifyCheck(name, params, expected, actual))

    table = counting.feet_table(max_n, max_n)
    for n in range(max_n + 1):
        walked = paths.enumerate_dyck(n, cap=None)
        census = Counter(frames.frame_of(path) for path in walked)
        formula = list(frames.enumerate_frames(n, cap=None))

        if n > 0:
            add("frame_count_power", f"n={n}", 2 ** (n - 1), len(formula))
        add(
            "frame_set_oracle",
            f"n={n}",
            0,
            len(set(census) ^ set(formula)),
        )
        add(
            "cardinality_oracle",
            f"n={n}",
            0,
            sum(
                1
                for fr in formula
                if counting.frame_cardinality(fr) != census.get(fr, 0)
            ),
        )
        add(
            "cardinality_sum_catalan",
            f"n={n}",
            counting.catalan(n),
            sum(counting.frame_cardinality(fr) for fr in formula),
        )
        # A path's feet at a level are its frame's entry there.
        mismatched_cells = 0
        for level in range(max_n + 1):
            tally: Counter[int] = Counter()
            for frame, many in census.items():
                tally[frame.foot_count(level)] += many
            for feet in range(n + 2):
                if table.count(n, level, feet) != tally.get(feet, 0):
                    mismatched_cells += 1
        add("foot_table_oracle", f"n={n} level<={max_n}", 0, mismatched_cells)
        add("feet_sum_catalan", f"n={n}", counting.catalan(n), sum(table.row(n, 0)))
        add(
            "canonical_roundtrip",
            f"n={n}",
            0,
            sum(
                1
                for fr in formula
                if frames.frame_of(frames.canonical_representative(fr)) != fr
            ),
        )
        add(
            "consequences_hold",
            f"n={n}",
            0,
            sum(1 for fr in formula if not frames.consequences_hold(fr)),
        )

    for n in range(min(max_n, 12) + 1):
        oracle = sum(1 for _ in paths.enumerate_motzkin(n, cap=None))
        add("motzkin_oracle", f"n={n}", oracle, counting.count_motzkin(n))
    top_k = min(5, max_n)
    for n in range(min(max_n, 10) + 1):
        bad = 0
        for k in range(top_k + 1):
            oracle = sum(1 for _ in paths.enumerate_motzkin(n, {k}, cap=None))
            if counting.count_k_motzkin(n, k) != oracle:
                bad += 1
        add("k_motzkin_oracle", f"n={n} k<={top_k}", 0, bad)

    ones = (1,) * (max_n + 1)
    bad_dyck = sum(
        1
        for n in range(max_n + 1)
        if counting.count_colored_dyck(n, counting.ColorSpec(u=ones, d=ones))
        != counting.catalan(n)
    )
    add("colored_dyck_reduction", f"n<={max_n}", 0, bad_dyck)
    # A Motzkin path is a Dyck path of length 2k with n - 2k flats among its steps.
    bad_motzkin = sum(
        1
        for n in range(max_n + 1)
        if counting.count_colored_motzkin(n, counting.ColorSpec(h=ones, u=ones, d=ones))
        != sum(counting.binomial(n, 2 * k) * counting.catalan(k) for k in range(n // 2 + 1))
    )
    add("colored_motzkin_reduction", f"n<={max_n}", 0, bad_motzkin)

    # The transfer DP serves the counts; the frame sum and the foot table
    # are the paper's routes to the same numbers.  Colors include zeros.
    size = max_n + 1
    spec = counting.ColorSpec(
        h=tuple((k + 2) % 4 for k in range(size)),
        u=tuple(k % 3 + 1 for k in range(size)),
        d=tuple((k + 1) % 2 + 1 for k in range(size)),
    )
    no_flats = counting.ColorSpec(h=(0,) * size, u=spec.u, d=spec.d)
    bad_dyck = sum(
        1
        for n in range(max_n + 1)
        if counting.count_colored_dyck(n, spec)
        != counting.count_by_frames(2 * n, no_flats, cap=None)
    )
    add("colored_dyck_frame_sum", f"n<={max_n}", 0, bad_dyck)
    bad_motzkin = sum(
        1
        for n in range(max_n + 1)
        if counting.count_colored_motzkin(n, spec)
        != counting.count_by_frames(n, spec, cap=None)
    )
    add("colored_motzkin_frame_sum", f"n<={max_n}", 0, bad_motzkin)
    bad_k = sum(
        1
        for n in range(max_n + 1)
        for k in range(top_k + 1)
        if counting.count_k_motzkin(n, k, 2) != counting.count_k_motzkin_by_feet(n, k, 2)
    )
    add("k_motzkin_foot_table", f"n<={max_n} k<={top_k}", 0, bad_k)

    entries = min(max_n, 6)
    entry_sum = min(2 * max_n + 1, 17)
    # Bound per call, not at import, so a decider planted in frames shows.
    trace, closed = frames.is_admissible_trace, frames.is_admissible_closed
    disagreements = sum(
        1 for seq in _sequences_up_to(entries, entry_sum) if trace(seq) != closed(seq)
    )
    add("decider_agreement", f"len<={entries} sum<={entry_sum}", 0, disagreements)

    m_top = min(max_n, 6)
    part_sum = min(max_n, 8)
    failures = sum(
        1
        for m in range(m_top + 1)
        for parts in _positive_vectors(part_sum)
        if not counting.binomial_identity_check(m, parts)
    )
    add("binomial_identity", f"m<={m_top} parts_sum<={part_sum}", 0, failures)

    return VerifyReport(max_n, tuple(checks))
