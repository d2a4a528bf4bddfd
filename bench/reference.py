"""Independent answers for every benchmark op, without importing dyckframes.

The program counts by summing over frames; the references here count by
a transfer DP over levels and by walking paths directly, so a bug in one
route cannot hide behind the same bug in the other.  `self_check` pins
the references themselves to published OEIS prefixes before any op runs.
"""

from __future__ import annotations

import math
from collections import defaultdict

# OEIS A000108 (Catalan), A001006 (Motzkin), A001405 (central binomial:
# Motzkin paths whose flat steps all lie on level 0).
A000108 = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
           742900, 2674440, 9694845, 35357670, 129644790, 477638700)
A001006 = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835,
           113634, 310572, 853467, 2356779, 6536382, 18199284)
A001405 = (1, 1, 2, 3, 6, 10, 20, 35, 70, 126, 252, 462, 924, 1716, 3432)

ORDER = {"U": 0, "D": 1, "H": 2}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def weighted_paths(length: int, up=(), down=(), flat=()) -> int:
    """Weighted count of paths of `length` steps from level 0 back to 0.

    A step up from level k weighs up[k], a step down to level k weighs
    down[k], a flat step at level k weighs flat[k]; missing entries weigh
    0.  This is the level-indexed transfer DP, one row per step.
    """
    top = length // 2
    up = _pad(up, top)
    down = _pad(down, top)
    flat = _pad(flat, top + 1)
    row = [1] + [0] * top
    for step in range(length):
        room = min(top, length - step - 1)  # levels from which 0 is still reachable
        new = [0] * (top + 1)
        for level, ways in enumerate(row):
            if not ways:
                continue
            if level < room:
                new[level + 1] += ways * up[level]
            if level:
                new[level - 1] += ways * down[level - 1]
            if level <= room:
                new[level] += ways * flat[level]
        row = new
    return row[0]


def _pad(vec, size: int) -> list[int]:
    vec = list(vec)
    return vec[:size] + [0] * (size - len(vec))


def count_dyck(n: int, u, d) -> int:
    return weighted_paths(2 * n, u, d)


def count_motzkin(n: int, h=None, u=None, d=None) -> int:
    levels = n // 2
    return weighted_paths(n, u or [1] * levels, d or [1] * levels, h or [1] * (levels + 1))


def count_k_motzkin(n: int, k: int, r: int = 1) -> int:
    levels = n // 2
    flat = [0] * (levels + 1)
    if k <= levels:
        flat[k] = r
    return weighted_paths(n, [1] * levels, [1] * levels, flat)


def foot_rows(max_half: int, level: int) -> list[dict[int, int]]:
    """rows[n][j]: Dyck paths of half-length n with j nodes at `level`.

    One forward DP over (height, feet so far) across 2 * max_half steps;
    the states back at height 0 after 2n steps are the complete paths of
    half-length n.
    """
    length = 2 * max_half
    state = {(0, 1 if level == 0 else 0): 1}
    rows = [dict((j, c) for (h, j), c in state.items())]
    for t in range(1, length + 1):
        new: dict[tuple[int, int], int] = defaultdict(int)
        for (h, j), c in state.items():
            for h2 in (h + 1, h - 1):
                if 0 <= h2 <= length - t:
                    new[(h2, j + (h2 == level))] += c
        state = new
        if t % 2 == 0:
            rows.append({j: c for (h, j), c in state.items() if h == 0})
    return rows


def feet_table_csv(max_half: int, level: int) -> str:
    """Expected stdout of `feet-table --max M --level s --format csv`."""
    rows = foot_rows(max_half, level)
    columns = range(1 if level == 0 else 0, max(max_half, 6) + 1)
    return "".join(",".join(str(row.get(j, 0)) for j in columns) + "\n" for row in rows)


def frame_of(word: str) -> tuple[int, ...]:
    """Nodes per level of a Dyck word, lowest level first."""
    counts = [1]
    level = 0
    for ch in word:
        level += 1 if ch == "U" else -1
        if level == len(counts):
            counts.append(0)
        counts[level] += 1
    return tuple(counts)


def words(length: int, flats: bool = False, target: tuple[int, ...] | None = None):
    """Every path word of `length` steps, in the order U < D < H.

    With `target`, only Dyck words whose frame is `target`; the walk
    prunes as soon as a level has more nodes than the target allows.
    """
    out: list[str] = []
    buf: list[str] = []
    feet = [0] * (length // 2 + 2)
    limit = None if target is None else list(target) + [0] * (len(feet) - len(target))

    def visit(level: int, remaining: int) -> None:
        feet[level] += 1
        if limit is None or feet[level] <= limit[level]:
            if remaining == 0:
                if level == 0 and (limit is None or feet == limit):
                    out.append("".join(buf))
            else:
                for ch, nxt in (("U", level + 1), ("D", level - 1), ("H", level)):
                    if ch == "H" and not flats:
                        continue
                    if 0 <= nxt <= remaining - 1:
                        buf.append(ch)
                        visit(nxt, remaining - 1)
                        buf.pop()
        feet[level] -= 1

    visit(0, length)
    return out


def frame_class(counts: tuple[int, ...]) -> list[str]:
    """All Dyck words with the given frame; empty if it is not admissible."""
    counts = trim(counts)
    total = sum(counts)
    if total % 2 == 0 or any(c < 0 for c in counts):
        return []
    return words(total - 1, target=counts)


def trim(counts) -> tuple[int, ...]:
    counts = list(counts)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def canonical(members: list[str]) -> str:
    """The class member in which no run of down steps is followed by UU."""
    found = [w for w in members if "DUU" not in w]
    if len(found) != 1:
        raise AssertionError(f"reference: {len(found)} canonical candidates")
    return found[0]


def up_steps(word: str) -> list[int]:
    """Up steps from level k to k + 1, for k below the top level."""
    ups: list[int] = []
    level = 0
    for ch in word:
        if ch == "U":
            if level == len(ups):
                ups.append(0)
            ups[level] += 1
            level += 1
        else:
            level -= 1
    return ups


def is_sorted_words(lines: list[str]) -> bool:
    keys = [[ORDER[c] for c in w] for w in lines]
    return all(a < b for a, b in zip(keys, keys[1:]))


def self_check() -> None:
    """Pin the references to OEIS before they judge the program."""
    checks = {
        "catalan vs A000108": [catalan(n) for n in range(len(A000108))] == list(A000108),
        "dyck DP vs A000108": [count_dyck(n, [1] * n, [1] * n)
                               for n in range(len(A000108))] == list(A000108),
        "motzkin DP vs A001006": [count_motzkin(n) for n in range(len(A001006))]
        == list(A001006),
        "level-0 motzkin DP vs A001405": [count_k_motzkin(n, 0) for n in range(len(A001405))]
        == list(A001405),
        "walker vs A000108": [len(words(2 * n)) for n in range(11)] == list(A000108[:11]),
        "motzkin walker vs A001006": [len(words(n, flats=True)) for n in range(13)]
        == list(A001006[:13]),
        "foot rows sum to A000108": all(
            sum(row.values()) == A000108[n]
            for level in range(4)
            for n, row in enumerate(foot_rows(12, level))
        ),
        "frame classes partition the walk": sum(
            len(frame_class(f)) for f in {frame_of(w) for w in words(16)}
        ) == A000108[8],
    }
    broken = [name for name, ok in checks.items() if not ok]
    if broken:
        raise AssertionError("reference self-check failed: " + ", ".join(broken))
