"""A fixed pure-Python task that gauges how fast the host runs right now.

The benchmark host is a few vCPUs of a shared machine, and its speed
drifts: the same pure-Python loop can take 0.06 s in one tenth of a
second and 0.11 s in the next, and the level moves over minutes too,
with no steal time showing.  Wall times of the program drift with it.

`run.py` runs this task right before every timed sample and multiplies
the sample by REFERENCE_S / (the task's time).  A sample so scaled reads
in seconds on a host that runs this task in REFERENCE_S, so it moves
with the program's own speed and much less with the host's.

The task does what the program does, on its own code: it walks Dyck
words, counts nodes per level, renders the words as JSON and runs a
big-integer transfer DP.  It must not change: REFERENCE_S belongs to it.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

HALF_LENGTH = 10  # 16796 Dyck words
DP_STEPS = 400
# Median seconds of `task()` on one vCPU of an Intel Xeon host (2 vCPUs,
# CPython 3.11.7) at a quiet time.
REFERENCE_S = 0.06


def task() -> float:
    """Run the task once; return its wall seconds."""
    t0 = perf_counter()
    words: list[str] = []
    _walk(HALF_LENGTH, 0, 0, [], words)
    frames: dict[tuple[int, ...], int] = {}
    for word in words:
        level, counts = 0, [1] + [0] * HALF_LENGTH
        for ch in word:
            level += 1 if ch == "U" else -1
            counts[level] += 1
        key = tuple(counts)
        frames[key] = frames.get(key, 0) + 1
    text = json.dumps({"paths": words, "frames": [list(k) for k in frames]})
    top = DP_STEPS // 2
    row = [1] + [0] * top
    for _ in range(DP_STEPS):
        new = [0] * (top + 1)
        for level, ways in enumerate(row):
            if ways:
                if level < top:
                    new[level + 1] += ways
                if level:
                    new[level - 1] += ways
        row = new
    elapsed = perf_counter() - t0
    if len(words) != 16796 or not text or row[0] != math.comb(2 * top, top) // (top + 1):
        raise AssertionError("gauge task went wrong")
    return elapsed


def _walk(n: int, up: int, down: int, word: list[str], out: list[str]) -> None:
    if up == down == n:
        out.append("".join(word))
        return
    if up < n:
        word.append("U")
        _walk(n, up + 1, down, word, out)
        word.pop()
    if down < up:
        word.append("D")
        _walk(n, up, down + 1, word, out)
        word.pop()
