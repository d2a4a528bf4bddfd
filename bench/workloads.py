"""Seeded op lists for the workloads, each op with its own checker.

The seed picks input values (frames, colors, formats) and never input
sizes, so every seed asks the program for the same amount of work.
Every checker compares the program's exit code and stdout with an
answer from `reference`, which does not import dyckframes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

FORMATS = ("table", "csv", "json")

# BENCHMARK.json and README.md say why each workload exists and which layer it loads.
WORKLOADS = ("oracle", "count")

# Names of the checks `verify` must keep reporting; later versions may add more.
VERIFY_CHECKS = {
    "frame_count_power", "frame_set_oracle", "cardinality_oracle",
    "cardinality_sum_catalan", "foot_table_oracle", "feet_sum_catalan",
    "canonical_roundtrip", "consequences_hold", "motzkin_oracle",
    "k_motzkin_oracle", "colored_dyck_reduction", "colored_motzkin_reduction",
    "decider_agreement", "binomial_identity",
}

# Checks whose expected value at size n the references know independently.
VERIFY_TRUTH = {
    "cardinality_sum_catalan": ref.catalan,
    "feet_sum_catalan": ref.catalan,
    "motzkin_oracle": ref.count_motzkin,
    "frame_count_power": lambda n: 2 ** (n - 1),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv after `python -m dyckframes`, and its checker.

    `check(stdout)` returns None when the output is right, else a reason.
    `size` is the op's size parameter, recorded with per-layer timings.
    """

    argv: tuple[str, ...]
    size: int
    check: Callable[[str], str | None]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return {"oracle": _oracle, "count": _count}[workload](rng)


# ------------------------------------------------------------------ oracle


def _oracle(rng: random.Random) -> list[Op]:
    wanted = ref.frame_of(random_dyck(rng, 10))
    return [
        Op(("enumerate", "dyck", "--n", "10", "--with-frame", "--format", "csv"), 10,
           _expect_text(_with_frame_csv(ref.words(20)), frame_lines=True)),
        Op(("enumerate", "dyck", "--n", "10", "--frame", _csv(wanted), "--format", "json"), 10,
           _expect_enumeration("dyck", 10, ref.frame_class(wanted), wanted)),
        Op(("enumerate", "motzkin", "--n", "13", "--format", "json"), 13,
           _expect_enumeration("motzkin", 13, ref.words(13, flats=True))),
        Op(("verify", "--max-n", "8", "--format", "json"), 8, _check_verify),
        # Frame reports, checked by walking the whole class of the frame.
        _frame_op(rng, ref.frame_of(random_dyck(rng, 12))),
        _frame_op(rng, _non_admissible(rng)),
    ]


def _with_frame_csv(words: list[str]) -> str:
    return "".join(w + "," + _csv(ref.frame_of(w)) + "\n" for w in words)


def _check_verify(stdout: str) -> str | None:
    doc = json.loads(stdout)
    checks = doc["checks"]
    summary = doc["summary"]
    if doc["command"] != "verify" or doc["max_n"] != 8:
        return "verify: wrong header"
    if summary["failed"] != 0 or not summary["passed"] == summary["total"] == len(checks):
        return f"verify: summary {summary}"
    missing = VERIFY_CHECKS - {c["name"] for c in checks}
    if missing:
        return f"verify: checks missing {sorted(missing)}"
    for c in checks:
        if not c["pass"] or c["expected"] != c["actual"]:
            return f"verify: {c['name']} {c['params']} failed"
        truth = VERIFY_TRUTH.get(c["name"])
        n = int(c["params"].split()[0][2:]) if c["params"].startswith("n=") else None
        if truth and n is not None and c["expected"] != truth(n):
            return f"verify: {c['name']} {c['params']} expected {c['expected']}, reference {truth(n)}"
    return None


# ------------------------------------------------------------------- count


def _count(rng: random.Random) -> list[Op]:
    u16, d16 = _colors(rng, 16), _colors(rng, 16)
    h14, u14, d14 = _colors(rng, 8), _colors(rng, 7), _colors(rng, 7)
    r = rng.randint(1, 4)
    # --k is the level of the foot table and so a size; it stays fixed.
    return [
        _count_op(rng, "motzkin", 32, ref.count_motzkin(32)),
        _count_op(rng, "dyck", 1200, ref.catalan(1200)),
        _count_op(rng, "dyck", 16, ref.count_dyck(16, u16, d16),
                  "--colors-u", _csv(u16), "--colors-d", _csv(d16)),
        _count_op(rng, "motzkin", 14, ref.count_motzkin(14, h14, u14, d14),
                  "--colors-h", _csv(h14), "--colors-u", _csv(u14), "--colors-d", _csv(d14)),
        _count_op(rng, "k-motzkin", 80, ref.count_k_motzkin(80, 2, r),
                  "--k", "2", "--colors-h", str(r)),
        Op(("feet-table", "--max", "40", "--level", "4", "--format", "csv"), 40,
           _expect_text(ref.feet_table_csv(40, 4))),
    ]


def _colors(rng: random.Random, size: int) -> list[int]:
    return [rng.randint(1, 3) for _ in range(size)]


def _count_op(rng: random.Random, kind: str, n: int, value: int, *extra: str) -> Op:
    fmt = rng.choice(FORMATS)
    argv = ("count", kind, "--n", str(n), *extra, "--format", fmt)
    if fmt != "json":
        return Op(argv, n, _expect_text(f"{value}\n"))

    def check(stdout: str) -> str | None:
        doc = json.loads(stdout)
        got = (doc["command"], doc["kind"], doc["n"], doc["count"])
        return None if got == ("count", kind, n, value) else f"count json {got[:3]} wrong"

    return Op(argv, n, check)


# ------------------------------------------------------------------ frames


def _non_admissible(rng: random.Random) -> tuple[int, ...]:
    """Move one node between levels of a real frame until no path fits it."""
    while True:
        counts = list(ref.frame_of(random_dyck(rng, 6)))
        src, dst = rng.sample(range(len(counts)), 2)
        counts[src] -= 1
        counts[dst] += 1
        counts = ref.trim(counts)
        if min(counts) >= 0 and counts[0] > 0 and not ref.frame_class(counts):
            return counts


def _frame_op(rng: random.Random, counts: tuple[int, ...]) -> Op:
    fmt = rng.choice(FORMATS)
    text = _csv(counts)
    argv = ("frame", text, "--format", fmt)
    members = ref.frame_class(counts)
    length, degree = sum(counts) - 1, len(counts) - 1
    size = length // 2
    if not members:
        if fmt == "json":
            return Op(argv, size, _expect_json(
                {"command": "frame", "input": text, "admissible": False}))
        return Op(argv, size, _expect_text("0\n" if fmt == "csv" else "admissible  false\n"))
    canonical = ref.canonical(members)
    ups = ref.up_steps(canonical)
    if fmt == "json":
        return Op(argv, size, _expect_json({
            "command": "frame", "input": text, "admissible": True,
            "frame": list(counts), "length": length, "degree": degree,
            "cardinality": len(members), "canonical": canonical, "up_steps": ups,
        }))
    if fmt == "csv":
        cells = ["1", str(length), str(degree), str(len(members)), canonical, *map(str, ups)]
        return Op(argv, size, _expect_text(",".join(cells) + "\n"))
    rows = [("admissible", "true"), ("frame", text), ("length", str(length)),
            ("degree", str(degree)), ("cardinality", str(len(members))),
            ("canonical", canonical), ("up_steps", " ".join(map(str, ups)))]
    return Op(argv, size, _expect_text("".join(f"{a}  {b}\n" for a, b in rows)))


# ---------------------------------------------------------------- checkers


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def random_dyck(rng: random.Random, n: int) -> str:
    """A uniform random Dyck word of half-length n, by the cycle lemma.

    Shuffle n U and n + 1 D steps; the rotation that starts just after
    the first lowest point is a Dyck word followed by one extra D.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    level = low = cut = 0
    for i, ch in enumerate(steps):
        level += 1 if ch == "U" else -1
        if level < low:
            low, cut = level, i + 1
    return "".join(steps[cut:] + steps[:cut])[:-1]


def _expect_text(expected: str, frame_lines: bool = False) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        if stdout == expected:
            return None
        if frame_lines:
            return _diagnose(
                [line.split(",")[0] for line in stdout.splitlines()],
                [line.split(",")[0] for line in expected.splitlines()],
            ) or "frame columns differ"
        return f"stdout differs from reference ({len(stdout)} vs {len(expected)} chars)"

    return check


def _expect_json(expected: dict) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        doc = json.loads(stdout)
        wrong = [k for k, v in expected.items() if doc.get(k) != v]
        return f"json fields differ: {wrong}" if wrong else None

    return check


def _expect_enumeration(kind: str, n: int, words: list[str],
                        frame: tuple[int, ...] | None = None) -> Callable[[str], str | None]:
    expected = {"command": "enumerate", "kind": kind, "n": n, "count": len(words)}
    if frame is not None:
        expected["frame"] = list(frame)

    def check(stdout: str) -> str | None:
        doc = json.loads(stdout)
        wrong = [k for k, v in expected.items() if doc.get(k) != v]
        if wrong:
            return f"enumerate json fields differ: {wrong}"
        if doc["paths"] != words:
            return _diagnose(doc["paths"], words, frame) or "paths differ"
        return None

    return check


def _diagnose(got: list[str], expected: list[str],
              frame: tuple[int, ...] | None = None) -> str | None:
    """Name the first property of a path listing that fails."""
    if len(got) != len(expected):
        return f"{len(got)} paths listed, reference has {len(expected)}"
    if len(set(got)) != len(got):
        return "paths repeat"
    if set(got) != set(expected):
        return "paths outside the reference set"
    if frame is not None and any(ref.frame_of(w) != frame for w in got):
        return "a path has another frame"
    if not ref.is_sorted_words(got):
        return "paths out of U<D<H order"
    return None
