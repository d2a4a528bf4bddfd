"""Command-line front end: tables, frame reports, counts, enumeration,
and a self-verification harness.  Every command renders as aligned text,
csv, or a single json document, deterministically.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 work over a size cap, refused before it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from . import counting, frames, paths
from .errors import DyckFramesError, ResourceLimit

FORMATS = ("table", "csv", "json")
ALLOW_LARGE_ENV = "DYCKFRAMES_ALLOW_LARGE"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE_LIMIT = 3

# Keep at least this many foot columns so small tables match the shape
# of the checked-in level-0 golden file.
MIN_FEET_COLUMNS = 6


def _align(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


# ---------------------------------------------------------------- feet-table


def cmd_feet_table(args: argparse.Namespace, allow_large: bool) -> int:
    if args.max < 0 or args.level < 0:
        raise ValueError("--max and --level must be nonnegative")
    table = counting.feet_table(args.level, args.max)
    start = 1 if args.level == 0 else 0
    columns = list(range(start, max(args.max, MIN_FEET_COLUMNS) + 1))
    rows = [
        (2 * n, [table.count(n, args.level, j) for j in columns])
        for n in range(args.max + 1)
    ]
    if args.format == "csv":
        lines = [",".join(str(v) for v in values) for _, values in rows]
    elif args.format == "json":
        doc = {
            "command": "feet-table",
            "level": args.level,
            "max_half_length": args.max,
            "feet": columns,
            "rows": [{"steps": steps, "counts": values} for steps, values in rows],
        }
        lines = [json.dumps(doc)]
    else:
        grid = [["steps"] + [f"{j}-ped" for j in columns]]
        grid += [[str(steps)] + [str(v) for v in values] for steps, values in rows]
        lines = _align(grid)
    print("\n".join(lines))
    return EXIT_OK


# --------------------------------------------------------------------- frame


def cmd_frame(args: argparse.Namespace, allow_large: bool) -> int:
    counts = frames.parse_frame_text(args.frame_text)
    if not frames.is_admissible_closed(counts):
        doc: dict = {"command": "frame", "input": args.frame_text, "admissible": False}
        if args.format == "json":
            print(json.dumps(doc))
        elif args.format == "csv":
            print("0")
        else:
            print("admissible  false")
        return EXIT_OK
    # The class has at most C_n paths and the canonical path has 2n steps.
    half = frames.frame_length(counts) // 2
    _bound(f"frame {args.frame_text}", half, counting.CATALAN_CAP, "half-length", allow_large)
    fr = frames.Frame(counts)
    ups = list(counting.up_steps_per_level(fr))
    doc = {
        "command": "frame",
        "input": args.frame_text,
        "admissible": True,
        "frame": list(fr.counts),
        "length": fr.length,
        "degree": fr.degree,
        "cardinality": counting.frame_cardinality(fr),
        "canonical": frames.canonical_representative(fr).text,
        "up_steps": ups,
    }
    if args.format == "json":
        print(json.dumps(doc))
    elif args.format == "csv":
        cells = [
            "1",
            str(doc["length"]),
            str(doc["degree"]),
            str(doc["cardinality"]),
            doc["canonical"],
            *[str(v) for v in ups],
        ]
        print(",".join(cells))
    else:
        grid = [
            ["admissible", "true"],
            ["frame", str(fr)],
            ["length", str(doc["length"])],
            ["degree", str(doc["degree"])],
            ["cardinality", str(doc["cardinality"])],
            ["canonical", doc["canonical"] or "(null path)"],
            ["up_steps", " ".join(str(v) for v in ups) or "-"],
        ]
        print("\n".join("  ".join(row) for row in grid))
    return EXIT_OK


# --------------------------------------------------------------------- count


def _parse_color_vector(text: str, flag: str) -> tuple[int, ...]:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not frames.ASCII_DIGITS.fullmatch(piece):
            raise ValueError(f"bad color count {piece!r} in {flag}")
        values.append(int(piece))
    return tuple(values)


def _ones(size: int) -> tuple[int, ...]:
    return (1,) * size


def _bound(what: str, work: int, cap: int, unit: str, allow_large: bool) -> None:
    """Refuse a command's work over its cap before any of it starts."""
    if work > cap and not allow_large:
        raise ResourceLimit(f"{what}: {unit} {work} exceeds the cap of {cap}")


def _bound_transfer(what: str, steps: int, allow_large: bool) -> None:
    cells = counting.transfer_cells(steps)
    _bound(what, cells, counting.TRANSFER_CELL_CAP, "DP cells", allow_large)


def cmd_count(args: argparse.Namespace, allow_large: bool) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    doc: dict = {"command": "count", "kind": args.kind, "n": args.n}
    what = f"count {args.kind} --n {args.n}"
    if args.kind == "dyck":
        if args.k is not None:
            raise ValueError("--k only applies to kind k-motzkin")
        if args.colors_h is not None:
            raise ValueError("horizontal colors do not apply to kind dyck")
        if args.colors_u is None and args.colors_d is None:
            _bound(what, args.n, counting.CATALAN_CAP, "half-length", allow_large)
            value = counting.catalan(args.n)
        else:
            _bound_transfer(what, 2 * args.n, allow_large)
            u = _parse_color_vector(args.colors_u, "--colors-u") if args.colors_u else _ones(args.n)
            d = _parse_color_vector(args.colors_d, "--colors-d") if args.colors_d else _ones(args.n)
            doc["colors"] = {"u": list(u), "d": list(d)}
            value = counting.count_colored_dyck(args.n, counting.ColorSpec(u=u, d=d))
    elif args.kind == "k-motzkin":
        if args.k is None:
            raise ValueError("kind k-motzkin requires --k")
        if args.k < 0:
            raise ValueError("--k must be nonnegative")
        if args.colors_u is not None or args.colors_d is not None:
            raise ValueError("up/down colors do not apply to kind k-motzkin")
        r = 1
        if args.colors_h is not None:
            if not frames.ASCII_DIGITS.fullmatch(args.colors_h.strip()):
                raise ValueError("k-motzkin takes a single horizontal color count")
            r = int(args.colors_h)
            if r < 1:
                raise ValueError("horizontal color count must be at least 1")
        _bound_transfer(what, args.n, allow_large)
        doc["k"] = args.k
        if r != 1:
            doc["colors"] = {"h": r}
        value = counting.count_k_motzkin(args.n, args.k, r)
    else:  # motzkin
        if args.k is not None:
            raise ValueError("--k only applies to kind k-motzkin")
        _bound_transfer(what, args.n, allow_large)
        if args.colors_h is None and args.colors_u is None and args.colors_d is None:
            value = counting.count_motzkin(args.n)
        else:
            levels = args.n // 2
            h = _parse_color_vector(args.colors_h, "--colors-h") if args.colors_h else _ones(levels + 1)
            u = _parse_color_vector(args.colors_u, "--colors-u") if args.colors_u else _ones(levels)
            d = _parse_color_vector(args.colors_d, "--colors-d") if args.colors_d else _ones(levels)
            doc["colors"] = {"h": list(h), "u": list(u), "d": list(d)}
            spec = counting.ColorSpec(h=h, u=u, d=d)
            value = counting.count_colored_motzkin(args.n, spec)
    doc["count"] = value
    if args.format == "json":
        print(json.dumps(doc))
    else:
        print(value)
    return EXIT_OK


# ----------------------------------------------------------------- enumerate


def cmd_enumerate(args: argparse.Namespace, allow_large: bool) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.kind == "dyck":
        if args.k is not None:
            raise ValueError("--k only applies to kind motzkin")
        cap = None if allow_large else paths.DYCK_ENUMERATION_CAP
        walk = paths.enumerate_dyck(args.n, cap=cap)
    else:
        if args.frame is not None:
            raise ValueError("--frame filtering only applies to kind dyck")
        if args.with_frame:
            raise ValueError("--with-frame only applies to kind dyck")
        cap = None if allow_large else paths.MOTZKIN_ENUMERATION_CAP
        levels = {args.k} if args.k is not None else None
        walk = paths.enumerate_motzkin(args.n, levels, cap=cap)

    wanted = frames.parse_frame_text(args.frame) if args.frame is not None else None
    items: list[tuple[str, tuple[int, ...] | None]] = []
    for path in walk:
        counts = frames.frame_of(path).counts if args.kind == "dyck" else None
        if wanted is not None and counts != wanted:
            continue
        items.append((path.text, counts if args.with_frame else None))

    if args.format == "json":
        if args.with_frame:
            listed = [{"path": text, "frame": list(counts or ())} for text, counts in items]
        else:
            listed = [text for text, _ in items]
        doc = {
            "command": "enumerate",
            "kind": args.kind,
            "n": args.n,
            "count": len(items),
            "paths": listed,
        }
        if args.frame is not None:
            doc["frame"] = list(wanted or ())
        if args.k is not None:
            doc["k"] = args.k
        print(json.dumps(doc))
    else:
        lines = []
        for text, counts in items:
            if counts is not None:
                sep = "," if args.format == "csv" else "  "
                lines.append(text + sep + sep.join(str(v) for v in counts))
            else:
                lines.append(text)
        if lines:
            print("\n".join(lines))
    return EXIT_OK


# -------------------------------------------------------------------- verify


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    params: str
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class VerifyReport:
    max_n: int
    checks: tuple[VerifyCheck, ...]

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
    for length in range(max_len + 1):
        if length == 0:
            yield ()
            continue
        vec = [0] * length
        total = 0
        while True:
            yield tuple(vec)
            i = length - 1
            while i >= 0:
                if total < max_sum:
                    vec[i] += 1
                    total += 1
                    break
                total -= vec[i]
                vec[i] = 0
                i -= 1
            else:
                break


def _positive_vectors(max_sum: int):
    """Every nonempty tuple of positive ints with bounded sum."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], budget: int) -> None:
        for value in range(1, budget + 1):
            prefix.append(value)
            out.append(tuple(prefix))
            grow(prefix, budget - value)
            prefix.pop()

    grow([], max_sum)
    return out


def run_verification(max_n: int, allow_large: bool = False) -> VerifyReport:
    """Cross-check the closed formulas against brute-force enumeration."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    dyck_cap = None if allow_large else paths.DYCK_ENUMERATION_CAP
    motz_cap = None if allow_large else paths.MOTZKIN_ENUMERATION_CAP
    frame_cap = None if allow_large else frames.FRAME_ENUMERATION_CAP
    checks: list[VerifyCheck] = []

    def add(name: str, params: str, expected: int, actual: int) -> None:
        checks.append(VerifyCheck(name, params, expected, actual))

    table = counting.feet_table(max_n, max_n)
    for n in range(max_n + 1):
        listed = list(paths.enumerate_dyck(n, cap=dyck_cap))
        census = Counter(frames.frame_of(path).counts for path in listed)
        formula = list(frames.enumerate_frames(n, cap=frame_cap))

        if n > 0:
            add("frame_count_power", f"n={n}", 2 ** (n - 1), len(formula))
        add(
            "frame_set_oracle",
            f"n={n}",
            0,
            len(set(census) ^ {fr.counts for fr in formula}),
        )
        add(
            "cardinality_oracle",
            f"n={n}",
            0,
            sum(
                1
                for fr in formula
                if counting.frame_cardinality(fr) != census.get(fr.counts, 0)
            ),
        )
        add(
            "cardinality_sum_catalan",
            f"n={n}",
            counting.catalan(n),
            sum(counting.frame_cardinality(fr) for fr in formula),
        )
        mismatched_cells = 0
        for level in range(max_n + 1):
            tally = Counter(paths.foot_count(path, level) for path in listed)
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
        oracle = sum(1 for _ in paths.enumerate_motzkin(n, cap=motz_cap))
        add("motzkin_oracle", f"n={n}", oracle, counting.count_motzkin(n))
    top_k = min(5, max_n)
    for n in range(min(max_n, 10) + 1):
        bad = 0
        for k in range(top_k + 1):
            oracle = sum(1 for _ in paths.enumerate_motzkin(n, {k}, cap=motz_cap))
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
    bad_motzkin = sum(
        1
        for n in range(max_n + 1)
        if counting.count_colored_motzkin(n, counting.ColorSpec(h=ones, u=ones, d=ones))
        != counting.count_motzkin(n)
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
        != counting.count_by_frames(2 * n, no_flats, cap=frame_cap)
    )
    add("colored_dyck_frame_sum", f"n<={max_n}", 0, bad_dyck)
    bad_motzkin = sum(
        1
        for n in range(max_n + 1)
        if counting.count_colored_motzkin(n, spec)
        != counting.count_by_frames(n, spec, cap=frame_cap)
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
    disagreements = sum(
        1
        for seq in _sequences_up_to(entries, entry_sum)
        if frames.is_admissible_trace(seq) != frames.is_admissible_closed(seq)
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


def cmd_verify(args: argparse.Namespace, allow_large: bool) -> int:
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    report = run_verification(args.max_n, allow_large=allow_large)
    if args.format == "json":
        doc = {
            "command": "verify",
            "max_n": report.max_n,
            "checks": [
                {
                    "name": check.name,
                    "params": check.params,
                    "expected": check.expected,
                    "actual": check.actual,
                    "pass": check.passed,
                }
                for check in report.checks
            ],
            "summary": {
                "total": report.total,
                "passed": report.passed,
                "failed": report.failed,
            },
        }
        print(json.dumps(doc))
    elif args.format == "csv":
        lines = [
            f"{check.name},{check.params},{check.expected},{check.actual},"
            f"{1 if check.passed else 0}"
            for check in report.checks
        ]
        print("\n".join(lines))
    else:
        grid = [["check", "params", "expected", "actual", "status"]]
        grid += [
            [
                check.name,
                check.params,
                str(check.expected),
                str(check.actual),
                "ok" if check.passed else "FAIL",
            ]
            for check in report.checks
        ]
        lines = _align(grid)
        lines.append(f"passed {report.passed}/{report.total}")
        print("\n".join(lines))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument(
        "--allow-large",
        action="store_true",
        help="lift the enumeration size caps (also via %s=1)" % ALLOW_LARGE_ENV,
    )

    parser = argparse.ArgumentParser(
        prog="dyckframes",
        description="Frames of Dyck paths: admissibility, cardinalities, "
        "and exact Dyck/Motzkin path counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feet-table", parents=[common], help="foot-count table rows")
    p.add_argument("--max", type=int, required=True, help="largest half-length")
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(handler=cmd_feet_table)

    p = sub.add_parser("frame", parents=[common], help="report on one frame")
    p.add_argument("frame_text", help="comma-separated foot counts, e.g. 3,4,3,1")
    p.set_defaults(handler=cmd_frame)

    p = sub.add_parser("count", parents=[common], help="exact path counts")
    p.add_argument("kind", choices=("dyck", "motzkin", "k-motzkin"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--colors-h", default=None)
    p.add_argument("--colors-u", default=None)
    p.add_argument("--colors-d", default=None)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("enumerate", parents=[common], help="list paths")
    p.add_argument("kind", choices=("dyck", "motzkin"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="restrict horizontal steps to this level")
    p.add_argument("--frame", default=None, help="keep only paths with this frame")
    p.add_argument("--with-frame", action="store_true")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="formula-vs-oracle checks")
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    allow_large = args.allow_large or os.environ.get(
        ALLOW_LARGE_ENV, ""
    ).strip().lower() in ("1", "true", "yes")
    handler: Callable[[argparse.Namespace, bool], int] = args.handler
    # Exact counts can pass the 4300-digit limit on int-to-str conversion,
    # which print and json.dumps both obey; lift it while the command runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return handler(args, allow_large)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (DyckFramesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
