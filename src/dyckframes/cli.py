"""Command-line front end: tables, frame reports, counts, enumeration,
and the self-verification harness of the verify module.  Every command
renders through one function as aligned text, csv, or a single json
document, deterministically.

Exit codes: 0 success, 1 verification failure (a failed verify check,
or an enumerate whose paths do not number its closed-form count), 2
usage or parse error, 3 work over a size cap, refused before it starts,
or a size too large to represent under --allow-large.  A command whose
stdout closes before its output ends (as under `| head`) exits 1 too,
as Python does on a broken pipe, and prints nothing more.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import count, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import counting, frames, paths
from .errors import (
    DyckFramesError,
    NotAdmissible,
    ResourceLimit,
    parse_count,
    parse_counts,
    refuse_over,
)

FORMATS = ("table", "csv", "json")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE_LIMIT = 3

# Keep at least this many foot columns so small tables match the shape
# of the checked-in level-0 golden file.
MIN_FEET_COLUMNS = 6


def _align(rows: list[list]) -> list[str]:
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    return [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    ]


def _emit(fmt: str, doc: dict, rows: Iterable[Sequence], table: list[str] | None = None) -> None:
    """Print a command's output: json prints doc, table prints the table
    lines if given, and otherwise each row is joined by commas (csv) or
    two spaces (table).  Rows print in chunks as rows yields them.  A doc
    value may be an iterator, which json writes as an array in the same
    chunks, byte for byte as json.dumps(doc, default=list) would."""
    if fmt == "json":
        sys.stdout.writelines(_json_pieces(doc))
        return
    if fmt == "table" and table is not None:
        lines: Iterable[str] = table
    else:
        sep = "," if fmt == "csv" else "  "
        lines = (sep.join(map(str, row)) for row in rows)
    for chunk in _chunks(lines):  # one write per chunk, not per line
        print("\n".join(chunk))


def _chunks(items: Iterable) -> Iterator[list]:
    """Lists of the next 4,096 items, until items runs out."""
    items = iter(items)
    return iter(lambda: list(islice(items, 4096)), [])


def _json_pieces(doc: dict) -> Iterator[str]:
    """The line json.dumps(doc, default=list) prints, in pieces.

    json is imported here, so the other formats never load it.  One
    encoder with the settings of json.dumps(..., default=list) serves
    every piece; it skips the check for cycles, which no doc has.
    """
    import json

    encode = json.JSONEncoder(default=list, check_circular=False).encode
    yield "{"
    for i, (key, value) in enumerate(doc.items()):
        yield f"{', ' if i else ''}{encode(key)}: "
        if isinstance(value, Iterator):
            yield "["
            for j, chunk in enumerate(_chunks(value)):
                yield (", " if j else "") + encode(chunk)[1:-1]
            yield "]"
        else:
            yield encode(value)
    yield "}\n"


def _cap(args: argparse.Namespace, cap: int) -> int | None:
    """The cap a command applies: none at all under --allow-large."""
    return None if args.allow_large else cap


# ---------------------------------------------------------------- feet-table


def cmd_feet_table(args: argparse.Namespace) -> int:
    terms = counting.foot_table_terms(args.max)
    what = f"feet-table --max {args.max} --level {args.level}"
    refuse_over(what, terms, _cap(args, counting.FOOT_TABLE_TERM_CAP), "packed DP entries")
    table = counting.feet_table(args.max)
    start = 1 if args.level == 0 else 0
    columns = list(range(start, max(args.max, MIN_FEET_COLUMNS) + 1))
    rows = [[table.count(n, args.level, j) for j in columns] for n in range(args.max + 1)]
    doc = {
        "command": "feet-table",
        "level": args.level,
        "max_half_length": args.max,
        "feet": columns,
        "rows": [{"steps": 2 * n, "counts": values} for n, values in enumerate(rows)],
    }
    grid = [["steps"] + [f"{j}-ped" for j in columns]]
    grid += [[2 * n, *values] for n, values in enumerate(rows)]
    _emit(args.format, doc, rows, _align(grid))
    return EXIT_OK


# --------------------------------------------------------------------- frame


def cmd_frame(args: argparse.Namespace) -> int:
    doc: dict = {"command": "frame", "input": args.frame_text, "admissible": False}
    try:
        fr = frames.Frame.parse(args.frame_text)
    except NotAdmissible:
        _emit(args.format, doc, [[0]], ["admissible  false"])
        return EXIT_OK
    # The class has at most C_n paths and the canonical path has 2n steps.
    cap = _cap(args, counting.CATALAN_CAP)
    refuse_over(f"frame {args.frame_text}", fr.length // 2, cap, "half-length")
    ups = list(frames.up_steps_per_level(fr))
    doc.update(
        admissible=True,
        frame=list(fr.counts),
        length=fr.length,
        degree=fr.degree,
        cardinality=counting.frame_cardinality(fr),
        canonical=frames.canonical_representative(fr).text,
        up_steps=ups,
    )
    row = [1, doc["length"], doc["degree"], doc["cardinality"], doc["canonical"], *ups]
    report = [
        "admissible  true",
        f"frame  {fr}",
        f"length  {doc['length']}",
        f"degree  {doc['degree']}",
        f"cardinality  {doc['cardinality']}",
        f"canonical  {doc['canonical'] or '(null path)'}",
        f"up_steps  {' '.join(str(v) for v in ups) or '-'}",
    ]
    _emit(args.format, doc, [row], report)
    return EXIT_OK


# --------------------------------------------------------------------- count


def _colors(text: str | None, flag: str, size: int) -> tuple[int, ...]:
    """The color vector given with flag, or all ones when it is absent."""
    if text is None:
        return (1,) * size
    return parse_counts(text, "color count", flag)


def cmd_count(args: argparse.Namespace) -> int:
    doc: dict = {"command": "count", "kind": args.kind, "n": args.n}
    what = f"count {args.kind} --n {args.n}"
    if args.kind != "k-motzkin" and args.k is not None:
        raise ValueError("--k only applies to kind k-motzkin")
    steps = args.n
    if args.kind == "dyck":
        if args.colors_h is not None:
            raise ValueError("horizontal colors do not apply to kind dyck")
        if args.colors_u is None and args.colors_d is None:
            refuse_over(what, args.n, _cap(args, counting.CATALAN_CAP), "half-length")
            doc["count"] = counting.catalan(args.n)
            _emit(args.format, doc, [[doc["count"]]])
            return EXIT_OK
        steps = 2 * args.n
    elif args.kind == "k-motzkin":
        if args.k is None:
            raise ValueError("kind k-motzkin requires --k")
        if args.colors_u is not None or args.colors_d is not None:
            raise ValueError("up/down colors do not apply to kind k-motzkin")
        r = 1
        if args.colors_h is not None:
            try:
                r = parse_count(args.colors_h, "color count", "--colors-h")
            except ValueError:
                raise ValueError("k-motzkin takes a single horizontal color count") from None
            if r < 1:
                raise ValueError("horizontal color count must be at least 1")
        doc["k"] = args.k
        if r != 1:
            doc["colors"] = {"h": r}
    # Bound the cells before any color vector is built, then charge the
    # weights of the one ColorSpec that is counted.
    cap = _cap(args, counting.TRANSFER_CELL_CAP)
    refuse_over(what, counting.transfer_cells(steps), cap, "DP cell words")
    levels = steps // 2
    if args.kind == "k-motzkin":
        spec = counting.k_motzkin_colors(args.n, args.k, r)
    else:  # a colored dyck count is a motzkin count with no horizontal steps
        h = (0,) * (levels + 1)
        if args.kind == "motzkin":
            h = _colors(args.colors_h, "--colors-h", levels + 1)
        u = _colors(args.colors_u, "--colors-u", levels)
        d = _colors(args.colors_d, "--colors-d", levels)
        if (args.colors_h, args.colors_u, args.colors_d) != (None, None, None):
            named = zip("hud", (h, u, d)) if args.kind == "motzkin" else zip("ud", (u, d))
            doc["colors"] = {key: list(vec) for key, vec in named}
        spec = counting.ColorSpec(h, u, d)
    refuse_over(what, counting.transfer_charge(steps, spec), cap, "DP cell words")
    doc["count"] = counting.count_colored_motzkin(steps, spec)
    _emit(args.format, doc, [[doc["count"]]])
    return EXIT_OK


# ----------------------------------------------------------------- enumerate


def cmd_enumerate(args: argparse.Namespace) -> int:
    # Plain rows print the walker's words; only frame rows need Paths.
    plain = args.frame is None and not args.with_frame
    if args.kind == "dyck":
        if args.k is not None:
            raise ValueError("--k only applies to kind motzkin")
        walker = paths._dyck_words if plain else paths.enumerate_dyck
        walk = walker(args.n, cap=_cap(args, paths.DYCK_ENUMERATION_CAP))
    else:
        if args.frame is not None:
            raise ValueError("--frame filtering only applies to kind dyck")
        if args.with_frame:
            raise ValueError("--with-frame only applies to kind dyck")
        cap = _cap(args, paths.MOTZKIN_ENUMERATION_CAP)
        levels = {args.k} if args.k is not None else None
        walk = paths._motzkin_words(args.n, levels, cap=cap)

    wanted = frames.parse_frame_text(args.frame) if args.frame is not None else None
    if wanted is None:
        if args.kind == "dyck":
            total = counting.catalan(args.n)
        elif args.k is None:
            total = counting.count_motzkin(args.n)
        else:
            total = counting.count_k_motzkin(args.n, args.k)
    # Only an admissible frame of length 2n has paths: its class, walked directly.
    elif frames.is_admissible_closed(wanted) and frames.frame_length(wanted) == 2 * args.n:
        walk, total = frames.frame_class(wanted), counting.frame_cardinality(wanted)
    else:
        walk, total = iter(()), 0
    rows: Iterable[tuple]
    if plain:
        rows = zip(walk)
    else:  # one frame per path, checked against --frame and printed by --with-frame
        rows = (
            (p.text, *counts) if args.with_frame else (p.text,)
            for p in walk
            for counts in (frames.frame_of(p).counts,)
            if wanted is None or counts == wanted
        )
    printed = count()  # zip draws one number per row printed
    rows = map(itemgetter(0), zip(rows, printed))
    doc: dict = {"command": "enumerate", "kind": args.kind, "n": args.n}
    if args.format == "json":  # the count comes before the paths
        listed = (
            ({"path": r[0], "frame": list(r[1:])} for r in rows)
            if args.with_frame
            else map(itemgetter(0), rows)
        )
        doc.update(count=total, paths=listed)
    if args.frame is not None:
        doc["frame"] = list(wanted)
    if args.k is not None:
        doc["k"] = args.k
    _emit(args.format, doc, rows)
    shown = next(printed)
    if shown != total:
        print(
            f"error: enumerate {args.kind} --n {args.n}: printed {shown} paths, "
            f"but the closed form counts {total}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# -------------------------------------------------------------------- verify


def __getattr__(name: str):
    """Serve run_verification from verify, loaded on first use, so that
    no command but verify imports that module."""
    if name == "run_verification":
        from .verify import run_verification

        return run_verification
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    # Per call: verify loads only for this command, and a rebinding of run_verification is read.
    from .verify import run_verification

    report = run_verification(args.max_n, _cap(args, paths.DYCK_ENUMERATION_CAP))
    rows = [
        [check.name, check.params, check.expected, check.actual, int(check.passed)]
        for check in report.checks
    ]
    keys = ("name", "params", "expected", "actual", "pass")
    doc = {
        "command": "verify",
        "max_n": report.max_n,
        "checks": [{**dict(zip(keys, row)), "pass": row[4] == 1} for row in rows],
        "summary": {
            "total": report.total,
            "passed": report.passed,
            "failed": report.failed,
        },
    }
    grid = [["check", "params", "expected", "actual", "status"]]
    grid += [[*row[:4], "ok" if row[4] else "FAIL"] for row in rows]
    table = _align(grid) + [f"passed {report.passed}/{report.total}"]
    _emit(args.format, doc, rows, table)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument(
        "--allow-large",
        action="store_true",
        help="lift every size cap",
    )

    parser = argparse.ArgumentParser(
        prog="dyckframes",
        description="Frames of Dyck paths: admissibility, cardinalities, "
        "and exact Dyck/Motzkin path counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feet-table", parents=[common], help="foot-count table rows")
    p.add_argument("--max", required=True, help="largest half-length")
    p.add_argument("--level", default="0")
    p.set_defaults(handler=cmd_feet_table)

    p = sub.add_parser("frame", parents=[common], help="report on one frame")
    p.add_argument("frame_text", help="comma-separated foot counts, e.g. 3,4,3,1")
    p.set_defaults(handler=cmd_frame)

    p = sub.add_parser("count", parents=[common], help="exact path counts")
    p.add_argument("kind", choices=("dyck", "motzkin", "k-motzkin"))
    p.add_argument("--n", required=True)
    p.add_argument("--k", default=None)
    p.add_argument("--colors-h", default=None)
    p.add_argument("--colors-u", default=None)
    p.add_argument("--colors-d", default=None)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("enumerate", parents=[common], help="list paths")
    p.add_argument("kind", choices=("dyck", "motzkin"))
    p.add_argument("--n", required=True)
    p.add_argument("--k", default=None, help="restrict horizontal steps to this level")
    p.add_argument("--frame", default=None, help="keep only paths with this frame")
    p.add_argument("--with-frame", action="store_true")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="formula-vs-oracle checks")
    p.add_argument("--max-n", default="6")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    handler: Callable[[argparse.Namespace], int] = args.handler
    # Exact counts can pass the 4300-digit limit on int-to-str conversion,
    # which print and json.dumps both obey; lift it while the command runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        # Every size flag a command was given, read before any handler runs.
        for flag in ("n", "k", "max", "level", "max_n"):
            text = getattr(args, flag, None)
            if text is not None:
                name = f"--{flag.replace('_', '-')}"
                setattr(args, flag, parse_count(text.removeprefix("-"), "size", name))
                if text.startswith("-"):
                    raise ValueError(f"{name} must be nonnegative")
        return handler(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (OverflowError, MemoryError) as exc:
        # A size can pass every cap under --allow-large and still not fit.
        print(f"error: {args.command}: too large to represent ({exc!r})", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (DyckFramesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout
        # at devnull so the flush at exit stays quiet, and exit 1, as
        # Python does on EPIPE, printing nothing.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):
            pass  # stdout has no descriptor, so the exit flushes nothing there
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
