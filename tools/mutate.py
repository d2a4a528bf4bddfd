"""Mutation smoke test: every listed one-line fault must fail its tests.

    python tools/mutate.py

Each mutation replaces one exact piece of text in the package.  That
text occurs exactly once in src/dyckframes, which says which module it
is in; when a mutation's text occurs there zero times or more than
once, the list is stale and the tool exits 2 naming it, before any test
runs.  The mutants run in one temporary copy of src/: each edits its
one file, runs the tests that should catch it with pytest -x, and puts
the file back.  The same tests first run on the unmutated copy, so a
mutation only counts as caught by a real failure.  The exit code is 0
when every mutation is caught, 1 when one survives (a missing test) and
2 when the list is stale or the unmutated copy fails.  The mutations in
EQUIVALENT change no result, so they are printed with their proof and
not run; their text too must occur exactly once.  Standard library and
pytest only; not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dyckframes"


class Mutation(NamedTuple):
    name: str
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids


FEET = "tests/test_counting.py::TestFeetTable"
FEET_CLI = "tests/test_cli.py::TestFeetTable"
ENUMERATE_CLI = "tests/test_cli.py::TestEnumerate"
HARNESS_CLI = "tests/test_cli.py::TestHarness::test_every_cap_lifts_by_flag"
ADMISSIBILITY = "tests/test_frames.py::TestAdmissibility"
SIZES = "tests/test_sizes.py::test_bad_size_names_its_argument"
VERIFY = "tests/test_cli.py::TestVerify"
ROUTE_FAULTS = f"{VERIFY}::test_a_fault_in_one_route_fails_its_check"
WALKER = "tests/test_paths.py::TestWalker"
WRAPPED = f"{WALKER}::test_enumerators_wrap_the_words_in_paths"
PATHS_BUILT = f"{ENUMERATE_CLI}::test_paths_only_built_for_frame_rows"
REFUSED = "tests/test_cli.py::test_refused_argv_prints_one_error_line"
SIZE_FLAGS = '("n", "k", "max", "level", "max_n")'  # the flags cli.main checks
# The frame-class walker's two pushes; the last one pushed pops first.
_PUSH_D = """\
        if level and (left[level - 1] or not above):
            stack.append((prefix + "D", level - 1, left))
"""
_PUSH_U = """\
        if above:
            rest = left[:level] + (above - 1,) + left[level + 1 :]
            stack.append((prefix + "U", level + 1, rest))
"""
_D_THEN_U, _U_THEN_D = _PUSH_D + _PUSH_U, _PUSH_U + _PUSH_D
# Usage checks of cli that come in pairs, each pair in its order there.
_K_ONLY = """\
    if args.kind != "k-motzkin" and args.k is not None:
        raise ValueError("--k only applies to kind k-motzkin")
"""
_NO_COLORS_H = """\
    steps = args.n
    if args.kind == "dyck":
        if args.colors_h is not None:
            raise ValueError("horizontal colors do not apply to kind dyck")
"""
_NEEDS_K = """\
        if args.k is None:
            raise ValueError("kind k-motzkin requires --k")
"""
_NO_UP_DOWN = """\
        if args.colors_u is not None or args.colors_d is not None:
            raise ValueError("up/down colors do not apply to kind k-motzkin")
"""
_NO_FRAME = """\
        if args.frame is not None:
            raise ValueError("--frame filtering only applies to kind dyck")
"""
_NO_WITH_FRAME = """\
        if args.with_frame:
            raise ValueError("--with-frame only applies to kind dyck")
"""

MUTATIONS = (
    Mutation(
        "foot-table digit one bit narrow",
        "bits = catalan(m).bit_length()",
        "bits = catalan(m).bit_length() - 1",
        (FEET,),
    ),
    Mutation(
        "foot-table weights on the wrong gap pair",
        "gap in (level - 1, level)",
        "gap in (level, level + 1)",
        (FEET,),
    ),
    Mutation(
        "foot-table start node not counted",
        "start, width = (x, 2) if level == 0",
        "start, width = (1, 2) if level == 0",
        (FEET,),
    ),
    Mutation(
        "foot-table rows read at odd steps",
        "(m + 1), w), 0, None, 2)",
        "(m + 1), w), 1, None, 2)",
        (FEET,),
    ),
    Mutation(
        "foot-table bound charges half the DP steps",
        "transfer_cells(2 * max_half_length)",
        "transfer_cells(max_half_length)",
        (FEET_CLI,),
    ),
    Mutation(
        "verify census read one level off",
        "tally[frame.foot_count(level)]",
        "tally[frame.foot_count(level + 1)]",
        (VERIFY,),
    ),
    Mutation(
        "closed decider final test loosened",
        "return ups == 0 and",
        "return ups >= 0 and",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "closed decider accepts a top entry short of the up steps below it",
        "return ups == 0 and",
        "return ups <= 0 and",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "closed decider lets a level be left with no up step",
        "            if ups < 1:\n                return False\n            ups = value - ups",
        "            if ups < 0:\n                return False\n            ups = value - ups",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "frame cardinality binomial index",
        "math.comb(count - 1, up)",
        "math.comb(count, up)",
        ("tests/test_counting.py::TestFrameCardinality",),
    ),
    Mutation(
        "frame-sum series recurrence drops the prefix sum",
        "series[k] += colors.h[t] * series[k - 1]",
        "series[k] = colors.h[t] * series[k - 1]",
        ("tests/test_counting.py::TestFrameSum",),
    ),
    Mutation(
        "frame-sum colour weight drops the down factor",
        "weight *= (colors.u[k] * colors.d[k]) ** ups",
        "weight *= colors.u[k] ** ups",
        ("tests/test_counting.py::TestFrameSum",),
    ),
    Mutation(
        "transfer DP falls from two levels up",
        "fall = islice(row, 1, None)",
        "fall = islice(row, 2, None)",
        ("tests/test_counting.py::TestMotzkin",),
    ),
    Mutation(
        "transfer DP cuts every row at level 200",
        "top = min(step, steps - step)",
        "top = min(step, steps - step, 200)",
        ("tests/test_counting.py::TestTransferDPAtItsCap",),
    ),
    Mutation(
        "int digit limit not restored",
        "sys.set_int_max_str_digits(digit_limit)",
        "sys.set_int_max_str_digits(0)",
        ("tests/test_cli.py::TestCount::test_counts_print_past_the_int_digit_limit",),
    ),
    Mutation(
        "composition odometer drops the moved unit",
        "vec[i + 1] = last + 1",
        "vec[i + 1] = last",
        ("tests/test_counting.py::TestWeakCompositions",),
    ),
    Mutation(
        "empty color vector read as absent",
        "if text is None:",
        "if not text:",
        (REFUSED,),
    ),
    Mutation(
        "enumerate accepts a negative --k",
        SIZE_FLAGS,
        '("n", "max", "level", "max_n")',
        (REFUSED,),
    ),
    Mutation(
        "main drops --n from its flags",
        SIZE_FLAGS,
        '("k", "max", "level", "max_n")',
        ("tests/test_sizes.py::test_main_checks_every_size_flag_before_the_handler",),
    ),
    Mutation(
        "enumerate walks for a frame that cannot match",
        "walk, total = iter(()), 0",
        "total = 0",
        (ENUMERATE_CLI,),
    ),
    Mutation(
        "reducer erases a leading 1",
        "        if x < 2:",
        "        if x < 1:",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "reducer accepts any last entry",
        "if total == 1 and x == 1 and all(",
        "if total == 1 and all(",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "canonical replay lowest level first",
        "for k in reversed(ops)",
        "for k in ops",
        ("tests/test_frames.py::TestCanonicalRepresentative",),
    ),
    Mutation(
        "transfer charge ignores the weight width",
        "max(1, -(-widest // 64))",
        "1",
        ("tests/test_cli.py::TestCount", REFUSED),
    ),
    Mutation(
        "frame and color entries accept any Unicode digit",
        "if not (piece.isascii() and piece.isdigit()):",
        "if not piece.isdigit():",
        (REFUSED,),
    ),
    Mutation(
        "a size flag is read with int",
        'parse_count(text.removeprefix("-"), "size", name)',
        'int(text.removeprefix("-"))',
        (REFUSED,),
    ),
    Mutation(
        "unchecked values carry an empty field tuple",
        "set_values(obj, (value,))",
        "set_values(obj, ())",
        ("tests/test_frames.py::TestFrameType", "tests/test_frames.py::TestCanonicalRepresentative"),
    ),
    Mutation(
        "gap weight without the down colors",
        "list(map(mul, colors.u[:levels], colors.d[:levels]))",
        "list(colors.u[:levels])",
        ("tests/test_counting.py::TestColoredMotzkin",
         "tests/test_counting.py::TestTransferCharge"),
    ),
    Mutation(
        "color length check skips the down colors",
        '        ("d", colors.d, levels),\n',
        "",
        ("tests/test_counting.py::TestColoredMotzkin::test_each_short_vector_is_named",),
    ),
    Mutation(
        "count builds the color vectors with no cell bound first",
        '    refuse_over(what, counting.transfer_cells(steps), cap, "DP cell words")\n',
        "",
        (REFUSED,),
    ),
    Mutation(
        "sizes too large to represent end in a traceback",
        "except (OverflowError, MemoryError) as exc:",
        "except () as exc:",
        (REFUSED,),
    ),
    Mutation(
        "csv rows gathered into a list before printing",
        "lines = (sep.join(map(str, row)) for row in rows)",
        "lines = [sep.join(map(str, row)) for row in rows]",
        ("tests/test_cli.py::TestEnumerate::test_csv_rows_stream",),
    ),
    Mutation(
        "frame-class walker lets a level above go unreached",
        "(left[level - 1] or not above)",
        "left[level - 1]",
        ("tests/test_frames.py::TestFrameClass",),
    ),
    Mutation(
        "frame-class walker descends whenever above level 0",
        "if level and (left[level - 1] or not above):",
        "if level:",
        ("tests/test_frames.py::TestFrameClass::test_no_branch_dead_ends",),
    ),
    Mutation(
        "frame-class walker pushes U before D",
        _D_THEN_U,
        _U_THEN_D,
        ("tests/test_frames.py::TestFrameClass",),
    ),
    Mutation(
        "json lists an iterator value whole",
        "for j, chunk in enumerate(_chunks(value)):",
        "for j, chunk in enumerate([list(value)]):",
        ("tests/test_cli.py::TestEnumerate::test_json_rows_stream",),
    ),
    Mutation(
        "json chunks joined without a separator",
        'yield (", " if j else "") + encode(chunk)[1:-1]',
        "yield encode(chunk)[1:-1]",
        ("tests/test_cli.py::TestEnumerate::test_json_streams_byte_for_byte",),
    ),
    Mutation(
        "enumerate skips the closed-form cross-check",
        "if shown != total:",
        "if False:",
        ("tests/test_cli.py::TestEnumerate::test_closed_form_cross_check",),
    ),
    Mutation(
        "enumerate's exit-1 line swaps the printed and closed-form counts",
        'printed {shown} paths, "\n            f"but the closed form counts {total}"',
        'printed {total} paths, "\n            f"but the closed form counts {shown}"',
        ("tests/test_cli.py::TestEnumerate::test_closed_form_cross_check",),
    ),
    Mutation(
        "enumerate serves --frame by the filtered walk",
        "walk, total = frames.frame_class(wanted), counting.frame_cardinality(wanted)",
        "total = counting.frame_cardinality(wanted)",
        ("tests/test_cli.py::TestEnumerate::test_frame_walks_only_its_class",),
    ),
    Mutation(
        "path walker steps below level 0",
        "if level + rise >= 0 and",
        "if level + rise >= -1 and",
        (WALKER,),
    ),
    Mutation(
        "path walker steps flat one level off",
        "(rise or allowed is None or level in allowed)",
        "(rise or allowed is None or level + 1 in allowed)",
        (WALKER,),
    ),
    Mutation(
        "path walker holds every step to the flat levels",
        "(rise or allowed is None or level in allowed)",
        "(allowed is None or level in allowed)",
        (WALKER,),
    ),
    Mutation(
        "path walker steps where level 0 is out of reach",
        "if nxt < remaining]",
        "if nxt <= remaining]",
        ("tests/test_paths.py::TestTrustedConstruction",),
    ),
    Mutation(
        "path tail table continues from the step's own level",
        "for s in shorter(nxt, ())]",
        "for s in shorter(level, ())]",
        (WALKER,),
    ),
    Mutation(
        "Motzkin word stream ignores horizontal_levels",
        "allowed = None if horizontal_levels is None else frozenset(horizontal_levels)",
        "allowed = None",
        (WRAPPED,),
    ),
    Mutation(
        "Dyck enumerator wraps the Motzkin word stream",
        "map(_trusted, _dyck_words(half_length, cap))",
        "map(_trusted, _motzkin_words(2 * half_length, None, cap))",
        (WRAPPED,),
    ),
    Mutation(
        "Motzkin enumerator wraps the unrestricted word stream",
        "_motzkin_words(length, horizontal_levels, cap))",
        "_motzkin_words(length, None, cap))",
        (WRAPPED,),
    ),
    Mutation(
        "plain enumerate rows drop the first word",
        "rows = zip(walk)",
        "rows = zip(islice(walk, 1, None))",
        (PATHS_BUILT,),
    ),
    Mutation(
        "plain enumerate rows repeat the first word",
        "rows = zip(walk)",
        "rows = ((w,) for i, w in enumerate(walk) for _ in range(1 + (i == 0)))",
        (PATHS_BUILT,),
    ),
    Mutation(
        "plain enumerate dyck rows build Paths",
        "walker = paths._dyck_words if plain else paths.enumerate_dyck",
        "walker = paths.enumerate_dyck",
        (PATHS_BUILT,),
    ),
    Mutation(
        "enumerate --with-frame rows walk the words",
        "walker = paths._dyck_words if plain else paths.enumerate_dyck",
        "walker = paths._dyck_words",
        (PATHS_BUILT,),
    ),
    Mutation(
        "enumerate motzkin rows build Paths",
        "walk = paths._motzkin_words(args.n, levels, cap=cap)",
        "walk = paths.enumerate_motzkin(args.n, levels, cap=cap)",
        (PATHS_BUILT,),
    ),
    Mutation(
        "frame_of counts a newly reached level from 0",
        "counts.append(1)",
        "counts.append(0)",
        ("tests/test_properties.py::test_frame_of_matches_the_walked_oracle_up_to_n_11",),
    ),
    Mutation(
        "public Path constructor skips its check",
        "        for _ in _walk(text):\n            pass\n",
        "        pass\n",
        ("tests/test_paths.py::TestParse",),
    ),
    Mutation(
        "enumerate builds a row's frame twice under --frame --with-frame",
        "(p.text, *counts) if args.with_frame else (p.text,)",
        "(p.text, *frames.frame_of(p).counts) if args.with_frame else (p.text,)",
        ("tests/test_cli.py::TestEnumerate::test_frame_built_once_per_row",),
    ),
    Mutation(
        "size guard refuses a size equal to its cap",
        "if cap is not None and size > cap:",
        "if cap is not None and size >= cap:",
        ("tests/test_caps.py",
         "tests/test_cli.py::TestCount::test_allow_large_lifts_the_weight_charge"),
    ),
    Mutation(
        "colored Motzkin reduction checks the DP against itself",
        "sum(counting.binomial(n, 2 * k) * counting.catalan(k) for k in range(n // 2 + 1)),",
        "counting.count_motzkin(n),",
        ("tests/test_cli.py::TestVerify::test_colored_reduction_does_not_read_the_dp_twice",),
    ),
    Mutation(
        "color counts accept non-integers",
        "if any(type(v) is not int or v < 0 for v in vec):",
        "if any(v < 0 for v in vec):",
        ("tests/test_counting.py::TestColoredMotzkin",),
    ),
    Mutation(
        "public Path constructor takes any sequence of steps",
        "if not isinstance(text, str):",
        "if False:",
        ("tests/test_paths.py::TestParse",),
    ),
    Mutation(
        "value types accept assignment to a field",
        '        raise AttributeError(f"cannot assign to field {name!r}")',
        "        object.__setattr__(self, name, value)",
        ("tests/test_values.py::TestFrozen",),
    ),
    Mutation(
        "trim returns a tuple with trailing zeros as it is",
        "if seq and seq[-1] != 0:",
        "if True:",
        ("tests/test_frames.py::TestFrameType",),
    ),
    # Frame checks entry types only through the closed decider.
    Mutation(
        "public Frame constructor takes non-int entries",
        "ups == 0 and all(type(v) is int for v in counts)",
        "ups == 0",
        ("tests/test_frames.py::TestFrameType",),
    ),
    Mutation(
        "binomial identity composes items into no bins",
        "return int(m == 0)",
        "return 1",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "composition tree's one bin reads the wrong entry",
        "return columns[0][m]",
        "return columns[0][0]",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "composition tree's last two bins split one item short",
        "for a in range(left + 1)\n            )",
        "for a in range(left)\n            )",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "composition tree's last bin reads one item short",
        "product * before[a] * last[left - a]",
        "product * before[a] * last[left - a - 1]",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "composition tree's batch split drops a node per batch",
        "grown[start : start + _SPREAD_BATCH]",
        "grown[start : start + _SPREAD_BATCH - 1]",
        ("tests/test_counting.py::TestBinomialIdentity::test_spread_over_more_than_one_batch",),
    ),
    Mutation(
        "composition tree pushes a whole level as one batch",
        """for start in range(0, len(grown), _SPREAD_BATCH):
            stack.append((depth + 1, grown[start : start + _SPREAD_BATCH]))""",
        "stack.append((depth + 1, grown))",
        ("tests/test_counting.py::TestBinomialIdentity::test_memory_does_not_grow_with_the_compositions",),
    ),
    Mutation(
        "binomial identity column stops short of m",
        "for amount in range(m + 1)]",
        "for amount in range(m)]",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "binomial identity column off by one",
        "binomial(amount + size - 1, amount)",
        "binomial(amount + size, amount)",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "weak_compositions takes a non-int size",
        'require_size("total", total)',
        "if total < 0: raise ValueError(total)",
        ("tests/test_counting.py::TestWeakCompositions",),
    ),
    Mutation(
        "closed decider accepts non-int entries",
        "ups == 0 and all(type(v) is int for v in counts)",
        "ups == 0",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "reducer accepts non-int entries",
        "x == 1 and all(type(v) is int and v >= 0 for v in counts):",
        "x == 1 and all(v >= 0 for v in counts):",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "reducer accepts negative entries",
        "x == 1 and all(type(v) is int and v >= 0 for v in counts):",
        "x == 1 and all(type(v) is int for v in counts):",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "trim lets a non-iterable input escape as TypeError",
        "except TypeError:\n            raise ValueError(",
        "except ():\n            raise ValueError(",
        ("tests/test_frames.py::TestFrameType",),
    ),
    Mutation(
        "closed decider lets an entry that is not a number escape as TypeError",
        "    except TypeError:\n        return False\n    return ups == 0",
        "    except ():\n        return False\n    return ups == 0",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "trace decider lets an entry that is not a number escape as TypeError",
        "return _reduction_ops(counts) is not None\n    except TypeError:",
        "return _reduction_ops(counts) is not None\n    except ():",
        (ADMISSIBILITY,),
    ),
    Mutation(
        "a cap is still applied under --allow-large",
        "return None if args.allow_large else cap",
        "return cap",
        (HARNESS_CLI,),
    ),
    Mutation(
        "binomial identity takes a non-int m",
        'require_size("m", m)',
        "if m < 0: raise ValueError(m)",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "binomial identity takes non-int parts",
        "if any(type(v) is not int or v < 0 for v in sizes):",
        "if any(v < 0 for v in sizes):",
        ("tests/test_counting.py::TestBinomialIdentity",),
    ),
    Mutation(
        "require_size loses its type check",
        "if type(value) is not int or value < 0:",
        "if value < 0:",
        (SIZES,),
    ),
    Mutation(
        "require_size takes a bool as a size",
        "if type(value) is not int or value < 0:",
        "if not isinstance(value, int) or value < 0:",
        (SIZES,),
    ),
    Mutation(
        "verify walks before it bounds max_n",
        "    len(to_max)  # OverflowError before any walk when max_n + 1 fits no index\n",
        "",
        (f"{VERIFY}::test_size_past_an_index_is_refused_before_any_walk",),
    ),
    Mutation(
        "foot table grows itself on a larger query",
        "            return FootTable(half_length).row(half_length, level)\n",
        "            self._max_half_length = half_length\n            self._levels.clear()\n",
        (f"{FEET}::test_rebuilds_on_larger_query",),
    ),
    Mutation(
        "colored count dyck lets flat steps in",
        "        h = (0,) * (levels + 1)\n        if args.kind",
        "        h = (1,) * (levels + 1)\n        if args.kind",
        ("tests/test_cli.py::test_counts_match_the_reference",),
    ),
    Mutation(
        "count json colors cut to the entries the count reads",
        "{key: list(vec) for key, vec in named}",
        '{key: list(vec[: levels + (key == "h")]) for key, vec in named}',
        ("tests/test_cli.py::test_counts_match_the_reference",),
    ),
    Mutation(
        "enumerate --frame keeps trailing zeros",
        "wanted = frames.parse_frame_text(args.frame) if",
        'wanted = parse_counts(args.frame, "frame entry", "--frame") if',
        ("tests/test_cli.py::test_counts_match_the_reference",),
    ),
    Mutation(
        "count dyck takes horizontal colors",
        '        if args.colors_h is not None:\n'
        '            raise ValueError("horizontal colors do not apply to kind dyck")\n',
        "",
        (REFUSED,),
    ),
    Mutation(
        "k-motzkin takes no horizontal colors",
        '            if r < 1:\n'
        '                raise ValueError("horizontal color count must be at least 1")\n',
        "",
        (REFUSED,),
    ),
    Mutation(
        "enumerate dyck takes --k",
        '        if args.k is not None:\n'
        '            raise ValueError("--k only applies to kind motzkin")\n',
        "",
        (REFUSED,),
    ),
    Mutation(
        "count's --k error names kind motzkin",
        '"--k only applies to kind k-motzkin"',
        '"--k only applies to kind motzkin"',
        (REFUSED,),
    ),
    # Each pair of checks swapped; a row of REFUSED breaks both rules.
    Mutation(
        "count dyck checks horizontal colors before --k",
        _K_ONLY + _NO_COLORS_H,
        _NO_COLORS_H + _K_ONLY + '    if args.kind == "dyck":\n',  # the dyck branch goes on
        (REFUSED,),
    ),
    Mutation(
        "count k-motzkin checks up/down colors before --k",
        _NEEDS_K + _NO_UP_DOWN,
        _NO_UP_DOWN + _NEEDS_K,
        (REFUSED,),
    ),
    Mutation(
        "enumerate motzkin checks --with-frame before --frame",
        _NO_FRAME + _NO_WITH_FRAME,
        _NO_WITH_FRAME + _NO_FRAME,
        (REFUSED,),
    ),
    Mutation(
        "require_size refuses 0",
        "or value < 0:",
        "or value <= 0:",
        ("tests/test_counting.py::TestCatalan",),
    ),
    Mutation(
        "count_motzkin loses its guard",
        '''every step."""
    require_size("n", n)''',
        'every step."""',
        (SIZES,),
    ),
    Mutation(
        "trim drops a trailing zero that is not an int",
        "while end and counts[end - 1] == 0 and type(counts[end - 1]) is int:",
        "while end and counts[end - 1] == 0:",
        (ADMISSIBILITY, "tests/test_frames.py::TestFrameType"),
    ),
    # Each verify check made to compare a route with itself.
    Mutation(
        "frame count compares the formula with itself",
        'add("frame_count_power", at_n, 2 ** (n - 1), len(formula))',
        'add("frame_count_power", at_n, len(formula), len(formula))',
        (VERIFY,),
    ),
    Mutation(
        "frame set oracle compares the formula with itself",
        "len(set(census) ^ set(formula))",
        "len(set(formula) ^ set(formula))",
        (VERIFY,),
    ),
    Mutation(
        "cardinality oracle compares the formula with itself",
        "((size, census[fr]) for fr, size",
        "((size, size) for fr, size",
        (VERIFY,),
    ),
    Mutation(
        "cardinality sum compares the formula with itself",
        "counting.catalan(n), sum(sizes))",
        "sum(sizes), sum(sizes))",
        (VERIFY,),
    ),
    Mutation(
        "feet sum compares the foot table with itself",
        "counting.catalan(n), sum(table.row(n, 0)))",
        "sum(table.row(n, 0)), sum(table.row(n, 0)))",
        (VERIFY,),
    ),
    Mutation(
        "canonical roundtrip compares the formula with itself",
        "zip(roundtrips, formula)",
        "zip(formula, formula)",
        (VERIFY,),
    ),
    Mutation(
        "consequences check compares the fact with itself",
        "(frames.consequences_hold(fr), True)",
        "(frames.consequences_hold(fr), frames.consequences_hold(fr))",
        (VERIFY,),
    ),
    Mutation(
        "consequences floor interior entries at 3",
        "if not 2 <= counts[j] <=",
        "if not 3 <= counts[j] <=",
        ("tests/test_frames.py::TestConsequences",),
    ),
    Mutation(
        "consequences lower the interior ceiling by one",
        "counts[j - 1] + counts[j + 1] - 2:",
        "counts[j - 1] + counts[j + 1] - 3:",
        ("tests/test_frames.py::TestConsequences",),
    ),
    Mutation(
        "consequences tie the gap of one to degree 2",
        "!= (f == 1):",
        "!= (f == 2):",
        ("tests/test_frames.py::TestConsequences",),
    ),
    Mutation(
        "Motzkin oracle compares the DP with itself",
        "motzkin_walk(n), counting.count_motzkin(n))",
        "counting.count_motzkin(n), counting.count_motzkin(n))",
        (VERIFY,),
    ),
    Mutation(
        "k-Motzkin oracle compares the DP with itself",
        "(counting.count_k_motzkin(n, k), motzkin_walk(n, {k}))",
        "(counting.count_k_motzkin(n, k), counting.count_k_motzkin(n, k))",
        (VERIFY,),
    ),
    Mutation(
        "colored Dyck reduction compares the DP with itself",
        "(counting.count_colored_dyck(n, all_ones), counting.catalan(n))",
        "(counting.count_colored_dyck(n, all_ones), counting.count_colored_dyck(n, all_ones))",
        (VERIFY,),
    ),
    Mutation(
        "colored Dyck frame sum compares the DP with itself",
        "count_by_frames(2 * n, no_flats)",
        "counting.count_colored_dyck(n, spec)",
        (ROUTE_FAULTS,),
    ),
    Mutation(
        "colored Motzkin frame sum compares the DP with itself",
        "count_by_frames(n, spec)",
        "counting.count_colored_motzkin(n, spec)",
        (ROUTE_FAULTS,),
    ),
    Mutation(
        "k-Motzkin foot table compares the DP with itself",
        "count_k_motzkin_by_feet(n, k, 2)",
        "counting.count_k_motzkin(n, k, 2)",
        (ROUTE_FAULTS,),
    ),
    Mutation(
        "decider agreement compares the trace decider with itself",
        "map(closed, batch)",
        "map(trace, batch)",
        (ROUTE_FAULTS,),
    ),
    Mutation(
        "binomial identity check compares the fact with itself",
        "(counting.binomial_identity_check(m, parts), True)",
        "(True, True)",
        (ROUTE_FAULTS,),
    ),
    Mutation(
        "decider sweep tail table reads the wrong remainder",
        "shorter[r - v]",
        "shorter[r]",
        (f"{VERIFY}::test_sweeps_cover_their_domains_once",),
    ),
    Mutation(
        "devnull descriptor left open",
        "\n            os.close(devnull)",
        "",
        ("tests/test_cli.py::TestHarness::test_closed_pipe_on_stdout_is_pointed_at_devnull",),
    ),
    Mutation(
        "cli loads verify at import",
        "    parse_counts,\n    refuse_over,\n)\n",
        "    parse_counts,\n    refuse_over,\n)\nfrom . import verify\n",
        ("tests/test_values.py::test_cli_import_loads_neither_dataclasses_json_nor_verify",),
    ),
    Mutation(
        "counting imports from frames eagerly",
        "from . import frames  #",
        "from .frames import Frame\nfrom . import frames  #",
        ("tests/test_values.py::test_only_verify_loads_the_verify_module",),
    ),
    Mutation(
        "the package serves none of its public names",
        "    if name in _HOME:\n",
        "    if False:\n",
        ("tests/test_values.py::TestPublicNames",),
    ),
    Mutation(
        "cli's __getattr__ serves nothing",
        'if name == "run_verification":',
        "if False:",
        ("tests/test_values.py::test_cli_serves_run_verification_from_verify_uncached",),
    ),
)

# Mutations that change no result, so no test can catch them; each is
# kept here with its proof, and its text must still occur exactly once.
EQUIVALENT = (
    (
        Mutation(
            "consequences let the top entry tie the one below it",
            "if not counts[f - 1] > counts[f]:",
            "if not counts[f - 1] >= counts[f]:",
            (),
        ),
        "with v(k) the up steps from level k and v(-1) = 1 for the start, "
        "c(f-1) = v(f-2) + v(f-1) > v(f-1) = c(f) on every admissible frame",
    ),
)


def locate(mutations: Iterable[Mutation]) -> tuple[dict[Mutation, str], list[str]]:
    """The module of each mutation whose text occurs exactly once in the
    package, and the names of the others, which make the list stale."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    modules, stale = {}, []
    for mutation in mutations:
        found = [name for name, text in sources.items() for _ in range(text.count(mutation.old))]
        if len(found) == 1:
            modules[mutation] = found[0]
        else:
            stale.append(mutation.name)
    return modules, stale


def _pytest(workdir: Path, tests: tuple[str, ...]) -> bool:
    """Run the tests against workdir's src/; True when they all pass."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True)
    return done.returncode == 0


def main() -> int:
    modules, stale = locate([*MUTATIONS, *(mutation for mutation, _ in EQUIVALENT)])
    for name in stale:
        print(f"stale: {name}: text not found exactly once", file=sys.stderr)
    if stale:
        return 2
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests", "bench"):  # the tests read bench/reference.py
            shutil.copytree(ROOT / part, workdir / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", workdir)
        baseline = tuple(dict.fromkeys(t for m in MUTATIONS for t in m.tests))
        if not _pytest(workdir, baseline):
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        for mutation, proof in EQUIVALENT:
            print(f"equivalent  {mutation.name}: {proof}")
        survivors = []
        for mutation in MUTATIONS:
            target = workdir / "src" / "dyckframes" / modules[mutation]
            text = target.read_text()
            target.write_text(text.replace(mutation.old, mutation.new))
            caught = not _pytest(workdir, mutation.tests)
            target.write_text(text)
            print(f"{'caught  ' if caught else 'SURVIVED'}  {mutation.name}")
            if not caught:
                survivors.append(mutation.name)
    print(
        f"{len(MUTATIONS) - len(survivors)}/{len(MUTATIONS)} mutations caught, "
        f"{len(EQUIVALENT)} equivalent not run"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
