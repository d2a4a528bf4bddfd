"""Command-line surface: formats, golden files, exit codes, determinism."""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckframes import enumerate_dyck, foot_count
from dyckframes import cli
from dyckframes import paths as paths_module
from dyckframes import verify as verify_module
from dyckframes.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
HUGE = "99999999999999999999"  # past sys.maxsize, so no sequence can have this length


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestFeetTable:
    def test_level0_max6_csv_matches_golden(self, capsys):
        code, out = run(capsys, "feet-table", "--max", "6", "--level", "0", "--format", "csv")
        assert code == 0
        golden = GOLDEN_DIR / "feet_table_level0_max6.csv"
        if os.environ.get("DYCKFRAMES_REGEN_GOLDEN") == "1":
            golden.write_text(out)
        assert out == golden.read_text()

    def test_null_table_row(self, capsys):
        code, out = run(capsys, "feet-table", "--max", "0", "--level", "0", "--format", "csv")
        assert code == 0
        assert out == "1,0,0,0,0,0\n"

    def test_level2_json_matches_census(self, capsys):
        code, out = run(capsys, "feet-table", "--max", "4", "--level", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == 2
        for row in doc["rows"]:
            n = row["steps"] // 2
            tally = Counter(foot_count(p, 2) for p in enumerate_dyck(n))
            for feet, value in zip(doc["feet"], row["counts"]):
                assert value == tally.get(feet, 0)

    def test_table_format_has_header(self, capsys):
        code, out = run(capsys, "feet-table", "--max", "2", "--level", "0")
        assert code == 0
        assert "1-ped" in out.splitlines()[0]

    def test_negative_max_is_usage_error(self, capsys):
        code, _ = run(capsys, "feet-table", "--max", "-2", "--format", "csv")
        assert code == 2

    def test_huge_level_costs_nothing(self, capsys):
        for top, near, far in (("5", "6", "100000000"), ("0", "1", "833333")):
            argv = ("feet-table", "--max", top)
            _, expected = run(capsys, *argv, "--level", near)
            start = time.perf_counter()
            assert run(capsys, *argv, "--level", far) == (0, expected)
            assert time.perf_counter() - start < 0.5

    def test_bound_admits_the_benchmark_and_verify_tables(self):
        cap = cli.counting.FOOT_TABLE_TERM_CAP
        assert cli.counting.foot_table_terms(40) <= cap
        assert cli.counting.foot_table_terms(16) <= cap

    def test_bound_keeps_every_table_the_quartic_estimate_admitted(self):
        cap = cli.counting.FOOT_TABLE_TERM_CAP
        for top in range(148):
            m = top + 1
            quartic = m**4 // 24 + 24 * m
            tallest = cap // quartic - 1
            assert (tallest + 1) * quartic <= cap < (tallest + 2) * quartic
            assert cli.counting.foot_table_terms(top) <= cap
        assert cli.counting.foot_table_terms(214) <= cap
        assert cli.counting.foot_table_terms(215) > cap

    def test_levels_above_max_plus_one_repeat(self, capsys):
        argv = ("feet-table", "--max", "3", "--format", "csv")
        _, expected = run(capsys, *argv, "--level", "4")
        assert run(capsys, *argv, "--level", "100000") == (0, expected)

    def test_allow_large_lifts_the_feet_table_bound(self, capsys, monkeypatch):
        argv = ("feet-table", "--max", "3", "--level", "1", "--format", "csv")
        _, expected = run(capsys, *argv)
        monkeypatch.setattr(cli.counting, "FOOT_TABLE_TERM_CAP", 10)
        assert run(capsys, *argv) == (3, "")
        assert run(capsys, *argv, "--allow-large") == (0, expected)


class TestFrame:
    def test_admissible_report_json(self, capsys):
        code, out = run(capsys, "frame", "3,4,3,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["admissible"] is True
        assert doc["length"] == 10
        assert doc["degree"] == 3
        assert doc["cardinality"] == 6
        assert doc["canonical"] == "UUUDDUDDUD"
        assert doc["up_steps"] == [2, 2, 1]

    def test_inadmissible_report_omits_details(self, capsys):
        code, out = run(capsys, "frame", "4,5,2,3,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["admissible"] is False
        assert "cardinality" not in doc

    def test_null_frame(self, capsys):
        code, out = run(capsys, "frame", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 0
        assert doc["cardinality"] == 1
        assert doc["canonical"] == ""

    def test_trailing_zeros_accepted(self, capsys):
        code, out = run(capsys, "frame", "2,1,0,0", "--format", "json")
        assert code == 0
        assert json.loads(out)["frame"] == [2, 1]

    def test_csv_row(self, capsys):
        code, out = run(capsys, "frame", "3,4,3,1", "--format", "csv")
        assert code == 0
        assert out == "1,10,3,6,UUUDDUDDUD,2,2,1\n"

    def test_parse_error_exit_code(self, capsys):
        code, _ = run(capsys, "frame", "3,x,1")
        assert code == 2

    def test_over_bound_is_refused_up_front(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "frame", "30002,30001")
        assert code == 3 and out == ""
        assert time.perf_counter() - start < 0.5

    def test_allow_large_lifts_the_frame_bound(self, capsys):
        code, out = run(capsys, "frame", "30002,30001", "--allow-large", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 60002 and doc["cardinality"] == 1
        assert doc["canonical"] == "UD" * 30001

    def test_closed_decider_runs_once(self, capsys, monkeypatch):
        calls = []
        original = cli.frames.is_admissible_closed
        monkeypatch.setattr(
            cli.frames, "is_admissible_closed", lambda seq: calls.append(seq) or original(seq)
        )
        assert run(capsys, "frame", "3,4,3,1")[0] == 0
        assert calls == [(3, 4, 3, 1)]

    def test_deepest_frame_at_the_bound(self, capsys):
        code, out = run(capsys, "frame", "2," * 29_999 + "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 29_999 and doc["cardinality"] == 1
        assert doc["canonical"] == "U" * 29_999 + "D" * 29_999


class TestCount:
    def test_dyck(self, capsys):
        assert run(capsys, "count", "dyck", "--n", "3", "--format", "csv") == (0, "5\n")

    def test_motzkin(self, capsys):
        assert run(capsys, "count", "motzkin", "--n", "6", "--format", "csv") == (0, "51\n")

    def test_k_motzkin(self, capsys):
        code, out = run(capsys, "count", "k-motzkin", "--n", "3", "--k", "0", "--format", "csv")
        assert (code, out) == (0, "3\n")

    def test_k_motzkin_colored(self, capsys):
        code, out = run(
            capsys, "count", "k-motzkin", "--n", "5", "--k", "0",
            "--colors-h", "2", "--format", "json",
        )
        assert code == 0
        from dyckframes import count_k_motzkin

        assert json.loads(out)["count"] == count_k_motzkin(5, 0, 2)

    def test_colored_dyck(self, capsys):
        code, out = run(
            capsys, "count", "dyck", "--n", "2", "--colors-u", "2,1", "--format", "csv"
        )
        assert (code, out) == (0, "6\n")

    def test_colored_motzkin_all_ones_is_plain(self, capsys):
        _, plain = run(capsys, "count", "motzkin", "--n", "8", "--format", "csv")
        _, colored = run(
            capsys, "count", "motzkin", "--n", "8",
            "--colors-h", "1,1,1,1,1", "--format", "csv",
        )
        assert plain == colored

    def test_k_with_dyck_is_usage_error(self, capsys):
        code, _ = run(capsys, "count", "dyck", "--n", "3", "--k", "1")
        assert code == 2

    def test_k_with_motzkin_is_usage_error(self, capsys):
        code, _ = run(capsys, "count", "motzkin", "--n", "3", "--k", "1")
        assert code == 2

    def test_k_motzkin_without_k_is_usage_error(self, capsys):
        code, _ = run(capsys, "count", "k-motzkin", "--n", "3")
        assert code == 2

    def test_up_colors_with_k_motzkin_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "count", "k-motzkin", "--n", "3", "--k", "0", "--colors-u", "2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "kind, flags, first",
        [
            ("motzkin", ("--colors-h", "--colors-u", "--colors-d"), "--colors-h"),
            ("motzkin", ("--colors-u", "--colors-d"), "--colors-u"),
            ("dyck", ("--colors-u", "--colors-d"), "--colors-u"),
        ],
    )
    def test_color_vectors_parse_in_order_h_u_d(self, capsys, kind, flags, first):
        # Each flag gets a bad vector; the error names the first one parsed.
        argv = [arg for flag in flags for arg in (flag, flag[-1] * 2)]
        assert main(["count", kind, "--n", "4", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad color count {first[-1] * 2!r} in {first}\n"

    def test_short_color_vector_is_usage_error(self, capsys):
        code, _ = run(capsys, "count", "dyck", "--n", "4", "--colors-u", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("motzkin", "--n", "2", "--colors-h", ""), "--colors-h"),
            (("dyck", "--n", "2", "--colors-u", ""), "--colors-u"),
            (("dyck", "--n", "2", "--colors-d", ""), "--colors-d"),
        ],
    )
    def test_empty_color_vector_is_usage_error(self, capsys, argv, flag):
        assert main(["count", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad color count '' in {flag}" in captured.err

    def test_motzkin_past_the_frame_cap(self, capsys):
        motzkin = [1, 1]
        for n in range(2, 43):
            motzkin.append(((2 * n + 1) * motzkin[-1] + (3 * n - 3) * motzkin[-2]) // (n + 2))
        code, out = run(capsys, "count", "motzkin", "--n", "42", "--format", "csv")
        assert (code, out) == (0, f"{motzkin[42]}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("dyck", "--n", "1000000"),
            ("dyck", "--n", "5000", "--colors-u", "2"),
            ("motzkin", "--n", "100000"),
            ("motzkin", "--n", "5000", "--colors-h", "2"),
            ("k-motzkin", "--n", "100000", "--k", "3"),
        ],
    )
    def test_over_bound_is_refused_up_front(self, capsys, argv):
        start = time.perf_counter()
        code, out = run(capsys, "count", *argv)
        assert code == 3 and out == ""
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "argv",
        [
            ("k-motzkin", "--n", "400", "--k", "0", "--colors-h", "9" * 2000),
            ("dyck", "--n", "200", "--colors-u", "9" * 2000 + ",1" * 199),
        ],
        ids=["k-motzkin", "dyck"],
    )
    def test_wide_colors_are_charged_up_front(self, capsys, argv):
        start = time.perf_counter()
        code, out = run(capsys, "count", *argv)
        assert code == 3 and out == ""
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("dyck", "--n", "200", "--colors-u", "9" * 2000), "colors.u needs at least 200"),
            (("motzkin", "--n", "400", "--colors-h", "9" * 2000), "colors.h needs at least 201"),
        ],
        ids=["dyck", "motzkin"],
    )
    def test_short_vector_is_usage_error_even_when_wide(self, capsys, argv, message):
        assert main(["count", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize(
        "argv, narrow, wide, count",
        [
            (
                "k-motzkin --n 6 --k 0 --colors-h {0}",
                2**64 - 1,
                2**64,
                lambda x: cli.counting.count_k_motzkin(6, 0, x),
            ),
            (
                "motzkin --n 6 --colors-h 1,{0},1,1",
                2**64 - 1,
                2**64,
                lambda x: cli.counting.count_colored_motzkin(
                    6, cli.counting.ColorSpec(h=(1, x, 1, 1), u=(1,) * 3, d=(1,) * 3)
                ),
            ),
            (  # a gap weighs u * d, which passes 64 bits before either does
                "dyck --n 3 --colors-u 1,{0},1 --colors-d 1,{0},1",
                2**32 - 1,
                2**32,
                lambda x: cli.counting.count_colored_dyck(
                    3, cli.counting.ColorSpec(u=(1, x, 1), d=(1, x, 1))
                ),
            ),
        ],
        ids=["k-motzkin", "motzkin", "dyck"],
    )
    def test_allow_large_lifts_the_weight_charge(
        self, capsys, monkeypatch, argv, narrow, wide, count
    ):
        monkeypatch.setattr(cli.counting, "TRANSFER_CELL_CAP", cli.counting.transfer_cells(6))
        for x, code in ((narrow, 0), (wide, 3)):
            out = f"{count(x)}\n" if code == 0 else ""
            argv_x = ["count", *argv.format(x).split(), "--format", "csv"]
            assert run(capsys, *argv_x) == (code, out)
            assert run(capsys, *argv_x, "--allow-large") == (0, f"{count(x)}\n")

    def test_allow_large_lifts_the_count_bounds(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.counting, "TRANSFER_CELL_CAP", 10)
        monkeypatch.setattr(cli.counting, "CATALAN_CAP", 2)
        assert run(capsys, "count", "motzkin", "--n", "6")[0] == 3
        assert run(capsys, "count", "dyck", "--n", "3")[0] == 3
        assert run(capsys, "count", "motzkin", "--n", "6", "--allow-large") == (0, "51\n")
        assert run(capsys, "count", "dyck", "--n", "3", "--allow-large") == (0, "5\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_counts_print_past_the_int_digit_limit(self, capsys, fmt):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            code, out = run(capsys, "count", "dyck", "--n", "8000", "--format", fmt)
            assert code == 0
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            value = int(out) if fmt == "csv" else json.loads(out)["count"]
        finally:
            sys.set_int_max_str_digits(saved)
        assert value == math.comb(16000, 8000) // 8001

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("frame", "3,\u0663"), "bad frame entry"),
            (("frame", "\u00b2,1"), "bad frame entry"),
            (("count", "dyck", "--n", "2", "--colors-u", "2,\u0663"), "bad color count"),
            (("count", "motzkin", "--n", "2", "--colors-h", "\u00b2,1"), "bad color count"),
            (("count", "k-motzkin", "--n", "2", "--k", "0", "--colors-h", "\u0663"),
             "single horizontal color count"),
        ],
    )
    def test_non_ascii_digits_are_usage_errors(self, capsys, argv, message):
        assert main(list(argv)) == 2
        assert message in capsys.readouterr().err


class TestEnumerate:
    def test_dyck_order(self, capsys):
        code, out = run(capsys, "enumerate", "dyck", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "UUDD\nUDUD\n"

    def test_frame_filter(self, capsys):
        code, out = run(
            capsys, "enumerate", "dyck", "--n", "5", "--frame", "3,4,3,1", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert "UUUDDUDDUD" in lines

    def test_with_frame_csv(self, capsys):
        code, out = run(capsys, "enumerate", "dyck", "--n", "2", "--with-frame", "--format", "csv")
        assert code == 0
        assert out == "UUDD,2,2,1\nUDUD,3,2\n"

    def test_with_frame_json(self, capsys):
        code, out = run(capsys, "enumerate", "dyck", "--n", "2", "--with-frame", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["paths"] == [
            {"path": "UUDD", "frame": [2, 2, 1]},
            {"path": "UDUD", "frame": [3, 2]},
        ]

    def test_frames_only_built_on_request(self, capsys, monkeypatch):
        _, expected = run(capsys, "enumerate", "dyck", "--n", "6", "--format", "csv")
        calls = []
        original = cli.frames.frame_of
        monkeypatch.setattr(cli.frames, "frame_of", lambda p: calls.append(p) or original(p))
        code, out = run(capsys, "enumerate", "dyck", "--n", "6", "--format", "csv")
        assert (code, out) == (0, expected)
        assert len(out.splitlines()) == 132 and calls == []
        run(capsys, "enumerate", "dyck", "--n", "6", "--with-frame", "--format", "csv")
        assert len(calls) == 132

    def test_motzkin_with_level_restriction(self, capsys):
        code, out = run(capsys, "enumerate", "motzkin", "--n", "3", "--k", "0", "--format", "csv")
        assert code == 0
        assert out == "UDH\nHUD\nHHH\n"

    def test_over_cap_is_resource_limit(self, capsys):
        code, _ = run(capsys, "enumerate", "dyck", "--n", "20")
        assert code == 3

    def test_allow_large_flag_lifts_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(paths_module, "DYCK_ENUMERATION_CAP", 2)
        code, _ = run(capsys, "enumerate", "dyck", "--n", "3")
        assert code == 3
        code, out = run(capsys, "enumerate", "dyck", "--n", "3", "--allow-large", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_allow_large_env_var(self, capsys, monkeypatch):
        # No environment variable lifts a cap; only the flag in argv does.
        monkeypatch.setattr(paths_module, "DYCK_ENUMERATION_CAP", 2)
        monkeypatch.setenv("DYCKFRAMES_ALLOW_LARGE", "1")
        assert run(capsys, "enumerate", "dyck", "--n", "3", "--format", "csv") == (3, "")

    def test_frame_filter_with_motzkin_is_usage_error(self, capsys):
        code, _ = run(capsys, "enumerate", "motzkin", "--n", "3", "--frame", "2,1")
        assert code == 2

    def test_negative_k_is_usage_error(self, capsys):
        assert main(["enumerate", "motzkin", "--n", "4", "--k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k must be nonnegative" in captured.err
        # Checked before the cap, as count does.
        assert main(["enumerate", "motzkin", "--n", "100", "--k", "-1"]) == 2

    def test_csv_rows_stream(self, monkeypatch):
        # 208,012 rows: held in a list they would take tens of megabytes.
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["enumerate", "dyck", "--n", "12", "--format", "csv"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 5 * 2**20

    def test_frame_that_cannot_match_walks_nothing(self, capsys, monkeypatch):
        calls = []
        original = cli.frames.frame_of
        monkeypatch.setattr(cli.frames, "frame_of", lambda p: calls.append(p) or original(p))
        # 9,9 is not admissible; 2,1 is, but its length 2 is not 6.
        for frame in ("9,9", "2,1"):
            code, out = run(
                capsys, "enumerate", "dyck", "--n", "3", "--frame", frame, "--format", "json"
            )
            assert code == 0
            assert json.loads(out)["count"] == 0
        assert calls == []
        # The refusal above the Dyck cap still comes before the frame.
        assert run(capsys, "enumerate", "dyck", "--n", "17", "--frame", "9,9") == (3, "")
        assert calls == []
        code, out = run(
            capsys, "enumerate", "dyck", "--n", "1", "--frame", "2,1", "--format", "csv"
        )
        assert (code, out) == (0, "UD\n")
        assert len(calls) == 1

    def test_frame_walks_only_its_class(self, capsys, monkeypatch):
        frame = (5, 8, 6, 2)  # the largest class at n = 10, of C_10 = 16,796 paths
        expected = [p.text for p in enumerate_dyck(10) if cli.frames.frame_of(p).counts == frame]
        calls = []
        original = cli.frames.frame_of
        monkeypatch.setattr(cli.frames, "frame_of", lambda p: calls.append(p) or original(p))
        code, out = run(capsys, "enumerate", "dyck", "--n", "10", "--frame", "5,8,6,2", "--format", "csv")
        assert (code, out.splitlines()) == (0, expected)
        assert len(calls) == cli.counting.frame_cardinality(frame) == 350

    def test_frame_built_once_per_row(self, capsys, monkeypatch):
        calls = []
        original = cli.frames.frame_of
        monkeypatch.setattr(cli.frames, "frame_of", lambda p: calls.append(p) or original(p))
        code, out = run(
            capsys, "enumerate", "dyck", "--n", "10", "--frame", "5,8,6,2", "--with-frame",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert code == 0 and all(line.endswith(",5,8,6,2") for line in lines)
        assert [p.text for p in calls] == [line.split(",")[0] for line in lines]
        assert len(calls) == 350

    def test_frame_classes_at_the_cap_run_fast(self, capsys):
        mountain = ",".join(["2"] * 16 + ["1"])
        start = time.perf_counter()
        code, out = run(capsys, "enumerate", "dyck", "--n", "16", "--frame", mountain, "--format", "csv")
        assert (code, out) == (0, "U" * 16 + "D" * 16 + "\n")
        code, out = run(capsys, "enumerate", "dyck", "--n", "12", "--frame", "3,6,6,3,2,2,2,1")
        assert (code, len(out.splitlines())) == (0, 100)
        assert time.perf_counter() - start < 1.0

    def test_frame_flags_match_brute_force(self, capsys):
        # Every frame with n <= 6, one inadmissible frame of length 6 and
        # one admissible frame of the wrong length, in every format.
        classes = {n: {} for n in range(7)}
        for n in classes:
            for p in enumerate_dyck(n):
                classes[n].setdefault(cli.frames.frame_of(p).counts, []).append(p.text)
        cases = [(n, fr) for n in classes for fr in classes[n]] + [(3, (4, 2, 1)), (3, (2, 1))]
        for n, frame in cases:
            expected = classes[n].get(frame, [])
            text = ",".join(map(str, frame))
            for with_frame in ((), ("--with-frame",)):
                for fmt in ("table", "csv", "json"):
                    code, out = run(
                        capsys, "enumerate", "dyck", "--n", str(n), "--frame", text,
                        *with_frame, "--format", fmt,
                    )
                    assert code == 0, (n, text, fmt)
                    if fmt == "json":
                        doc = json.loads(out)
                        assert (doc["count"], doc["frame"]) == (len(expected), list(frame))
                        rows = [
                            (r["path"], *r["frame"]) if with_frame else (r,) for r in doc["paths"]
                        ]
                    else:
                        sep = "," if fmt == "csv" else "  "
                        rows = [tuple(line.split(sep)) for line in out.splitlines()]
                        rows = [(r[0], *map(int, r[1:])) for r in rows]
                    tail = frame if with_frame else ()
                    assert rows == [(path, *tail) for path in expected], (n, text, fmt)

    @pytest.mark.parametrize(
        "argv, limit",
        [(("--format", "json"), 5 * 2**20), (("--with-frame", "--format", "json"), 10 * 2**20)],
    )
    def test_json_rows_stream(self, monkeypatch, argv, limit):
        # The count prints first, from the closed form, so no row is held.
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["enumerate", "dyck", "--n", "12", *argv])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < limit

    def test_json_streams_byte_for_byte(self, capsys):
        rows = iter([{"path": "UD", "frame": (2, 1)}] * 5000)
        cli._emit("json", {"a": 1, "rows": rows, "b": iter(()), "c": [2]}, [])
        whole = {"a": 1, "rows": [{"path": "UD", "frame": (2, 1)}] * 5000, "b": [], "c": [2]}
        assert capsys.readouterr().out == json.dumps(whole, default=list) + "\n"

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("catalan", ("dyck", "--n", "4")),
            ("frame_cardinality", ("dyck", "--n", "5", "--frame", "3,4,3,1")),
            ("count_motzkin", ("motzkin", "--n", "5")),
            ("count_k_motzkin", ("motzkin", "--n", "5", "--k", "1")),
        ],
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_closed_form_cross_check(self, capsys, monkeypatch, name, argv, fmt):
        original = getattr(cli.counting, name)
        monkeypatch.setattr(cli.counting, name, lambda *a: original(*a) + 1)
        assert main(["enumerate", *argv, "--format", fmt]) == cli.EXIT_VERIFY_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


# A fault in one route of each verify check, planted through the module
# that serves it: the module, the attribute, a wrapper of the original, and
# the checks that fail at --max-n 3, the keyed check among them.
ROUTE_FAULTS = {
    # The frames of half-length 3 lose their first, (2, 2, 2, 1).
    "frame_count_power": (
        cli.frames, "enumerate_frames",
        lambda walk: lambda n, cap=None: itertools.islice(walk(n, cap=cap), int(n == 3), None),
        {"frame_count_power", "frame_set_oracle", "cardinality_sum_catalan"},
    ),
    # The census gives UDUDUD, alone in frame (4, 3), the null frame.
    "frame_set_oracle": (
        cli.frames, "frame_of",
        lambda frame_of: lambda p: cli.frames.NULL_FRAME if p.text == "UDUDUD" else frame_of(p),
        {"frame_set_oracle", "cardinality_oracle", "foot_table_oracle", "canonical_roundtrip"},
    ),
    # C_3 reads 6.
    "cardinality_sum_catalan": (
        cli.counting, "catalan",
        lambda catalan: lambda n: catalan(n) + (n == 3),
        {"cardinality_sum_catalan", "feet_sum_catalan", "colored_dyck_reduction"},
    ),
    # The level-0 row of half-length 3 gains a path with no feet.
    "feet_sum_catalan": (
        cli.counting.FootTable, "row",
        lambda row: lambda table, n, level: tuple(
            v + ((n, level, i) == (3, 0, 0)) for i, v in enumerate(row(table, n, level))
        ),
        {"feet_sum_catalan", "foot_table_oracle"},
    ),
    # Frame (4, 3) gets UUUDDD, whose frame is (2, 2, 2, 1).
    "canonical_roundtrip": (
        cli.frames, "canonical_representative",
        lambda canonical: lambda fr: (
            paths_module.Path("UUUDDD") if fr.counts == (4, 3) else canonical(fr)
        ),
        {"canonical_roundtrip"},
    ),
    # The level-1 walk of length 3 loses its first path.
    "k_motzkin_oracle": (
        paths_module, "enumerate_motzkin",
        lambda walk: lambda n, levels=None, cap=None: itertools.islice(
            walk(n, levels, cap=cap), int(n == 3 and levels == {1}), None
        ),
        {"k_motzkin_oracle"},
    ),
}


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "verify", "--max-n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert all(check["pass"] for check in doc["checks"])

    def test_trivial_run_passes(self, capsys):
        code, _ = run(capsys, "verify", "--max-n", "0", "--format", "csv")
        assert code == 0

    def test_csv_shape(self, capsys):
        code, out = run(capsys, "verify", "--max-n", "3", "--format", "csv")
        assert code == 0
        for line in out.splitlines():
            name, params, expected, actual, status = line.split(",")
            assert status == "1"
            int(expected), int(actual)

    def test_check_families_present(self, capsys):
        code, out = run(capsys, "verify", "--max-n", "3", "--format", "json")
        assert code == 0
        names = {check["name"] for check in json.loads(out)["checks"]}
        assert {
            "frame_count_power",
            "frame_set_oracle",
            "cardinality_oracle",
            "cardinality_sum_catalan",
            "foot_table_oracle",
            "motzkin_oracle",
            "k_motzkin_oracle",
            "decider_agreement",
            "binomial_identity",
            "colored_dyck_frame_sum",
            "colored_motzkin_frame_sum",
            "k_motzkin_foot_table",
        } <= names

    @pytest.mark.parametrize(
        "oracle, checks",
        [
            ("count_by_frames", {"colored_dyck_frame_sum", "colored_motzkin_frame_sum"}),
            ("count_k_motzkin_by_feet", {"k_motzkin_foot_table"}),
            ("count_motzkin", {"motzkin_oracle"}),
            ("count_colored_dyck", {"colored_dyck_reduction", "colored_dyck_frame_sum"}),
            ("frame_cardinality", {"cardinality_oracle", "cardinality_sum_catalan",
                                   "colored_dyck_frame_sum", "colored_motzkin_frame_sum"}),
        ],
    )
    def test_route_checks_use_the_second_route(self, capsys, monkeypatch, oracle, checks):
        original = getattr(cli.counting, oracle)
        monkeypatch.setattr(cli.counting, oracle, lambda *a, **kw: original(*a, **kw) + 1)
        code, out = run(capsys, "verify", "--max-n", "3", "--format", "json")
        assert code == 1
        assert {c["name"] for c in json.loads(out)["checks"] if not c["pass"]} == checks

    @pytest.mark.parametrize(
        "module, name, check",
        [
            ("frames", "is_admissible_trace", "decider_agreement"),
            ("counting", "binomial_identity_check", "binomial_identity"),
            ("frames", "consequences_hold", "consequences_hold"),
        ],
    )
    def test_fact_checks_catch_a_fault(self, capsys, monkeypatch, module, name, check):
        target = getattr(cli, module)
        original = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *a: not original(*a))
        code, out = run(capsys, "verify", "--max-n", "3", "--format", "json")
        assert code == 1
        assert {c["name"] for c in json.loads(out)["checks"] if not c["pass"]} == {check}

    @pytest.mark.parametrize("check", ROUTE_FAULTS)
    def test_a_fault_in_one_route_fails_its_check(self, capsys, monkeypatch, check):
        target, name, fault, checks = ROUTE_FAULTS[check]
        monkeypatch.setattr(target, name, fault(getattr(target, name)))
        code, out = run(capsys, "verify", "--max-n", "3", "--format", "json")
        assert code == 1
        assert {c["name"] for c in json.loads(out)["checks"] if not c["pass"]} == checks

    def test_foot_table_fault_fails_the_census_check(self, capsys, monkeypatch):
        original = cli.counting.FootTable.row

        def faulty(table, half_length, level):
            row = original(table, half_length, level)
            if (half_length, level) == (2, 1):
                return (row[0] + 1, *row[1:])
            return row

        monkeypatch.setattr(cli.counting.FootTable, "row", faulty)
        code, out = run(capsys, "verify", "--max-n", "3", "--format", "json")
        assert code == 1
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
        # At --max-n 3 the foot-table route of k_motzkin_foot_table reads
        # half-lengths up to 1 only, so the census check is the one to fail.
        assert failed == {"foot_table_oracle"}

    def test_colored_reduction_does_not_read_the_dp_twice(self, monkeypatch):
        original = cli.counting.count_colored_motzkin
        monkeypatch.setattr(cli.counting, "count_colored_motzkin", lambda *a: original(*a) + 1)
        report = verify_module.run_verification(3)
        assert "colored_motzkin_reduction" in {c.name for c in report.checks if not c.passed}

    def test_over_cap_is_refused_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(paths_module, "DYCK_ENUMERATION_CAP", 2)
        calls = []
        original = cli.counting.feet_table
        monkeypatch.setattr(
            cli.counting, "feet_table", lambda *a: calls.append(a) or original(*a)
        )
        assert run(capsys, "verify", "--max-n", "3") == (3, "")
        assert calls == []
        assert run(capsys, "verify", "--max-n", "3", "--allow-large")[0] == 0

    def test_size_past_an_index_is_refused_before_any_walk(self, monkeypatch):
        calls = []
        original = paths_module.enumerate_dyck
        monkeypatch.setattr(
            paths_module, "enumerate_dyck", lambda *a, **kw: calls.append(a) or original(*a, **kw)
        )
        with pytest.raises(OverflowError):
            verify_module.run_verification(int(HUGE), cap=None)
        assert calls == []

    def test_negative_and_non_int_max_n_rejected(self):
        for max_n in (-1, 2.5, "3"):
            with pytest.raises(ValueError, match="max_n must be a nonnegative int"):
                verify_module.run_verification(max_n)

    def test_default_cap_is_refused_up_front(self, capsys):
        start = time.perf_counter()
        assert run(capsys, "verify", "--max-n", "17") == (3, "")
        assert time.perf_counter() - start < 0.5

    def test_sweeps_cover_their_domains_once(self):
        flat = itertools.chain.from_iterable
        sequences = list(flat(verify_module._sequences_up_to(3, 5)))
        brute = {
            t
            for length in range(4)
            for t in itertools.product(range(6), repeat=length)
            if sum(t) <= 5
        }
        assert len(sequences) == len(set(sequences)) and set(sequences) == brute
        vectors = list(verify_module._positive_vectors(6))
        brute = {
            t
            for length in range(1, 7)
            for t in itertools.product(range(1, 7), repeat=length)
            if sum(t) <= 6
        }
        assert len(vectors) == len(set(vectors)) and set(vectors) == brute
        # The sizes verify serves at --max-n 8: a faster generator must not
        # shrink a sweep.
        served = Counter(flat(verify_module._sequences_up_to(6, 17)))
        assert len(served) == sum(served.values()) == math.comb(24, 6) == 134_596
        served = Counter(verify_module._positive_vectors(8))
        assert len(served) == sum(served.values()) == 2**8 - 1

    def test_decider_sweep_calls_each_decider_once_per_sequence(self, monkeypatch):
        calls = Counter()
        for name in ("is_admissible_trace", "is_admissible_closed"):
            decider = getattr(cli.frames, name)

            def counted(seq, name=name, decider=decider):
                calls[name] += 1
                return decider(seq)

            monkeypatch.setattr(cli.frames, name, counted)
        assert verify_module.run_verification(8).ok
        assert calls == {"is_admissible_trace": 134_596, "is_admissible_closed": 134_596}

    def test_decider_sweep_streams_its_batches(self):
        # Listing the 134,596 tuples takes about 12 MB; the tail table and
        # one batch peak near 0.36 MB.
        tracemalloc.start()
        try:
            for _ in verify_module._sequences_up_to(6, 17):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_injected_fault_fails(self, capsys, monkeypatch):
        original = cli.counting.catalan
        monkeypatch.setattr(cli.counting, "catalan", lambda n: original(n) + (n == 2))
        code, out = run(capsys, "verify", "--max-n", "3", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["failed"] >= 1


# Every cap the command line applies: where it is read, a value to shrink
# it to, and an argv that the shrunk cap refuses.
CLI_CAPS = {
    "feet-table": (cli.counting, "FOOT_TABLE_TERM_CAP", 10,
                   ("feet-table", "--max", "3", "--level", "1")),
    "frame": (cli.counting, "CATALAN_CAP", 2, ("frame", "3,4,3,1")),
    "count-dyck": (cli.counting, "CATALAN_CAP", 2, ("count", "dyck", "--n", "5")),
    "count-dp": (cli.counting, "TRANSFER_CELL_CAP", 10, ("count", "motzkin", "--n", "6")),
    "enumerate-dyck": (paths_module, "DYCK_ENUMERATION_CAP", 2, ("enumerate", "dyck", "--n", "3")),
    "enumerate-motzkin": (paths_module, "MOTZKIN_ENUMERATION_CAP", 2,
                          ("enumerate", "motzkin", "--n", "3")),
    "verify": (paths_module, "DYCK_ENUMERATION_CAP", 2, ("verify", "--max-n", "3")),
}


class TestHarness:
    @pytest.mark.parametrize(
        "argv, first",
        [
            (("enumerate", "motzkin", "--n", "12"), b"UUUUUUDDDDDD\n"),
            (("feet-table", "--max", "60"), b"steps "),
        ],
        ids=["enumerate", "feet-table"],
    )
    def test_closed_stdout_exits_1_without_a_traceback(self, argv, first):
        # Both outputs are longer than a pipe buffer, so the writer is still
        # writing when the reader closes its end.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        command = [sys.executable, "-m", "dyckframes", *argv]
        with subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            line = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert line.startswith(first)
        assert (code, err) == (1, b"")

    def test_closed_pipe_on_stdout_is_pointed_at_devnull(self, capsys, monkeypatch):
        real_open, opened = os.open, []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:  # closing it flushes into devnull
            monkeypatch.setattr(sys, "stdout", pipe)
            monkeypatch.setattr(os, "open", recording_open)
            assert main(["enumerate", "motzkin", "--n", "12"]) == 1
            monkeypatch.undo()
            assert opened  # main opened devnull, and closed it after dup2
            for fd in opened:
                with pytest.raises(OSError):
                    os.fstat(fd)
        assert capsys.readouterr().err == ""

    def test_closed_stdout_without_a_descriptor_exits_1(self, capsys, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["frame", "3,4,3,1"]) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("count", "dyck", "--n", "3", "--colors-h", "1"),
             "horizontal colors do not apply to kind dyck"),
            (("count", "k-motzkin", "--n", "3", "--k", "0", "--colors-h", "0"),
             "horizontal color count must be at least 1"),
            (("enumerate", "dyck", "--n", "3", "--k", "1"), "--k only applies to kind motzkin"),
        ],
        ids=["count-dyck-colors-h", "k-motzkin-no-colors", "enumerate-dyck-k"],
    )
    def test_flags_that_do_not_apply_are_usage_errors(self, capsys, argv, message):
        assert main(list(argv)) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("name", CLI_CAPS)
    def test_every_cap_lifts_by_flag(self, capsys, monkeypatch, name):
        module, attr, cap, argv = CLI_CAPS[name]
        monkeypatch.setattr(module, attr, cap)
        assert main(list(argv)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith(f" exceeds the cap of {cap}\n")
        code, lifted = run(capsys, *argv, "--allow-large")
        assert code == 0 and lifted
        # The flag is the only way: DYCKFRAMES_ALLOW_LARGE=1 lifts nothing.
        monkeypatch.setenv("DYCKFRAMES_ALLOW_LARGE", "1")
        assert main(list(argv)) == 3
        assert capsys.readouterr() == captured

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "motzkin", "--n", HUGE),
            ("count", "dyck", "--n", HUGE, "--colors-u", "2"),
            ("count", "k-motzkin", "--n", HUGE, "--k", "1"),
            ("feet-table", "--max", HUGE),
            ("frame", f"{HUGE},{int(HUGE) - 1}"),
            ("verify", "--max-n", HUGE),
        ],
        ids=lambda argv: argv[0] if argv[0] != "count" else f"count-{argv[1]}",
    )
    def test_sizes_too_large_to_represent_are_resource_limits(self, capsys, argv):
        start = time.perf_counter()
        code = main([*argv, "--allow-large"])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_out_of_memory_is_a_resource_limit(self, capsys, monkeypatch):
        # An n that fits an index but not in memory; the vectors are not
        # built for real, only their MemoryError is raised.
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli.counting, "k_motzkin_colors", out_of_memory)
        code = main(["count", "k-motzkin", "--n", "1000000000000", "--k", "1", "--allow-large"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_json_is_single_document(self, capsys):
        for argv in (
            ["feet-table", "--max", "3", "--format", "json"],
            ["frame", "2,2,1", "--format", "json"],
            ["count", "dyck", "--n", "4", "--format", "json"],
            ["enumerate", "dyck", "--n", "3", "--format", "json"],
            ["verify", "--max-n", "2", "--format", "json"],
        ):
            code, out = run(capsys, *argv)
            assert code == 0
            json.loads(out)

    def test_byte_identical_reruns(self, capsys):
        for argv in (
            ["feet-table", "--max", "5", "--level", "1", "--format", "json"],
            ["verify", "--max-n", "3", "--format", "csv"],
            ["enumerate", "dyck", "--n", "4", "--with-frame", "--format", "table"],
        ):
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second


# Small invocations of all five commands; each runs in every format.
GOLDEN_ARGV = [
    ("feet-table", "--max", "0"),
    ("feet-table", "--max", "4", "--level", "0"),
    ("feet-table", "--max", "3", "--level", "2"),
    ("feet-table", "--max", "7", "--level", "1"),
    ("frame", "1"),
    ("frame", "3,4,3,1"),
    ("frame", "2,1,0,0"),
    ("frame", "3,6,6,3,1"),
    ("frame", "4,5,2,3,1"),
    ("frame", "3,x,1"),
    ("count", "dyck", "--n", "0"),
    ("count", "dyck", "--n", "7"),
    ("count", "dyck", "--n", "3", "--colors-u", "2,1,3"),
    ("count", "dyck", "--n", "3", "--colors-u", "2,0,3", "--colors-d", "1,2,2"),
    ("count", "motzkin", "--n", "6"),
    ("count", "motzkin", "--n", "6", "--colors-h", "0,1,2,3"),
    ("count", "motzkin", "--n", "5", "--colors-h", "2,1,1", "--colors-u", "1,3",
     "--colors-d", "2,1"),
    ("count", "k-motzkin", "--n", "5", "--k", "1"),
    ("count", "k-motzkin", "--n", "5", "--k", "0", "--colors-h", "2"),
    ("count", "dyck", "--n", "3", "--k", "1"),
    ("enumerate", "dyck", "--n", "0"),
    ("enumerate", "dyck", "--n", "3"),
    ("enumerate", "dyck", "--n", "4", "--with-frame"),
    ("enumerate", "dyck", "--n", "5", "--frame", "3,4,3,1"),
    ("enumerate", "dyck", "--n", "5", "--frame", "3,4,3,1", "--with-frame"),
    ("enumerate", "dyck", "--n", "4", "--frame", "4,5,2,3,1"),
    ("enumerate", "motzkin", "--n", "4"),
    ("enumerate", "motzkin", "--n", "5", "--k", "1"),
    ("enumerate", "motzkin", "--n", "3", "--with-frame"),
    ("verify", "--max-n", "0"),
    ("verify", "--max-n", "3"),
    ("verify", "--max-n", "8"),
]
GOLDEN_CASES = [
    [*argv, "--format", fmt] for argv in GOLDEN_ARGV for fmt in ("table", "csv", "json")
]
CLI_GOLDEN = GOLDEN_DIR / "cli_outputs.json"


def _golden_run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def cli_golden() -> dict[tuple[str, ...], dict]:
    if os.environ.get("DYCKFRAMES_REGEN_GOLDEN") == "1":
        cases = [_golden_run(argv) for argv in GOLDEN_CASES]
        CLI_GOLDEN.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")
    return {tuple(case["argv"]): case for case in json.loads(CLI_GOLDEN.read_text())}


@pytest.mark.parametrize("argv", GOLDEN_CASES, ids=" ".join)
def test_output_matches_cli_golden(cli_golden, argv):
    assert _golden_run(argv) == cli_golden[tuple(argv)]


def _entries(values: list[int]) -> str:
    return ",".join(str(v) for v in values)


_small = st.integers(-1, 7).map(str)
# Random entries are rarely admissible, so known frames are drawn too.
_frame_text = st.lists(st.integers(0, 5), min_size=1, max_size=5).map(_entries) | st.sampled_from(
    ["1", "2,1", "3,2", "2,2,1", "4,3", "3,3,1", "3,4,3,1", "2,3,3,1", "2,0,0",
     "", "x", "-1", "1,,2", "\u0663"]
)
_colors = st.lists(st.integers(0, 3), max_size=5).map(_entries)


@st.composite
def cli_argv(draw) -> list[str]:
    """A small invocation of one of the five subcommands, sometimes malformed."""
    command = draw(st.sampled_from(["feet-table", "frame", "count", "enumerate", "verify"]))
    argv = [command]
    if command == "feet-table":
        argv += ["--max", draw(_small), "--level", draw(_small)]
    elif command == "frame":
        argv.append(draw(_frame_text))
    elif command == "count":
        argv += [draw(st.sampled_from(["dyck", "motzkin", "k-motzkin"])), "--n", draw(_small)]
        for flag in ("--k", "--colors-h", "--colors-u", "--colors-d"):
            if draw(st.integers(0, 3)) == 0:
                argv += [flag, draw(_small if flag == "--k" else _colors)]
    elif command == "enumerate":
        argv += [draw(st.sampled_from(["dyck", "motzkin"])), "--n", draw(_small)]
        if draw(st.booleans()):
            argv += ["--k", draw(_small)]
        if draw(st.booleans()):
            argv += ["--frame", draw(_frame_text)]
        if draw(st.booleans()):
            argv.append("--with-frame")
    else:
        argv += ["--max-n", draw(st.integers(-1, 3).map(str))]
    argv += ["--format", draw(st.sampled_from(["table", "csv", "json"]))]
    if draw(st.booleans()):
        argv.append("--allow-large")
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "7", "--n", "--format"])))
    return argv


@given(cli_argv())
@settings(max_examples=200, deadline=None)
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0 and argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue())
