"""Path parsing, rendering, and the brute-force enumerators.

The enumerators are the oracle for the whole package, so they are
checked here against an even dumber oracle: filtering every string over
the step alphabet.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product

import pytest

from dyckframes import (
    NULL_PATH,
    MalformedPath,
    Path,
    ResourceLimit,
    enumerate_dyck,
    enumerate_motzkin,
    foot_count,
    glue,
    level_sequence,
    lift,
    parse_path,
)
from dyckframes import paths as paths_module
from dyckframes.cli import main
from dyckframes.counting import count_k_motzkin

TAIL = paths_module._TAIL_STEPS


def catalan_closed(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def is_valid_path_text(text: str) -> bool:
    level = 0
    for ch in text:
        level += {"U": 1, "D": -1, "H": 0}[ch]
        if level < 0:
            return False
    return level == 0


def brute_force_dyck(n: int) -> set[str]:
    return {
        "".join(chars)
        for chars in product("UD", repeat=2 * n)
        if is_valid_path_text("".join(chars))
    }


@cache
def valid_texts(n: int) -> tuple[str, ...]:
    """Every path text of length n, in U < D < H order: the order in which
    itertools.product yields the strings over "UDH"."""
    texts = map("".join, product("UDH", repeat=n))
    return tuple(text for text in texts if is_valid_path_text(text))


def flats_only_at(text: str, levels) -> bool:
    height = 0
    for ch in text:
        if ch == "H" and levels is not None and height not in levels:
            return False
        height += 1 if ch == "U" else -1 if ch == "D" else 0
    return True


def brute_force_motzkin(n: int, levels: set[int] | None) -> set[str]:
    return {text for text in valid_texts(n) if flats_only_at(text, levels)}


class TestParse:
    def test_two_step_path(self):
        path = parse_path("UD")
        assert path.text == "UD"
        assert len(path) == 2
        assert path.is_dyck

    def test_empty_text_is_null_path(self):
        assert parse_path("") == NULL_PATH
        assert len(NULL_PATH) == 0

    def test_below_axis_rejected(self):
        with pytest.raises(MalformedPath):
            parse_path("DU")

    def test_unbalanced_rejected(self):
        with pytest.raises(MalformedPath):
            parse_path("UU")
        with pytest.raises(MalformedPath):
            parse_path("UDD")

    def test_illegal_character_rejected(self):
        with pytest.raises(MalformedPath):
            parse_path("UXDD")

    def test_motzkin_text(self):
        assert parse_path("HUHDH").text == "HUHDH"

    def test_non_str_text_rejected(self):
        # A tuple or list of steps would build a Path unequal to the str
        # one, and a list one that cannot be hashed.
        for text in (("U", "D"), ["U", "D"], b"UD", None):
            with pytest.raises(MalformedPath):
                Path(text)


class TestLevelSequence:
    def test_fourteen_step_example(self):
        path = parse_path("UUDUUDDUUDUDDD")
        assert level_sequence(path) == tuple(int(c) for c in "012123212323210")

    def test_null_path(self):
        assert level_sequence(NULL_PATH) == (0,)

    def test_single_peak(self):
        assert level_sequence(parse_path("UD")) == (0, 1, 0)


class TestFootCount:
    def test_fourteen_step_example(self):
        path = parse_path("UUDUUDDUUDUDDD")
        assert foot_count(path, 0) == 2
        assert foot_count(path, 1) == 4
        assert foot_count(path, 2) == 6
        assert foot_count(path, 3) == 3
        assert foot_count(path, 7) == 0

    def test_single_peak_at_ground(self):
        assert foot_count(parse_path("UD"), 0) == 2

    def test_negative_level_rejected(self):
        for level in (-1, 0.5, "1"):
            with pytest.raises(ValueError):
                foot_count(NULL_PATH, level)


class TestLiftGlue:
    def test_lift_null(self):
        assert lift(NULL_PATH).text == "UD"

    def test_lift_examples(self):
        assert lift(parse_path("UD")).text == "UUDD"
        assert lift(parse_path("UDUD")).text == "UUDUDD"

    def test_glue_examples(self):
        assert glue(parse_path("UD"), parse_path("UUDD")).text == "UDUUDD"
        assert glue(parse_path("UUDD"), parse_path("UD")).text == "UUDDUD"

    def test_glue_identity_and_associativity(self):
        p, q, r = parse_path("UD"), parse_path("UUDD"), parse_path("UDUD")
        assert glue(NULL_PATH, p) == p
        assert glue(p, NULL_PATH) == p
        assert glue(glue(p, q), r) == glue(p, glue(q, r))


class TestEnumerateDyck:
    def test_null_case(self):
        assert list(enumerate_dyck(0)) == [NULL_PATH]

    def test_five_paths_of_length_six(self):
        assert sum(1 for _ in enumerate_dyck(3)) == 5

    def test_counts_match_closed_form(self):
        for n in range(9):
            assert sum(1 for _ in enumerate_dyck(n)) == catalan_closed(n)

    def test_order_is_lexicographic_u_before_d(self):
        texts = [p.text for p in enumerate_dyck(3)]
        assert texts == ["UUUDDD", "UUDUDD", "UUDDUD", "UDUUDD", "UDUDUD"]
        key = {"U": 0, "D": 1}
        assert texts == sorted(texts, key=lambda t: [key[c] for c in t])

    def test_matches_brute_force_filter(self):
        for n in range(7):
            assert {p.text for p in enumerate_dyck(n)} == brute_force_dyck(n)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            enumerate_dyck(17)
        first = next(enumerate_dyck(17, cap=None))
        assert first.text == "U" * 17 + "D" * 17

    def test_deep_walk_needs_no_recursion(self):
        assert next(enumerate_dyck(600, cap=None)).text == "U" * 600 + "D" * 600

    def test_negative_rejected(self):
        for n in (-1, 2.5, "3"):
            with pytest.raises(ValueError):
                enumerate_dyck(n)


class TestEnumerateMotzkin:
    def test_nine_paths_of_length_four(self):
        assert sum(1 for _ in enumerate_motzkin(4)) == 9

    def test_negative_and_non_int_rejected(self):
        for n in (-1, 2.5, "3"):
            with pytest.raises(ValueError):
                enumerate_motzkin(n)

    def test_ground_level_only_length_three(self):
        texts = [p.text for p in enumerate_motzkin(3, {0})]
        assert texts == ["UDH", "HUD", "HHH"]

    def test_no_horizontal_allowed(self):
        assert list(enumerate_motzkin(1, set())) == []
        dyck_only = {p.text for p in enumerate_motzkin(4, set())}
        assert dyck_only == {p.text for p in enumerate_dyck(2)}

    def test_matches_brute_force_filter(self):
        for n in range(7):
            assert {p.text for p in enumerate_motzkin(n)} == brute_force_motzkin(n, None)
        for n in range(6):
            for levels in ({0}, {1}, {0, 2}):
                got = {p.text for p in enumerate_motzkin(n, levels)}
                assert got == brute_force_motzkin(n, levels)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            enumerate_motzkin(15)
        assert next(enumerate_motzkin(15, cap=None)) is not None

    def test_deep_walk_needs_no_recursion(self):
        assert next(enumerate_motzkin(2000, cap=None)).text == "U" * 1000 + "D" * 1000

    def test_order_is_lexicographic_u_d_h(self):
        key = {"U": 0, "D": 1, "H": 2}
        for n in range(8):
            for levels in (None, {0}, {1}, {0, 2}):
                texts = [p.text for p in enumerate_motzkin(n, levels)]
                expected = brute_force_motzkin(n, levels)
                assert texts == sorted(expected, key=lambda t: [key[c] for c in t])


class TestWalker:
    """_paths walks the head of each path and finishes it from a table of
    the last TAIL steps, so lengths up to TAIL are the table alone and
    longer ones a head plus the table."""

    @pytest.mark.parametrize("levels", [None, (), {0}, {1}, {0, 2}])
    def test_matches_the_filtered_strings_in_order(self, levels):
        allowed = None if levels is None else frozenset(levels)
        for n in range(TAIL + 4):
            expected = [text for text in valid_texts(n) if flats_only_at(text, levels)]
            assert list(paths_module._paths(n, allowed)) == expected, n

    @pytest.mark.parametrize("levels", [None, (), {0}, {1}, {0, 2}])
    def test_enumerators_wrap_the_words_in_paths(self, levels):
        allowed = None if levels is None else frozenset(levels)
        for n in range(TAIL + 4):
            expected = [Path(word) for word in paths_module._paths(n, allowed)]
            assert list(enumerate_motzkin(n, levels, cap=None)) == expected, n
            if levels == () and n % 2 == 0:
                assert list(enumerate_dyck(n // 2)) == expected, n

def test_enumerated_paths_round_trip():
    for n in range(6):
        for path in enumerate_dyck(n):
            assert parse_path(path.text) == path
    for n in range(6):
        for path in enumerate_motzkin(n):
            assert parse_path(path.text) == path


def test_total_feet_is_step_count_plus_one():
    for n in range(7):
        for path in enumerate_dyck(n):
            top = max(path.levels())
            assert sum(foot_count(path, s) for s in range(top + 1)) == 2 * n + 1


class TestTrustedConstruction:
    """The enumerators build each path valid by construction and do not
    walk it again; the public validator must accept every one."""

    @pytest.mark.parametrize("n", range(11))
    def test_enumerated_dyck_paths_validate(self, n):
        for path in enumerate_dyck(n):
            assert Path(path.text) == path

    @pytest.mark.parametrize("levels", [None, (), {0}, {1}, {2}, {3}])
    def test_enumerated_motzkin_paths_validate(self, levels):
        for n in range(11):
            for path in enumerate_motzkin(n, levels):
                assert Path(path.text) == path

    @pytest.mark.parametrize("n, level", [(2 * TAIL + 1, 0), (2 * TAIL + 2, TAIL + 1)])
    def test_long_walks_with_restricted_flats_validate(self, n, level):
        # A head longer than the tail can end higher than the table reaches
        # when a guard lets level 0 go out of reach; Dyck paths cannot, by
        # parity, so the flats are what find it.
        walked = 0
        for path in enumerate_motzkin(n, {level}, cap=None):
            assert Path(path.text) == path
            walked += 1
        assert walked == count_k_motzkin(n, level)

    def test_enumerate_walks_no_path_twice(self, capsys, monkeypatch):
        calls = []
        original = paths_module._walk
        monkeypatch.setattr(paths_module, "_walk", lambda text: calls.append(text) or original(text))
        for argv in (("dyck", "--n", "8", "--with-frame"), ("motzkin", "--n", "8")):
            assert main(["enumerate", *argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out.count("\n") == 1430 + 323
        assert calls == []
        parse_path("UD")  # the public constructor still walks its text
        assert calls == ["UD"]
