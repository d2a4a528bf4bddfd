"""Size arguments: one guard in the library, one check of the CLI flags.

Every public size argument raises ValueError "<name> must be a
nonnegative int" at the call for a negative, a float, a str or a bool; the
calls are never iterated, so a lost guard fails rather than hangs.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from dyckframes import cli
from dyckframes.cli import main
from dyckframes.counting import (
    ColorSpec,
    FootTable,
    binomial_identity_check,
    catalan,
    count_by_frames,
    count_colored_dyck,
    count_colored_motzkin,
    count_k_motzkin,
    count_k_motzkin_by_feet,
    count_motzkin,
    k_motzkin_colors,
    weak_compositions,
)
from dyckframes.frames import (
    Frame,
    enumerate_frames,
    is_admissible_closed,
    is_admissible_trace,
)
from dyckframes.paths import NULL_PATH, enumerate_dyck, enumerate_motzkin, foot_count
from dyckframes.verify import run_verification

SRC = Path(__file__).parent.parent / "src" / "dyckframes"
SPEC = ColorSpec((1,) * 5, (1,) * 4, (1,) * 4)
BAD_SIZES = (-1, 2.5, "3", True)

# (call site, argument name, call with the bad value in that argument)
SIZE_ARGUMENTS = (
    ("paths.foot_count", "level", lambda v: foot_count(NULL_PATH, v)),
    ("enumerate_dyck", "half_length", enumerate_dyck),
    ("enumerate_motzkin", "length", enumerate_motzkin),
    ("enumerate_frames", "half_length", enumerate_frames),
    ("Frame.foot_count", "level", Frame((3, 4, 3, 1)).foot_count),
    ("run_verification", "max_n", run_verification),
    ("catalan", "n", catalan),
    ("FootTable", "max_half_length", FootTable),
    ("FootTable.row", "half_length", lambda v: FootTable(2).row(v, 1)),
    ("FootTable.row", "level", lambda v: FootTable(2).row(1, v)),
    ("FootTable.count", "half_length", lambda v: FootTable(2).count(v, 1, 1)),
    ("FootTable.count", "level", lambda v: FootTable(2).count(1, v, 1)),
    ("FootTable.count", "feet", lambda v: FootTable(2).count(1, 1, v)),
    ("count_motzkin", "n", count_motzkin),
    ("count_colored_dyck", "n", lambda v: count_colored_dyck(v, SPEC)),
    ("count_colored_motzkin", "n", lambda v: count_colored_motzkin(v, SPEC)),
    ("count_by_frames", "n", lambda v: count_by_frames(v, SPEC)),
    ("k_motzkin_colors", "n", lambda v: k_motzkin_colors(v, 0)),
    ("k_motzkin_colors", "k", lambda v: k_motzkin_colors(3, v)),
    ("k_motzkin_colors", "r", lambda v: k_motzkin_colors(3, 0, v)),
    ("count_k_motzkin", "n", lambda v: count_k_motzkin(v, 0)),
    ("count_k_motzkin", "k", lambda v: count_k_motzkin(3, v)),
    ("count_k_motzkin", "r", lambda v: count_k_motzkin(3, 0, v)),
    ("count_k_motzkin_by_feet", "n", lambda v: count_k_motzkin_by_feet(v, 0)),
    ("count_k_motzkin_by_feet", "k", lambda v: count_k_motzkin_by_feet(3, v)),
    ("count_k_motzkin_by_feet", "r", lambda v: count_k_motzkin_by_feet(3, 0, v)),
    ("weak_compositions", "total", lambda v: weak_compositions(v, 2)),
    ("weak_compositions", "parts", lambda v: weak_compositions(2, v)),
    ("binomial_identity_check", "m", lambda v: binomial_identity_check(v, (1, 2))),
)


@pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
@pytest.mark.parametrize(
    "name, call", [(name, call) for _, name, call in SIZE_ARGUMENTS],
    ids=[f"{site}-{name}" for site, name, _ in SIZE_ARGUMENTS],
)
def test_bad_size_names_its_argument(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative int$"):
        call(bad)


# bool is a subclass of int, so an isinstance check would let these through.
@pytest.mark.parametrize(
    "call",
    [
        lambda: ColorSpec(u=(True,), d=(1,)),
        lambda: binomial_identity_check(2, (True,)),
        lambda: Frame((2, True)),
        lambda: Frame((2, 1, False)),
    ],
    ids=["ColorSpec", "binomial_identity_check", "Frame-True", "Frame-trailing-False"],
)
def test_bool_is_not_a_count(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("counts", [(True,), (2, True), (2, 1, False)], ids=repr)
def test_deciders_refuse_bool_entries(counts):
    assert not is_admissible_closed(counts)
    assert not is_admissible_trace(counts)


@pytest.mark.parametrize("count", [count_k_motzkin, count_k_motzkin_by_feet])
def test_k_motzkin_pair_refuses_no_colors(count):
    with pytest.raises(ValueError, match="^r must be at least 1$"):
        count(3, 0, 0)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["feet-table", "--max", "-1"], "--max"),
        (["feet-table", "--max", "3", "--level", "-1"], "--level"),
        (["count", "dyck", "--n", "-1"], "--n"),
        (["count", "dyck", "--n", "3", "--k", "-1"], "--k"),
        (["count", "k-motzkin", "--n", "3", "--k", "-2"], "--k"),
        (["count", "motzkin", "--n", "-5", "--colors-h", "x"], "--n"),
        (["enumerate", "dyck", "--n", "-1"], "--n"),
        (["enumerate", "dyck", "--n", "3", "--k", "-1"], "--k"),
        (["enumerate", "motzkin", "--n", "3", "--k", "-1", "--with-frame"], "--k"),
        (["verify", "--max-n", "-1"], "--max-n"),
    ],
)
def test_main_checks_every_size_flag_before_the_handler(capsys, monkeypatch, argv, flag):
    def handler(args):
        raise AssertionError("a handler ran on a negative size flag")

    for name in ("cmd_feet_table", "cmd_count", "cmd_enumerate", "cmd_verify"):
        monkeypatch.setattr(cli, name, handler)
    assert main([*argv, "--format", "json"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be nonnegative\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["count", "dyck", "--n", "\u0661\u0662"], "--n"),
        (["count", "dyck", "--n", "1_2"], "--n"),
        (["count", "dyck", "--n", "+3"], "--n"),
        (["feet-table", "--max", "x"], "--max"),
    ],
    ids=["arabic-indic", "underscore", "plus", "letter"],
)
def test_size_flags_take_ascii_digits_only(capsys, argv, flag):
    # Frame entries and color counts are read by the same rule.
    assert main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


def test_size_past_the_int_digit_limit_meets_its_cap(capsys):
    assert main(["count", "dyck", "--n", "9" * 5000]) == cli.EXIT_RESOURCE_LIMIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(f" exceeds the cap of {cli.counting.CATALAN_CAP}\n")


def test_each_size_message_has_one_owner():
    # A guard copied by hand into another module fails here.
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    scalar = {name for name, text in texts.items() if "must be a nonnegative int" in text}
    assert scalar == {"errors.py"}
    flag = re.compile(r"must be nonnegative(?! int)")
    flags = {name: len(flag.findall(text)) for name, text in texts.items() if flag.search(text)}
    assert flags == {"cli.py": 1}
