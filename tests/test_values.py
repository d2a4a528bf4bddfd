"""The package's immutable value types: Path, Frame, ColorSpec, VerifyCheck
and VerifyReport.

Each keeps the behaviour of the frozen dataclass it replaced: fields
cannot be assigned or deleted, repr, equality and hash are those of the
field tuple, and pickle and copy round-trip through the constructor.
The dataclass each one was is rebuilt here as the reference.  The
package's public names, served lazily, and the modules each command
runs are pinned here too.
"""

from __future__ import annotations

import copy
import importlib
import os
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from pathlib import Path as FilePath

import pytest

import dyckframes
from dyckframes import ColorSpec, Frame, MalformedPath, NotAdmissible, Path
from dyckframes.frames import _trusted_frame, trim
from dyckframes.paths import _trusted
from dyckframes.verify import VerifyCheck, VerifyReport

SRC = FilePath(__file__).resolve().parent.parent / "src"

CHECK = VerifyCheck("catalan", "n=3", 5, 5)
FIELDS = {
    Path: ("text",),
    Frame: ("counts",),
    ColorSpec: ("h", "u", "d"),
    VerifyCheck: ("name", "params", "expected", "actual"),
    VerifyReport: ("max_n", "checks"),
}
# Two unequal values of each type.
VALUES = {
    Path: (Path("UUDD"), Path("UDUD")),
    Frame: (Frame((3, 3, 1)), Frame((5, 8, 7, 3))),
    ColorSpec: (ColorSpec(u=(2, 1), d=(1, 1)), ColorSpec(h=(1,), u=(2, 1), d=(1, 1))),
    VerifyCheck: (CHECK, VerifyCheck("catalan", "n=3", 5, 6)),
    VerifyReport: (VerifyReport(3, (CHECK,)), VerifyReport(3, ())),
}
TYPES = tuple(FIELDS)


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def as_dataclass(value):
    """The value as an instance of the frozen dataclass its type used to be."""
    cls = type(value)
    reference = make_dataclass(cls.__name__, FIELDS[cls], frozen=True)
    return reference(*fields(value))


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestFrozen:
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        value = VALUES[cls][0]
        before = fields(value)
        for name in (*FIELDS[cls], "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert fields(value) == before

    def test_repr_eq_and_hash_match_the_dataclass(self, cls):
        first, second = VALUES[cls]
        for value in (first, second):
            old = as_dataclass(value)
            assert repr(value) == repr(old)
            assert hash(value) == hash(old)
            twin = cls(*fields(value))
            assert twin is not value
            assert twin == value and not twin != value and hash(twin) == hash(value)
            # Equal only to values of the same class, as a dataclass is.
            assert value != old and value != fields(value)
        assert first != second
        assert len({first, second, cls(*fields(first))}) == 2

    def test_pickle_and_copy_round_trip(self, cls):
        for value in VALUES[cls]:
            for clone in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                assert type(clone) is cls
                assert clone == value and hash(clone) == hash(value)

    def test_fields_match_positionally(self, cls):
        assert cls.__match_args__ == FIELDS[cls]


def test_class_pattern_binds_fields():
    match VALUES[ColorSpec][1]:
        case ColorSpec(h, u, d):
            assert (h, u, d) == ((1,), (2, 1), (1, 1))
        case _:
            pytest.fail("no positional match")


def test_reprs_spelled_out():
    assert repr(Path("UD")) == "Path(text='UD')"
    assert repr(Frame((2, 1, 0))) == "Frame(counts=(2, 1))"
    assert repr(ColorSpec(u=[2])) == "ColorSpec(h=(), u=(2,), d=())"
    assert repr(VerifyReport(0, ())) == "VerifyReport(max_n=0, checks=())"


def test_unpickling_validates_path_and_frame_again():
    # Values built without a check, as only the package's own walkers may.
    for bad, error in ((_trusted("DU"), MalformedPath), (_trusted_frame((2, 2)), NotAdmissible)):
        data = pickle.dumps(bad)
        with pytest.raises(error):
            pickle.loads(data)
        with pytest.raises(error):
            copy.deepcopy(bad)


def test_constructors_keep_their_defaults_and_keywords():
    assert Path() == Path(text="") and Path().text == ""
    assert ColorSpec() == ColorSpec(h=(), u=(), d=())
    assert Frame(counts=[1, 0]) == Frame((1,))
    assert VerifyCheck(name="a", params="b", expected=1, actual=2) == VerifyCheck("a", "b", 1, 2)
    assert VerifyReport(max_n=1, checks=()) == VerifyReport(1, ())


class TestTrimFastPath:
    def test_tuple_without_trailing_zero_comes_back_as_is(self):
        counts = (3, 3, 1)
        assert trim(counts) is counts

    def test_trailing_zeros_still_trimmed(self):
        assert trim((2, 1, 0, 0)) == (2, 1)
        assert trim((0, 0)) == ()
        assert trim(()) == ()

    def test_other_sequences_become_tuples(self):
        class Counts(tuple):
            pass

        for seq in ([2, 1], Counts((2, 1)), iter((2, 1, 0))):
            result = trim(seq)
            assert type(result) is tuple and result == (2, 1)


def _fresh_python(probe: str) -> str:
    """The last line that probe prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


# The package's modules whose code runs on importing dyckframes.cli, and
# then on each command.  A lazy module (frames, paths) is in sys.modules
# from the start as an instance of a subclass of ModuleType, and becomes a
# plain module once its code has run, so the probe reads the exact type.
SERVING = ["dyckframes", "dyckframes.cli", "dyckframes.counting", "dyckframes.errors"]
EVERY_LAYER = sorted([*SERVING, "dyckframes.frames", "dyckframes.paths"])
EXECUTED = {
    "import": (None, SERVING),
    "count": (["count", "motzkin", "--n", "7", "--colors-h", "1,2,1,2"], SERVING),
    "frame": (["frame", "6,11,7,1"], EVERY_LAYER),
    "enumerate": (["enumerate", "dyck", "--n", "3", "--with-frame"], EVERY_LAYER),
    "enumerate-paths": (["enumerate", "motzkin", "--n", "3"],
                        sorted([*SERVING, "dyckframes.paths"])),
    "feet-table": (["feet-table", "--max", "3", "--level", "1"], SERVING),
    "verify": (["verify", "--max-n", "1"], sorted([*EVERY_LAYER, "dyckframes.verify"])),
}


def _executed(argv: list[str] | None) -> list[str]:
    """The package's modules whose code has run, in a fresh interpreter,
    after importing dyckframes.cli and then, unless argv is None, running
    main(argv), which must exit 0."""
    run = "" if argv is None else f"assert main({argv!r}) == 0; "
    probe = (
        f"import sys, types; from dyckframes.cli import main; {run}"
        "print(*sorted(name for name, module in sys.modules.items() "
        "if name.partition('.')[0] == 'dyckframes' and type(module) is types.ModuleType))"
    )
    return _fresh_python(probe).split()


def test_cli_import_loads_neither_dataclasses_json_nor_verify():
    probe = (
        "import sys; before = set(sys.modules); import dyckframes.cli; "
        "print(sorted({'dataclasses', 'json', 'dyckframes.verify'} & (set(sys.modules) - before)))"
    )
    assert _fresh_python(probe) == "[]"
    assert _executed(None) == EXECUTED["import"][1]


@pytest.mark.parametrize("command", [entry for entry in EXECUTED if entry != "import"])
def test_only_verify_loads_the_verify_module(command):
    """Each command runs the modules EXECUTED names for it and no other:
    verify alone loads verify, count and feet-table run neither frames nor
    paths, and enumerate runs frames only for the frame of a path."""
    argv, layers = EXECUTED[command]
    assert _executed(argv) == layers


def test_cli_serves_run_verification_from_verify_uncached():
    import dyckframes.cli as cli
    from dyckframes import verify

    assert cli.run_verification is verify.run_verification
    assert "run_verification" not in vars(cli)


def test_cli_has_no_other_lazy_name():
    import dyckframes.cli as cli

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cli.no_such_name


# The package's public names and the module each comes from, as they were
# when every layer was imported eagerly.
PUBLIC = {
    "counting": "ColorSpec FootTable binomial binomial_identity_check catalan count_colored_dyck "
    "count_colored_motzkin count_k_motzkin count_motzkin feet_level0 feet_table "
    "frame_cardinality weak_compositions",
    "errors": "DyckFramesError MalformedPath NotAdmissible NotDyck NotLifted ResourceLimit "
    "Underflow",
    "frames": "FRAME_ENUMERATION_CAP Frame NULL_FRAME RawSequence canonical_representative "
    "consequences_hold ensure_frame enumerate_frames extend_frame frame_length frame_of "
    "glue_frames is_admissible_closed is_admissible_trace left_progenitor lift_frame "
    "parse_frame_text right_progenitor trim unextend unlift up_steps_per_level",
    "paths": "DYCK_ENUMERATION_CAP MOTZKIN_ENUMERATION_CAP NULL_PATH Path enumerate_dyck "
    "enumerate_motzkin foot_count glue level_sequence lift parse_path",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


class TestPublicNames:
    def test_all_lists_the_same_names(self):
        assert len(HOME) == 53
        assert dyckframes.__all__ == sorted(HOME)
        assert set(HOME) < set(dir(dyckframes))

    def test_each_name_is_the_object_of_its_module(self):
        for name, module in HOME.items():
            home = importlib.import_module(f"dyckframes.{module}")
            assert getattr(dyckframes, name) is getattr(home, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from dyckframes import *", namespace)
        del namespace["__builtins__"]
        assert namespace == {name: getattr(dyckframes, name) for name in HOME}

    def test_an_unknown_name_is_an_attribute_error_that_names_it(self):
        with pytest.raises(AttributeError, match="'dyckframes' has no attribute 'no_such_name'"):
            dyckframes.no_such_name
