"""The package's immutable value types: Path, Frame, ColorSpec, VerifyCheck
and VerifyReport.

Each keeps the behaviour of the frozen dataclass it replaced: fields
cannot be assigned or deleted, repr, equality and hash are those of the
field tuple, and pickle and copy round-trip through the constructor.
The dataclass each one was is rebuilt here as the reference.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from pathlib import Path as FilePath

import pytest

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


def test_cli_import_loads_neither_dataclasses_json_nor_verify():
    probe = (
        "import sys; before = set(sys.modules); import dyckframes.cli; "
        "print(sorted({'dataclasses', 'json', 'dyckframes.verify'} & (set(sys.modules) - before)))"
    )
    assert _fresh_python(probe) == "[]"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["count", "dyck", "--n", "3"], False),
        (["frame", "6,11,7,1"], False),
        (["enumerate", "dyck", "--n", "3"], False),
        (["feet-table", "--max", "3"], False),
        (["verify", "--max-n", "1"], True),
    ],
    ids=["count", "frame", "enumerate", "feet-table", "verify"],
)
def test_only_verify_loads_the_verify_module(argv, loaded):
    probe = (
        f"import sys; from dyckframes.cli import main; code = main({argv!r}); "
        "print(code, 'dyckframes.verify' in sys.modules)"
    )
    assert _fresh_python(probe) == f"0 {loaded}"


def test_cli_serves_run_verification_from_verify_uncached():
    import dyckframes.cli as cli
    from dyckframes import verify

    assert cli.run_verification is verify.run_verification
    assert "run_verification" not in vars(cli)


def test_cli_has_no_other_lazy_name():
    import dyckframes.cli as cli

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cli.no_such_name
