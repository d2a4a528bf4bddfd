"""Property-based checks over randomly generated paths and sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckframes import (
    ColorSpec,
    Frame,
    MalformedPath,
    NotDyck,
    Path,
    count_colored_dyck,
    count_colored_motzkin,
    enumerate_dyck,
    extend_frame,
    frame_length,
    frame_of,
    glue,
    glue_frames,
    is_admissible_closed,
    is_admissible_trace,
    level_sequence,
    lift,
    lift_frame,
    parse_path,
    trim,
    unextend,
    unlift,
)
from dyckframes.verify import count_by_frames
from dyckframes.frames import frame_class
from dyckframes.paths import _walk

raw_sequences = st.lists(st.integers(0, 9), max_size=8).map(tuple)
nonempty_raw = raw_sequences.filter(lambda seq: bool(trim(seq)))


@st.composite
def dyck_paths(draw, max_half_length: int = 6):
    n = draw(st.integers(0, max_half_length))
    chars: list[str] = []
    level = 0
    remaining = 2 * n
    while remaining:
        options = []
        if remaining >= level + 2:
            options.append("U")
        if level > 0:
            options.append("D")
        choice = draw(st.sampled_from(options))
        chars.append(choice)
        level += 1 if choice == "U" else -1
        remaining -= 1
    return parse_path("".join(chars))


@st.composite
def motzkin_paths(draw, max_length: int = 9):
    n = draw(st.integers(0, max_length))
    chars: list[str] = []
    level = 0
    remaining = n
    while remaining:
        options = []
        if remaining >= level + 1:
            options.append("H")
        if remaining >= level + 2:
            options.append("U")
        if level > 0:
            options.append("D")
        choice = draw(st.sampled_from(options))
        chars.append(choice)
        level += 1 if choice == "U" else -1 if choice == "D" else 0
        remaining -= 1
    return parse_path("".join(chars))


def reference_levels(text: str) -> tuple[int, ...] | None:
    """Node levels of the walk over text, or None if it is not a path."""
    levels = [0]
    for ch in text:
        if ch not in "UDH":
            return None
        levels.append(levels[-1] + (1 if ch == "U" else -1 if ch == "D" else 0))
        if levels[-1] < 0:
            return None
    return tuple(levels) if levels[-1] == 0 else None


@given(st.text(alphabet="UDHX", max_size=12) | motzkin_paths().map(str))
def test_path_accepts_exactly_the_reference_walks(text):
    expected = reference_levels(text)
    if expected is None:
        with pytest.raises(MalformedPath):
            Path(text)
        with pytest.raises(MalformedPath):
            parse_path(text)
    else:
        path = Path(text)
        assert path.text == text and len(path) == len(text)
        assert path.levels() == expected
        assert parse_path(text) == path


@given(motzkin_paths())
def test_text_round_trip(path):
    assert parse_path(path.text) == path


@given(motzkin_paths())
def test_level_sequence_shape(path):
    levels = level_sequence(path)
    assert levels[0] == 0 and levels[-1] == 0
    assert all(v >= 0 for v in levels)
    assert all(abs(a - b) <= 1 for a, b in zip(levels, levels[1:]))


@given(raw_sequences)
def test_unlift_inverts_lift(seq):
    assert unlift(lift_frame(seq)) == trim(seq)


@given(nonempty_raw)
def test_unextend_inverts_extend(seq):
    assert unextend(extend_frame(seq)) == trim(seq)


@given(nonempty_raw, nonempty_raw)
def test_glue_frames_commutes(u, v):
    assert glue_frames(u, v) == glue_frames(v, u)


@given(nonempty_raw, nonempty_raw, nonempty_raw)
def test_glue_frames_associates(u, v, w):
    assert glue_frames(glue_frames(u, v), w) == glue_frames(u, glue_frames(v, w))


@given(nonempty_raw, nonempty_raw)
def test_lift_of_glue_identity(u, v):
    left = glue_frames(lift_frame(glue_frames(u, v)), (2, 1))
    right = glue_frames(lift_frame(u), lift_frame(v))
    assert left == right


@given(raw_sequences)
def test_deciders_agree(seq):
    assert is_admissible_trace(seq) == is_admissible_closed(seq)


@given(raw_sequences)
def test_admissible_sequences_have_even_length(seq):
    if is_admissible_closed(seq):
        assert frame_length(seq) % 2 == 0
        assert Frame(seq).length == frame_length(seq)


@given(dyck_paths(), dyck_paths())
@settings(max_examples=60)
def test_glue_order_cannot_change_the_frame(p, q):
    assert frame_of(glue(p, q)) == frame_of(glue(q, p))


@given(dyck_paths())
def test_lifting_commutes_with_frame_extraction(p):
    assert frame_of(lift(p)).counts == lift_frame(frame_of(p))


@given(dyck_paths(), dyck_paths())
@settings(max_examples=60)
def test_gluing_commutes_with_frame_extraction(p, q):
    got = frame_of(glue(p, q)).counts
    assert got == glue_frames(frame_of(p), frame_of(q))


@given(dyck_paths())
def test_frame_entries_sum_to_node_count(p):
    assert sum(frame_of(p).counts) == len(p) + 1


@given(dyck_paths(max_half_length=10))
@settings(max_examples=60)
def test_path_lies_in_its_own_frame_class(p):
    assert p in frame_class(frame_of(p))


@given(motzkin_paths(), motzkin_paths())
def test_lift_and_glue_build_valid_paths(p, q):
    for built in (lift(p), glue(p, q), glue(lift(q), p)):
        assert Path(built.text) == built


def walked_frame(path: Path) -> Frame:
    """frame_of as a checked walk: the levels from _walk, counted per level."""
    counts = [1]
    for level in _walk(path.text):
        if level == len(counts):
            counts.append(1)
        else:
            counts[level] += 1
    return Frame(tuple(counts))


def test_frame_of_matches_the_walked_oracle_up_to_n_11():
    for n in range(12):
        for p in enumerate_dyck(n):
            fr = frame_of(p)
            assert fr == walked_frame(p)
            assert is_admissible_closed(fr.counts)


@given(dyck_paths(max_half_length=14))
def test_frame_of_matches_the_walked_oracle(p):
    fr = frame_of(p)
    assert fr == walked_frame(p)
    assert is_admissible_closed(fr.counts)


@given(motzkin_paths())
def test_frame_of_rejects_exactly_the_paths_with_flats(p):
    if "H" in p.text:
        with pytest.raises(NotDyck):
            frame_of(p)
    else:
        assert frame_of(p) == walked_frame(p)


@st.composite
def sized_color_specs(draw, max_n: int = 12):
    """A length n and colors for it, zeros included, one entry per level or gap."""
    n = draw(st.integers(0, max_n))
    counts = st.integers(0, 3)
    h = draw(st.lists(counts, min_size=n + 1, max_size=n + 1))
    u = draw(st.lists(counts, min_size=n, max_size=n))
    d = draw(st.lists(counts, min_size=n, max_size=n))
    return n, ColorSpec(h=tuple(h), u=tuple(u), d=tuple(d))


@given(sized_color_specs())
@settings(max_examples=40, deadline=None)
def test_transfer_dp_matches_frame_sum(case):
    n, spec = case
    assert count_colored_motzkin(n, spec) == count_by_frames(n, spec)
    no_flats = ColorSpec(h=(0,) * (n + 1), u=spec.u, d=spec.d)
    assert count_colored_dyck(n, spec) == count_by_frames(2 * n, no_flats)
