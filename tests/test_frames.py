"""Frame extraction, the sequence operators, admissibility, canonicals."""

from __future__ import annotations

import itertools
import sys
from collections import Counter, deque
from fractions import Fraction

import pytest

from dyckframes import (
    Frame,
    NotAdmissible,
    NotDyck,
    NotLifted,
    Path,
    ResourceLimit,
    Underflow,
    canonical_representative,
    consequences_hold,
    enumerate_dyck,
    enumerate_frames,
    extend_frame,
    frame_length,
    frame_of,
    glue_frames,
    is_admissible_closed,
    is_admissible_trace,
    left_progenitor,
    lift_frame,
    parse_frame_text,
    parse_path,
    right_progenitor,
    trim,
    unextend,
    unlift,
)
from dyckframes import frames as frames_module
from dyckframes.counting import frame_cardinality
from dyckframes.frames import _reduction_ops, frame_class


def all_sequences(max_len, max_sum):
    yield ()
    for length in range(1, max_len + 1):
        stack = [()]
        while stack:
            prefix = stack.pop()
            if len(prefix) == length:
                yield prefix
                continue
            for v in range(max_sum - sum(prefix), -1, -1):
                stack.append(prefix + (v,))


def unit_step_levels(counts):
    """The paper's reduction one unit step at a time: erase a leading 2,
    else take 1 from the first two entries.  Returns how many
    subtractions come before each erase, or None when it gets stuck."""
    if any(value < 0 for value in counts):
        return None
    total = sum(counts)
    buf = [*counts, 0]
    i = run = 0
    levels = []
    while total > 0:
        x = buf[i]
        if x == 1 and total == 1:
            return levels
        if x == 2:
            levels.append(run)
            run = 0
            i += 1
        elif x == 0 or buf[i + 1] == 0:
            return None
        else:
            buf[i] -= 1
            buf[i + 1] -= 1
            run += 1
        total -= 2
    return None


def replay(levels):
    """Replay the unit steps backwards on a path, last step first: an
    erased 2 is a lifting, a subtraction a peak glued onto the end."""
    chars = deque()
    for erased in reversed([op for run in levels for op in [False] * run + [True]]):
        if erased:
            chars.appendleft("U")
        else:
            chars.append("U")
        chars.append("D")
    return "".join(chars)


class TestFrameOf:
    def test_equal_frames_for_distinct_paths(self):
        assert frame_of(parse_path("UDUUDD")).counts == (3, 3, 1)
        assert frame_of(parse_path("UUDDUD")).counts == (3, 3, 1)

    def test_null_path(self):
        assert frame_of(parse_path("")).counts == (1,)

    def test_horizontal_steps_rejected(self):
        with pytest.raises(NotDyck):
            frame_of(parse_path("UHD"))

    def test_fourteen_step_example(self):
        assert frame_of(parse_path("UUDUUDDUUDUDDD")).counts == (2, 4, 6, 3)


class TestFrameLength:
    def test_examples(self):
        assert frame_length((3, 6, 6, 3, 1)) == 18
        assert frame_length((1,)) == 0
        assert frame_length((2, 1)) == 2

    def test_matches_path_length(self):
        for n in range(7):
            for path in enumerate_dyck(n):
                assert frame_length(frame_of(path)) == len(path)


class TestOperators:
    def test_lift_frame(self):
        assert lift_frame((1,)) == (2, 1)
        assert lift_frame((2, 1)) == (2, 2, 1)
        assert lift_frame((3, 3, 1)) == (2, 3, 3, 1)

    def test_glue_frames(self):
        assert glue_frames((2, 2, 1), (2, 1)) == (3, 3, 1)
        assert glue_frames((3, 2), (1,)) == (3, 2)
        assert glue_frames((2, 3, 3, 1), (2, 1)) == (3, 4, 3, 1)

    def test_glue_empty_rejected(self):
        with pytest.raises(ValueError):
            glue_frames((2, 1), ())

    def test_extend_frame(self):
        assert extend_frame((2, 1)) == (3, 2)
        assert extend_frame((1,)) == (2, 1)
        assert extend_frame((3, 3, 1)) == (4, 4, 1)
        with pytest.raises(ValueError, match="nonempty"):
            extend_frame(())

    def test_unextend(self):
        assert unextend((3, 4, 3, 1)) == (2, 3, 3, 1)
        assert unextend((2, 1)) == (1,)
        with pytest.raises(Underflow):
            unextend((1,))

    def test_unlift(self):
        assert unlift((2, 3, 3, 1)) == (3, 3, 1)
        assert unlift((2, 1)) == (1,)
        with pytest.raises(NotLifted):
            unlift((3, 2))

    def test_trim_applied_to_inputs(self):
        assert lift_frame((2, 1, 0, 0)) == (2, 2, 1)
        assert trim((0, 1, 0)) == (0, 1)
        assert trim(()) == ()


class TestAdmissibility:
    def test_worked_examples(self):
        assert is_admissible_trace((3, 6, 6, 3, 1))
        assert is_admissible_closed((3, 6, 6, 3, 1))
        assert not is_admissible_trace((4, 5, 2, 3, 1))
        assert not is_admissible_closed((4, 5, 2, 3, 1))

    def test_small_frames(self):
        for seq in ((1,), (2, 1), (2, 2, 1), (3, 2)):
            assert is_admissible_trace(seq)
            assert is_admissible_closed(seq)

    def test_small_non_frames(self):
        for seq in ((), (2,), (0, 2, 1), (1, 1), (3, 3), (2, 2)):
            assert not is_admissible_trace(seq)
            assert not is_admissible_closed(seq)

    def test_odd_entry_sum_never_admissible(self):
        for seq in all_sequences(5, 11):
            if sum(seq) % 2 == 0:
                assert not is_admissible_closed(seq)

    def test_deciders_agree_on_small_sweep(self):
        for seq in all_sequences(5, 13):
            assert is_admissible_trace(seq) == is_admissible_closed(seq), seq

    def test_deciders_reject_negative_entries(self):
        swept = 0
        for length in range(6):
            for seq in itertools.product(range(-2, 5), repeat=length):
                closed = is_admissible_closed(seq)
                assert is_admissible_trace(seq) == closed, seq
                if min(seq, default=0) < 0:
                    assert not closed, seq
                    swept += 1
        assert swept == 7**5 + 7**4 + 7**3 + 7**2 + 7 - (5**5 + 5**4 + 5**3 + 5**2 + 5)

    def test_recording_reducer_agrees_with_boolean_decider(self):
        for seq in all_sequences(5, 13):
            assert (_reduction_ops(seq) is not None) == is_admissible_trace(seq), seq

    def test_level_reducer_matches_unit_steps(self):
        for length in range(6):
            for seq in itertools.product(range(-2, 7), repeat=length):
                assert _reduction_ops(seq) == unit_step_levels(seq), seq

    def test_deciders_reject_non_int_entries(self):
        # Each of these passes every sum of both deciders, as ints would.
        fixed = [(2.5, 1.5), (2.0, 1.0), (2, 1.0), (3, 3.0, 1), (Fraction(5, 2), Fraction(3, 2))]
        as_floats = [tuple(map(float, fr.counts)) for n in range(6) for fr in enumerate_frames(n)]
        for seq in fixed + as_floats:
            assert not is_admissible_closed(seq), seq
            assert not is_admissible_trace(seq), seq
            assert _reduction_ops(seq) is None, seq

    def test_deciders_reject_a_trailing_zero_that_is_not_an_int(self):
        for seq in ((2, 1, 0.0), (2, 1, Fraction(0)), (2, 1, 0, 0.0), (1, 0.0, 0)):
            assert not is_admissible_closed(seq), seq
            assert not is_admissible_trace(seq), seq
        assert is_admissible_closed((2, 1, 0, 0)) and is_admissible_trace((2, 1, 0, 0))

    def test_deciders_reject_entries_that_are_not_numbers(self):
        # Each of these stops a sum of at least one decider with TypeError.
        for seq in ("21", ("2", "1"), (None,), (2, None), ((1,),), (2, (1,)), (3, "2")):
            assert not is_admissible_closed(seq), seq
            assert not is_admissible_trace(seq), seq


class TestFrameType:
    def test_trailing_zeros_normalized(self):
        assert Frame((2, 1, 0, 0)) == Frame((2, 1))

    def test_inadmissible_rejected(self):
        with pytest.raises(NotAdmissible):
            Frame((4, 5, 2, 3, 1))

    def test_enumerated_frames_validate(self):
        # The frame walker builds frames without a check; the public one agrees.
        for n in range(13):
            for fr in enumerate_frames(n):
                assert Frame(fr.counts) == fr

    def test_degree_and_length(self):
        fr = Frame((3, 6, 6, 3, 1))
        assert fr.degree == 4
        assert fr.length == 18
        assert fr.foot_count(2) == 6
        assert fr.foot_count(9) == 0

    def test_text_round_trip(self):
        fr = Frame.parse("3,4,3,1")
        assert str(fr) == "3,4,3,1"
        assert Frame.parse("2,1,0") == Frame((2, 1))

    def test_parse_rejects_garbage(self):
        for text in ("", "3,,1", "3,-1", "a,b"):
            with pytest.raises(ValueError):
                parse_frame_text(text)

    def test_non_int_entries_rejected(self):
        # (2.5, 1.5) passes the up-step test; (3.0, 3.0, 1.0) would reach
        # math.comb in frame_cardinality as floats.
        for counts in ((2.5, 1.5), (3.0, 3.0, 1.0), ("2", "1")):
            with pytest.raises(NotAdmissible):
                Frame(counts)
        with pytest.raises(ValueError):
            frame_cardinality((3.0, 3.0, 1.0))

    def test_entries_that_are_not_ints_fail_the_one_admissibility_check(self):
        for counts in ("21", ("2", "1"), (None,), (2, None), ((1,),), (2.5, 1.5)):
            with pytest.raises(NotAdmissible, match="^not the frame of any Dyck path"):
                Frame(counts)
            for build in (frame_cardinality, canonical_representative, frame_class):
                with pytest.raises(NotAdmissible):
                    build(counts)

    def test_trailing_zero_that_is_not_an_int_rejected(self):
        for counts in ((2, 1, 0.0), (2, 1, Fraction(0)), (1, 0.0)):
            with pytest.raises(NotAdmissible):
                Frame(counts)
        assert Frame((2, 1, 0, 0)).counts == (2, 1)
        assert trim((2, 1, 0.0)) == (2, 1, 0.0) and trim((2, 1, 0, 0)) == (2, 1)

    def test_non_iterable_input_is_value_error(self):
        for bad in (5, None, 2.5):
            for build in (trim, Frame, frame_cardinality, canonical_representative):
                with pytest.raises(ValueError):
                    build(bad)


class TestEnumerateFrames:
    def test_first_generations(self):
        assert [fr.counts for fr in enumerate_frames(0)] == [(1,)]
        assert [fr.counts for fr in enumerate_frames(1)] == [(2, 1)]
        assert [fr.counts for fr in enumerate_frames(2)] == [(2, 2, 1), (3, 2)]

    def test_doubling_count(self):
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_frames(n)) == 2 ** (n - 1)

    def test_matches_path_census(self):
        for n in range(9):
            oracle = {frame_of(p).counts for p in enumerate_dyck(n)}
            formula = {fr.counts for fr in enumerate_frames(n)}
            assert formula == oracle

    def test_deterministic_order(self):
        assert list(enumerate_frames(5)) == list(enumerate_frames(5))

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            enumerate_frames(21)

    def test_negative_and_non_int_rejected(self):
        for n in (-1, 2.5, "3"):
            with pytest.raises(ValueError):
                enumerate_frames(n)


class TestFrameClass:
    def test_matches_the_filtered_walk(self):
        for n in range(11):
            census: dict[tuple[int, ...], list[str]] = {}
            for p in enumerate_dyck(n):
                census.setdefault(frame_of(p).counts, []).append(p.text)
            for fr in enumerate_frames(n):
                walked = [p.text for p in frame_class(fr)]
                assert walked == census[fr.counts]
                assert len(walked) == frame_cardinality(fr)

    def test_canonical_path_comes_first(self):
        # The walker's first path is the one the reduction replays.
        for n in range(11):
            for fr in enumerate_frames(n):
                assert next(frame_class(fr)).text == canonical_representative(fr).text

    def test_class_paths_validate(self):
        for n in range(10):
            for fr in enumerate_frames(n):
                for p in frame_class(fr):
                    assert Path(p.text) == p

    def test_inadmissible_rejected(self):
        for seq in ((9, 9), (4, 5, 2, 3, 1), ()):
            with pytest.raises(NotAdmissible):
                frame_class(seq)

    def test_single_path_classes_at_the_cap(self):
        assert [p.text for p in frame_class((2,) * 16 + (1,))] == ["U" * 16 + "D" * 16]
        assert [p.text for p in frame_class((17, 16))] == ["UD" * 16]

    def test_no_branch_dead_ends(self):
        # Each state the walker pops is a prefix of some path of the class,
        # popped once, so its pops number the prefixes, the empty one too.
        walker = frames_module._class_paths.__code__
        pops = 0

        def count_pops(frame, event, arg):
            nonlocal pops
            if event == "c_call" and frame.f_code is walker and arg.__name__ == "pop":
                pops += 1

        for n in range(9):
            for fr in enumerate_frames(n):
                pops = 0
                sys.setprofile(count_pops)
                try:
                    texts = [p.text for p in frame_class(fr)]
                finally:
                    sys.setprofile(None)
                prefixes = {t[:i] for t in texts for i in range(len(t) + 1)}
                assert pops == len(prefixes), fr.counts


class TestCanonicalRepresentative:
    def test_worked_example(self):
        assert canonical_representative((3, 6, 6, 3, 1)).text == "UUUUDDUDDUDUDUDDUD"

    def test_small_cases(self):
        assert canonical_representative((2, 1)).text == "UD"
        assert canonical_representative((3, 4, 3, 1)).text == "UUUDDUDDUD"
        assert canonical_representative((1,)).text == ""

    def test_inadmissible_rejected(self):
        with pytest.raises(NotAdmissible):
            canonical_representative((4, 5, 2, 3, 1))

    def test_matches_the_unit_step_replay(self):
        for n in range(13):
            for fr in enumerate_frames(n):
                assert canonical_representative(fr).text == replay(unit_step_levels(fr.counts))

    def test_round_trip_up_to_length_24(self):
        for n in range(13):
            for fr in enumerate_frames(n):
                assert frame_of(canonical_representative(fr)) == fr

    def test_canonical_paths_validate(self):
        for n in range(13):
            for fr in enumerate_frames(n):
                p = canonical_representative(fr)
                assert Path(p.text) == p

    def test_down_runs_followed_by_at_most_one_up(self):
        for n in range(11):
            for fr in enumerate_frames(n):
                assert "DUU" not in canonical_representative(fr).text


class TestConsequences:
    def test_examples(self):
        assert consequences_hold((3, 6, 6, 3, 1))
        assert consequences_hold((3, 2))
        assert consequences_hold((3, 4, 3, 1))

    def test_every_admissible_frame_up_to_length_20(self):
        for n in range(11):
            for fr in enumerate_frames(n):
                assert consequences_hold(fr), fr.counts

    def test_matching_second_and_last_entry_without_degree_one(self):
        # admissible via the path UUUDUDDD, yet first entry is not
        # second entry plus one
        assert is_admissible_closed((2, 2, 3, 2))
        assert consequences_hold((2, 2, 3, 2))


class TestProgenitors:
    def test_left_strips_leading_twos(self):
        assert left_progenitor((2, 3, 3, 1)) == (3, 3, 1)
        assert left_progenitor((2, 2, 1)) == (1,)
        assert left_progenitor((3, 2)) == (3, 2)
        assert left_progenitor((1,)) == (1,)

    def test_right_normalizes_leading_entry(self):
        assert right_progenitor((5, 8, 7, 3)) == (2, 5, 7, 3)
        assert right_progenitor((2, 1)) == (2, 1)
        assert right_progenitor((4, 3)) == (2, 1)
        with pytest.raises(ValueError):
            right_progenitor((1,))
        # (5, 1) must shed 3 from its first entry; the second has only 1.
        with pytest.raises(Underflow, match="cannot absorb 3"):
            right_progenitor((5, 1))

    def test_progenitors_of_admissible_frames_are_admissible(self):
        for n in range(1, 9):
            for fr in enumerate_frames(n):
                assert is_admissible_closed(left_progenitor(fr))
                assert is_admissible_closed(right_progenitor(fr))

    def test_left_progenitor_preserves_census_size(self):
        census: Counter = Counter()
        for n in range(8):
            for path in enumerate_dyck(n):
                census[frame_of(path).counts] += 1
        for counts, size in census.items():
            assert census[left_progenitor(counts)] == size


class TestPolynomialEncoding:
    """Frames read as coefficient lists of polynomials.

    Lifting is p -> 2 + x*p and gluing is (p, q) -> p + q - 1; both are
    checked by evaluating at several points, which is independent of the
    tuple surgery the operators actually do.
    """

    @staticmethod
    def evaluate(coeffs, x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    def test_lift_is_two_plus_x_times_p(self):
        for seq in all_sequences(4, 9):
            for x in range(4):
                got = self.evaluate(lift_frame(seq), x)
                assert got == 2 + x * self.evaluate(trim(seq), x)

    def test_glue_is_sum_minus_one(self):
        seqs = [s for s in all_sequences(4, 7) if trim(s)]
        for u in seqs[:40]:
            for v in seqs[:40]:
                for x in range(4):
                    got = self.evaluate(glue_frames(u, v), x)
                    assert got == self.evaluate(trim(u), x) + self.evaluate(trim(v), x) - 1

    def test_lift_of_glue_identity(self):
        pool = [fr.counts for n in range(7) for fr in enumerate_frames(n)]
        for u in pool:
            for v in pool:
                left = glue_frames(lift_frame(glue_frames(u, v)), (2, 1))
                right = glue_frames(lift_frame(u), lift_frame(v))
                assert left == right
