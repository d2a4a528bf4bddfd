"""Foot tables, frame cardinalities, and the counting formulas.

Expected values come from three independent sources: worked examples,
closed forms computed in this file (factorial binomials), and weighted
brute-force sums over the path enumerators.
"""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from collections import Counter

import pytest

from dyckframes import (
    ColorSpec,
    NotAdmissible,
    binomial,
    binomial_identity_check,
    catalan,
    count_colored_dyck,
    count_colored_motzkin,
    count_k_motzkin,
    count_motzkin,
    enumerate_dyck,
    enumerate_frames,
    enumerate_motzkin,
    feet_level0,
    feet_table,
    foot_count,
    frame_cardinality,
    frame_of,
    up_steps_per_level,
    weak_compositions,
)
from dyckframes.counting import (
    _SPREAD_BATCH,
    FootTable,
    _spread,
    _transfer_walk,
    transfer_cells,
    transfer_charge,
)
from dyckframes.verify import count_by_frames, count_k_motzkin_by_feet

# the reference triangle: rows 0..12 steps, columns 1-ped..6-ped
LEVEL0_TRIANGLE = [
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0),
    (0, 2, 2, 1, 0, 0),
    (0, 5, 5, 3, 1, 0),
    (0, 14, 14, 9, 4, 1),
    (0, 42, 42, 28, 14, 5),
]


def weighted_dyck_oracle(n: int, u, d) -> int:
    """Sum over Dyck paths of the product of per-step color choices."""
    total = 0
    for path in enumerate_dyck(n):
        weight = 1
        level = 0
        for ch in path.text:
            if ch == "U":
                weight *= u[level]
                level += 1
            else:
                level -= 1
                weight *= d[level]
        total += weight
    return total


def weighted_motzkin_oracle(n: int, h, u, d) -> int:
    """Sum over Motzkin paths of the product of per-step color choices."""
    total = 0
    for path in enumerate_motzkin(n):
        weight = 1
        level = 0
        for ch in path.text:
            if ch == "U":
                weight *= u[level]
                level += 1
            elif ch == "D":
                level -= 1
                weight *= d[level]
            else:
                weight *= h[level]
        total += weight
    return total


def first_return_levels(max_level: int, max_half_length: int) -> list[list[list[int]]]:
    """Foot-table rows of levels 0..max_level by first-return decomposition.

    A path U P D Q, with P of half-length i, has P's feet one level down
    plus Q's feet here: a product of polynomials in the foot count.  At
    level 0 the lifted front U P D is a single foot, and the null path
    has one foot there and none above, so level-0 rows are one entry
    longer.  Every level is built from the one below it.
    """
    below = [[0, catalan(i)] for i in range(max_half_length)]
    levels = []
    for s in range(max_level + 1):
        rows = [[0, 1] if s == 0 else [1]]
        for n in range(1, max_half_length + 1):
            row = [0] * (n + len(rows[0]))
            for i in range(n):
                for k, left in enumerate(below[i]):
                    if left:
                        for m, ways in enumerate(rows[n - 1 - i]):
                            row[k + m] += left * ways
            rows.append(row)
        levels.append(rows)
        below = rows
    return levels


class TestBinomial:
    def test_choose_nothing_is_one_even_from_negative(self):
        assert binomial(-1, 0) == 1
        assert binomial(0, 0) == 1
        assert binomial(5, 0) == 1

    def test_overdraw_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, 1) == 0
        assert binomial(2, -1) == 0

    def test_agrees_with_math_comb(self):
        for n in range(10):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)


class TestCatalan:
    def test_examples(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(6) == 132

    def test_matches_closed_form(self):
        for n in range(20):
            assert catalan(n) == math.comb(2 * n, n) // (n + 1)

    def test_negative_rejected(self):
        for n in (-1, 2.5, "3"):
            with pytest.raises(ValueError):
                catalan(n)


class TestFeetLevel0:
    def test_reference_triangle(self):
        table = feet_level0(6)
        for n, row in enumerate(LEVEL0_TRIANGLE):
            assert tuple(table.count(n, 0, j) for j in range(1, 7)) == row

    def test_sawtooth_column_beyond_triangle(self):
        table = feet_level0(6)
        assert table.count(6, 0, 7) == 1

    def test_null_row(self):
        assert feet_level0(0).row(0, 0) == (0, 1)

    def test_row_sums_are_catalan(self):
        table = feet_level0(14)
        for n in range(15):
            assert sum(table.row(n, 0)) == catalan(n)


class TestFeetTable:
    def test_level1_and_level2_examples(self):
        table = feet_table(2)
        assert table.count(2, 1, 2) == 2
        assert table.count(2, 2, 1) == 1

    def test_empty_path_rows(self):
        table = feet_table(0)
        assert table.count(0, 3, 0) == 1
        assert table.count(0, 3, 1) == 0

    def test_matches_census(self):
        table = feet_table(8)
        for n in range(9):
            paths = list(enumerate_dyck(n))
            for level in range(9):
                tally = Counter(foot_count(p, level) for p in paths)
                for feet in range(n + 2):
                    assert table.count(n, level, feet) == tally.get(feet, 0)

    def test_row_lengths(self):
        table = feet_table(6)
        for n in range(7):
            assert len(table.row(n, 0)) == n + 2
            for level in range(1, 4):
                assert len(table.row(n, level)) == n + 1

    def test_rebuilds_on_larger_query(self):
        table = feet_table(2)
        fresh = feet_table(5)
        assert table.count(5, 3, 2) == fresh.count(5, 3, 2)
        assert table.max_half_length == 2

    def test_tall_table_stores_only_the_levels_that_differ(self):
        tall, short = feet_table(3), feet_table(3)
        tracemalloc.start()
        try:
            far = [tall.row(n, 100_000) for n in range(4)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        for n in range(4):
            assert far[n] == short.row(n, 4) == (catalan(n),) + (0,) * n

    def test_matches_first_return_product(self):
        table = feet_table(40)
        for level, rows in enumerate(first_return_levels(42, 40)):
            for n in range(41):
                assert table.row(n, level) == tuple(rows[n])

    def test_level_above_max_fills_every_bit_of_the_packing(self):
        # C_97 needs all b bits of one base-2**b digit, so a digit one
        # bit narrower would carry into the next entry.
        table = feet_table(97)
        assert table.row(97, 98) == (catalan(97),) + (0,) * 97

    def test_rows_sum_to_catalan_at_max_97(self):
        table = feet_table(97)
        for level in range(9):
            for n in range(98):
                assert sum(table.row(n, level)) == catalan(n)

    def test_every_node_is_a_foot_somewhere(self):
        # A path of length 2n has 2n + 1 nodes, each a foot at its level.
        table = feet_table(30)
        for n in range(31):
            nodes = sum(
                j * ways
                for level in range(n + 2)
                for j, ways in enumerate(table.row(n, level))
            )
            assert nodes == (2 * n + 1) * catalan(n)

    def test_max_97_builds_fast(self):
        start = time.perf_counter()
        table = FootTable(97)
        row = table.row(97, 4)
        assert time.perf_counter() - start < 0.5
        assert sum(row) == catalan(97)

    def test_transfer_walk_yields_every_length(self):
        ones = (1,) * 11
        walked = list(_transfer_walk(20, ones, ones))
        assert walked == [count_motzkin(steps) for steps in range(21)]

    def test_negative_arguments_rejected(self):
        table = feet_table(1)
        with pytest.raises(ValueError):
            table.count(1, 1, -1)
        with pytest.raises(ValueError):
            feet_table(-1)
        for bad in (1.5, "1"):
            with pytest.raises(ValueError):
                feet_table(bad)
            with pytest.raises(ValueError):
                table.row(bad, 1)
            with pytest.raises(ValueError):
                table.row(1, bad)
            with pytest.raises(ValueError):
                table.count(1, 1, bad)


class TestFrameCardinality:
    def test_worked_examples(self):
        assert frame_cardinality((5, 8, 7, 3)) == 700
        assert frame_cardinality((3, 4, 3, 1)) == 6

    def test_staircase_frames_have_one_path(self):
        for u in range(1, 6):
            assert frame_cardinality((u + 1, u)) == 1

    def test_null_frame(self):
        assert frame_cardinality((1,)) == 1

    def test_inadmissible_rejected(self):
        with pytest.raises(NotAdmissible):
            frame_cardinality((4, 5, 2, 3, 1))

    def test_matches_census(self):
        for n in range(9):
            census = Counter(frame_of(p).counts for p in enumerate_dyck(n))
            for fr in enumerate_frames(n):
                assert frame_cardinality(fr) == census[fr.counts]

    def test_sums_to_catalan(self):
        for n in range(13):
            total = sum(frame_cardinality(fr) for fr in enumerate_frames(n))
            assert total == catalan(n)


class TestUpStepsPerLevel:
    def test_examples(self):
        assert up_steps_per_level((3, 4, 3, 1)) == (2, 2, 1)
        assert up_steps_per_level((2, 1)) == (1,)
        assert sum(up_steps_per_level((3, 6, 6, 3, 1))) == 9
        assert up_steps_per_level((1,)) == ()

    def test_positive_and_sum_to_half_length(self):
        for n in range(9):
            for fr in enumerate_frames(n):
                ups = up_steps_per_level(fr)
                assert all(v >= 1 for v in ups)
                assert sum(ups) == n
                if fr.degree >= 1:
                    assert ups[0] == fr.counts[0] - 1

    def test_matches_any_path_of_the_frame(self):
        for n in range(7):
            for path in enumerate_dyck(n):
                ups = up_steps_per_level(frame_of(path))
                seen = Counter()
                level = 0
                for ch in path.text:
                    if ch == "U":
                        seen[level] += 1
                        level += 1
                    else:
                        level -= 1
                assert tuple(seen[k] for k in range(len(ups))) == ups


class TestColoredDyck:
    def test_all_ones_reduces_to_catalan(self):
        for n in range(9):
            ones = (1,) * n
            assert count_colored_dyck(n, ColorSpec(u=ones, d=ones)) == catalan(n)

    def test_two_colors_on_ground_gap(self):
        spec = ColorSpec(u=(2, 1), d=(1, 1))
        assert count_colored_dyck(2, spec) == 6

    def test_null_case(self):
        assert count_colored_dyck(0, ColorSpec()) == 1

    def test_matches_weighted_oracle(self):
        vectors = [(2, 1, 3, 1, 2, 1), (3, 3, 1, 2, 1, 1), (1, 2, 2, 3, 1, 2)]
        for n in range(7):
            for u in vectors:
                for d in vectors[:2]:
                    spec = ColorSpec(u=u[:n], d=d[:n])
                    assert count_colored_dyck(n, spec) == weighted_dyck_oracle(n, u, d)

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError):
            count_colored_dyck(3, ColorSpec(u=(1,), d=(1, 1, 1)))


class TestKMotzkin:
    def test_ground_level_examples(self):
        assert count_k_motzkin(3, 0) == 3
        assert count_k_motzkin(0, 0) == 1
        assert count_k_motzkin(0, 4) == 1

    def test_unreachable_level_leaves_pure_dyck(self):
        assert count_k_motzkin(4, 3) == 2

    def test_matches_restricted_oracle(self):
        for n in range(9):
            for k in range(5):
                oracle = sum(1 for _ in enumerate_motzkin(n, {k}))
                assert count_k_motzkin(n, k) == oracle

    def test_matches_foot_table_route(self):
        for n in range(41):
            for k in range(5):
                for r in (1, 3):
                    assert count_k_motzkin(n, k, r) == count_k_motzkin_by_feet(n, k, r)

    def test_colored_matches_weighted_oracle(self):
        for n in range(7):
            for k in range(3):
                for r in (2, 3):
                    oracle = sum(
                        r ** path.text.count("H") for path in enumerate_motzkin(n, {k})
                    )
                    assert count_k_motzkin(n, k, r) == oracle

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            count_k_motzkin(3, 0, 0)
        with pytest.raises(ValueError):
            count_k_motzkin(-1, 0)
        for n, k in ((2.5, 0), ("3", 0), (3, 0.5), (3, "0")):
            with pytest.raises(ValueError):
                count_k_motzkin(n, k)
            with pytest.raises(ValueError):
                count_k_motzkin_by_feet(n, k)


class TestMotzkin:
    def test_known_values(self):
        assert [count_motzkin(n) for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]

    def test_matches_oracle(self):
        for n in range(11):
            assert count_motzkin(n) == sum(1 for _ in enumerate_motzkin(n))

    def test_three_term_recurrence(self):
        # (n + 2) M(n) = (2n + 1) M(n-1) + (3n - 3) M(n-2)
        values = [count_motzkin(n) for n in range(301)]
        for n in range(2, 301):
            assert (n + 2) * values[n] == (2 * n + 1) * values[n - 1] + (3 * n - 3) * values[n - 2]


class TestColoredMotzkin:
    @staticmethod
    def ones_spec(n: int) -> ColorSpec:
        levels = n // 2
        return ColorSpec(h=(1,) * (levels + 1), u=(1,) * levels, d=(1,) * levels)

    def test_all_ones_reduces_to_motzkin(self):
        for n in range(9):
            assert count_colored_motzkin(n, self.ones_spec(n)) == count_motzkin(n)

    def test_ground_horizontal_only_matches_k_motzkin(self):
        for n in range(8):
            levels = n // 2
            for r in (1, 2, 3):
                spec = ColorSpec(
                    h=(r,) + (0,) * levels, u=(1,) * levels, d=(1,) * levels
                )
                assert count_colored_motzkin(n, spec) == count_k_motzkin(n, 0, r)

    def test_weighted_level0_example(self):
        spec = ColorSpec(h=(2, 1, 0), u=(1, 1), d=(1, 1))
        oracle = weighted_motzkin_oracle(4, (2, 1, 0), (1, 1), (1, 1))
        assert count_colored_motzkin(4, spec) == oracle

    def test_matches_weighted_oracle(self):
        h = (2, 1, 3, 1, 2)
        u = (1, 2, 1, 3)
        d = (3, 1, 2, 1)
        for n in range(8):
            levels = n // 2
            spec = ColorSpec(h=h[: levels + 1], u=u[:levels], d=d[:levels])
            oracle = weighted_motzkin_oracle(n, h, u, d)
            assert count_colored_motzkin(n, spec) == oracle

    def test_short_vectors_rejected(self):
        with pytest.raises(ValueError):
            count_colored_motzkin(4, ColorSpec(h=(1, 1), u=(1, 1), d=(1, 1)))

    @pytest.mark.parametrize(
        "short, message",
        [
            ({"h": (1, 1)}, "colors.h needs at least 3 entries, got 2"),
            ({"u": (1,)}, "colors.u needs at least 2 entries, got 1"),
            ({"d": (1,)}, "colors.d needs at least 2 entries, got 1"),
        ],
        ids=["h", "u", "d"],
    )
    def test_each_short_vector_is_named(self, short, message):
        spec = ColorSpec(**{"h": (1, 1, 1), "u": (1, 1), "d": (1, 1), **short})
        with pytest.raises(ValueError) as caught:
            count_colored_motzkin(4, spec)
        assert str(caught.value) == message

    def test_negative_and_non_int_lengths_rejected(self):
        spec = self.ones_spec(4)
        for n in (-1, 2.5, "4"):
            with pytest.raises(ValueError):
                count_colored_motzkin(n, spec)
            with pytest.raises(ValueError):
                count_by_frames(n, spec)

    def test_negative_colors_rejected(self):
        with pytest.raises(ValueError):
            ColorSpec(h=(-1,))

    @pytest.mark.parametrize("vec", ["h", "u", "d"])
    def test_non_int_colors_rejected(self, vec):
        # A float would make the counts inexact: 1.25 paths of length 2.
        with pytest.raises(ValueError, match=f"color counts in {vec} must be nonnegative ints"):
            ColorSpec(**{"h": (1, 1), "u": (1,), "d": (1,), vec: (0.5, 0.5)})


class TestTransferCharge:
    def test_gap_product_sets_the_width(self):
        # u and d fit in 64 bits on their own; their product on gap 1 does not.
        spec = ColorSpec(h=(1, 3, 1, 1), u=(1, 2**40, 1), d=(5, 2**40, 1))
        assert transfer_charge(6, spec) == 2 * transfer_cells(6)
        narrow = ColorSpec(h=spec.h, u=(1, 2**40, 1), d=(5, 2**23, 1))
        assert transfer_charge(6, narrow) == transfer_cells(6)

    def test_reads_only_the_weights_the_dp_reads(self):
        # Entries past n // 2 levels and gaps are never multiplied in.
        spec = ColorSpec(h=(1, 1, 2**64), u=(1, 2**64), d=(1, 1))
        assert transfer_charge(2, spec) == transfer_cells(2)
        assert transfer_charge(4, spec) == 2 * transfer_cells(4)

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError, match="colors.u needs at least 3 entries"):
            transfer_charge(6, ColorSpec(h=(1,) * 4, u=(2**100,), d=(1,) * 3))


class TestFrameSum:
    def test_all_ones_is_motzkin(self):
        for n in range(11):
            levels = n // 2
            spec = ColorSpec(h=(1,) * (levels + 1), u=(1,) * levels, d=(1,) * levels)
            assert count_by_frames(n, spec) == count_motzkin(n)

    def test_no_flats_is_catalan(self):
        for n in range(9):
            spec = ColorSpec(h=(0,) * (n + 1), u=(1,) * n, d=(1,) * n)
            assert count_by_frames(2 * n, spec) == catalan(n)
            assert count_by_frames(2 * n + 1, spec) == 0

    def test_matches_transfer_dp_up_to_n_24(self):
        # verify's colors, zeros included; n = 24 needs 13 levels of h.
        size = 13
        spec = ColorSpec(
            h=tuple((k + 2) % 4 for k in range(size)),
            u=tuple(k % 3 + 1 for k in range(size)),
            d=tuple((k + 1) % 2 + 1 for k in range(size)),
        )
        no_flats = ColorSpec(h=(0,) * size, u=spec.u, d=spec.d)
        start = time.perf_counter()
        for n in range(13, 25):
            assert count_by_frames(n, spec) == count_colored_motzkin(n, spec), n
        for n in range(7, 13):
            assert count_by_frames(2 * n, no_flats) == count_colored_dyck(n, spec), n
        assert time.perf_counter() - start < 2.0


class TestWeakCompositions:
    def test_examples(self):
        assert list(weak_compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        assert list(weak_compositions(0, 3)) == [(0, 0, 0)]
        assert len(list(weak_compositions(3, 2))) == 4

    def test_cardinality_is_binomial(self):
        for total in range(7):
            for parts in range(1, 5):
                count = sum(1 for _ in weak_compositions(total, parts))
                assert count == binomial(total + parts - 1, total)

    def test_zero_parts(self):
        assert list(weak_compositions(0, 0)) == [()]
        with pytest.raises(ValueError):
            weak_compositions(1, 0)

    def test_negative_and_non_int_arguments_rejected(self):
        for total, parts in ((-1, 2), (2, -1), (2.5, 2), (2, 2.0), ("2", 2), (2, "2")):
            with pytest.raises(ValueError):
                weak_compositions(total, parts)

    def test_all_distinct_and_correct_sum(self):
        seen = list(weak_compositions(5, 3))
        assert len(set(seen)) == len(seen)
        assert all(sum(parts) == 5 and len(parts) == 3 for parts in seen)

    def test_descending_order_matches_product(self):
        for total in range(7):
            for parts in range(6):
                if parts == 0 and total > 0:
                    continue
                brute = sorted(
                    (t for t in itertools.product(range(total + 1), repeat=parts)
                     if sum(t) == total),
                    reverse=True,
                )
                assert list(weak_compositions(total, parts)) == brute, (total, parts)

    def test_no_depth_limit(self):
        assert next(weak_compositions(0, 1200)) == (0,) * 1200
        assert sum(1 for _ in weak_compositions(1, 1200)) == 1200
        assert binomial_identity_check(1, (1,) * 1200) is True


class TestBinomialIdentity:
    def test_examples(self):
        assert binomial_identity_check(2, (2, 1))
        assert binomial_identity_check(0, (4, 4, 4))
        assert binomial_identity_check(3, (1, 1, 1))

    def test_small_sweep(self):
        def positive_vectors(budget):
            for first in range(1, budget + 1):
                yield (first,)
                for rest in positive_vectors(budget - first):
                    yield (first,) + rest

        for m in range(5):
            for parts in positive_vectors(6):
                assert binomial_identity_check(m, parts), (m, parts)

    def test_holds_with_zero_capacity_bins(self):
        assert binomial_identity_check(2, (2, 0, 1))
        assert binomial_identity_check(3, (0,)) is True

    def test_holds_with_no_bins(self):
        # binomial(m - 1, m) is 0 for m >= 1, and m items cannot be split
        # over no bins, so both sides are 0.
        for m in range(4):
            assert binomial_identity_check(m, ()) is True

    @staticmethod
    def product_sum(m, columns):
        """The sum over every tuple of amounts that adds up to m, by filtering
        itertools.product, of the product of one entry per column."""
        return sum(
            math.prod(column[a] for column, a in zip(columns, amounts))
            for amounts in itertools.product(range(m + 1), repeat=len(columns))
            if sum(amounts) == m
        )

    @pytest.mark.parametrize(
        "m, sizes",
        [(0, ()), (2, ()), (0, (3,)), (0, (2, 0, 5)), (4, (0,)), (3, (0, 0)),
         (3, (2, 0, 1)), (5, (1, 3)), (6, (1, 2, 0, 3, 1))],
    )
    def test_spread_is_the_product_sum(self, m, sizes):
        # Columns unlike binomials, distinct per bin, so a wrong entry shows.
        columns = [[(i + 2) ** a + i * a for a in range(m + 1)] for i in range(len(sizes))]
        assert _spread(m, columns) == self.product_sum(m, columns)
        binomials = [[binomial(a + size - 1, a) for a in range(m + 1)] for size in sizes]
        assert _spread(m, binomials) == self.product_sum(m, binomials)
        assert binomial_identity_check(m, sizes) is True

    def test_spread_over_more_than_one_batch(self):
        m, bins = 6, 5
        assert math.comb(m + bins - 1, bins - 1) > 2 * _SPREAD_BATCH
        columns = [[3 * i + a * (a + i + 1) + 1 for a in range(m + 1)] for i in range(bins)]
        assert _spread(m, columns) == self.product_sum(m, columns)
        assert binomial_identity_check(m, (2, 1, 3, 1, 2)) is True

    def test_memory_does_not_grow_with_the_compositions(self):
        # 125,970 weak compositions of 12 into 9 parts; listing them as
        # tuples takes about 15 MB.
        m, sizes = 12, (1,) * 9
        assert math.comb(m + len(sizes) - 1, m) >= 100_000
        tracemalloc.start()
        try:
            assert binomial_identity_check(m, sizes) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_non_int_arguments_rejected(self):
        # The rule ColorSpec applies: a float reached math.comb as TypeError.
        for m, parts in ((2, (1.5,)), (2, (1, 2.0)), (2.0, (1, 2)), (1, ("1",)), (None, (1,))):
            with pytest.raises(ValueError):
                binomial_identity_check(m, parts)
