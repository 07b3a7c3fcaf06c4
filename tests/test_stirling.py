"""Stirling triangles, and the composition/multinomial test references."""

import decimal
import random
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest

from cauchykit import stirling
from cauchykit.cauchy import clear_caches
from cauchykit.cli import EXACT_INTEGERS
from cauchykit.polynomial import falling_factorial, rising_factorial
from cauchykit.stirling import (
    StirlingKind,
    StirlingTable,
    next_row,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    stirling_rows,
    stirling_table,
)
from combinatorial_reference import compositions, multinomial


def bell_numbers(n_max):
    """Independent oracle: Bell triangle recurrence."""
    bells = [1]
    row = [1]
    for _ in range(n_max):
        new = [row[-1]]
        for value in row:
            new.append(new[-1] + value)
        row = new
        bells.append(row[0])
    return bells


def test_signed_examples():
    assert stirling1_signed(4, 4) == 1
    assert stirling1_signed(4, 2) == 11
    assert stirling1_signed(3, 1) == 2
    assert stirling1_signed(6, 3) == -225


def test_unsigned_examples():
    assert stirling1_unsigned(3, 2) == 3
    assert stirling1_unsigned(7, 7) == 1
    assert stirling1_unsigned(5, 1) == 24  # (n-1)!


def test_second_kind_examples():
    assert all(stirling2(n, 1) == 1 for n in range(1, 10))
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1


def test_second_kind_against_expansion_oracle():
    # 2! * S2(4,2) equals the 4th EGF coefficient of (e^t-1)^2
    from cauchykit.series import expm1_series
    power = expm1_series(6) ** 2
    assert factorial(2) * stirling2(4, 2) == factorial(4) * power.coefficient(4)


def test_out_of_triangle_is_zero():
    assert stirling1_signed(3, 5) == 0
    assert stirling1_signed(3, -1) == 0
    assert stirling2(-2, 0) == 0
    assert stirling1_unsigned(0, 1) == 0


def test_triangle_edges():
    for kind in StirlingKind:
        table = stirling_table(kind)
        assert table.value(0, 0) == 1
        for n in range(1, 12):
            assert table.value(n, 0) == 0
            assert table.value(n, n) == 1


def test_signed_unsigned_relation():
    for n in range(12):
        for l in range(n + 1):
            signed = stirling1_signed(n, l)
            assert stirling1_unsigned(n, l) == abs(signed)
            assert signed == (-1) ** (n - l) * stirling1_unsigned(n, l)


def test_row_sums():
    bells = bell_numbers(12)
    for n in range(13):
        assert sum(stirling1_unsigned(n, l) for l in range(n + 1)) == factorial(n)
        assert sum(stirling2(n, l) for l in range(n + 1)) == bells[n]


def test_orthogonality():
    for n in range(16):
        for m in range(16):
            total = sum(stirling1_signed(n, l) * stirling2(l, m) for l in range(n + 1))
            assert total == (1 if n == m else 0)


def test_factorial_polynomial_coefficients():
    for n in range(12):
        falling = falling_factorial(n)
        rising = rising_factorial(n)
        for l in range(n + 1):
            assert falling.coefficient(l) == stirling1_signed(n, l)
            assert rising.coefficient(l) == stirling1_unsigned(n, l)


def test_compositions_stars_and_bars():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]


def test_compositions_zero_total():
    assert list(compositions(0, 4)) == [(0, 0, 0, 0)]


def test_compositions_count():
    assert sum(1 for _ in compositions(3, 3)) == comb(5, 2) == 10


def test_compositions_exhaustive_properties():
    for total in range(9):
        for parts in range(1, 6):
            seen = list(compositions(total, parts))
            assert len(seen) == len(set(seen)) == comb(total + parts - 1, parts - 1)
            assert all(len(c) == parts and sum(c) == total for c in seen)
            assert seen == sorted(seen)  # lexicographic


def test_compositions_validation():
    with pytest.raises(ValueError):
        compositions(3, 0)
    with pytest.raises(ValueError):
        compositions(-1, 2)


def test_multinomial_examples():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(5, (5, 0, 0)) == 1
    assert multinomial(4, (2, 1, 1)) == 12


def test_multinomial_rejects_sum_mismatch():
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))
    with pytest.raises(ValueError):
        multinomial(2, (3, -1))


def test_multinomial_equals_binomial_products():
    for n in range(9):
        for parts in compositions(n, 3):
            expected = comb(n, parts[0]) * comb(n - parts[0], parts[1])
            assert multinomial(n, parts) == expected


def test_preload_matches_lazy_fill():
    table = stirling_table(StirlingKind.SECOND)
    table.value(20, 0)
    assert table.value(20, 10) == stirling2(20, 10)
    assert table.row(3) == (0, 1, 3, 1)


def test_compositions_with_many_parts_need_no_deep_recursion():
    seen = list(compositions(1, 1200))
    assert len(seen) == 1200
    assert seen[0] == (0,) * 1199 + (1,)
    assert seen[-1] == (1,) + (0,) * 1199
    assert seen == sorted(seen)


def test_concurrent_first_use_builds_the_same_triangle():
    # at n = 300, reads of rows that are not held walk from a checkpoint
    # while other threads append past it
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    errors = []

    def fill(table, i, reference):
        n_max = len(reference) - 1
        try:
            if i % 2:  # read the newest row while other threads append past it
                while len(table.rows) <= n_max:
                    n = len(table.rows) - 1
                    assert table.rows[n] is not None or (n >= 128 and n % 4)
                    assert table.value(n, n // 3) == reference[n][n // 3]
                    assert table.row(n) == tuple(reference[n])
            for n in [*range(i, n_max, 5), n_max]:
                if (i + n) % 4:
                    assert table.value(n, n // 3) == reference[n][n // 3]
                else:
                    assert table.row(n) == tuple(reference[n])
        except Exception as exc:  # a race shows up as IndexError, or TypeError on a None row
            errors.append(exc)

    try:
        for n_max in (60, 300):
            reference = old_grow_loop(StirlingKind.SIGNED_FIRST, n_max)
            for _ in range(30):
                table = StirlingTable(StirlingKind.SIGNED_FIRST)
                threads = [threading.Thread(target=fill, args=(table, i, reference))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert not errors
                assert table.rows == held_layout(reference)
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("kind", list(StirlingKind))
@pytest.mark.parametrize("clear_all", [False, True], ids=["clear", "clear_caches"])
def test_a_cleared_table_grows_again_from_row_0(kind, clear_all):
    reference = old_grow_loop(kind, 303)
    table = stirling_table(kind)
    assert table.row(303) == tuple(reference[303])  # the last row built is 303
    if clear_all:
        clear_caches()
    else:
        table.clear()
    assert table.rows == [[1]]
    assert table.row(131) == tuple(reference[131])
    assert [table.value(130, l) for l in range(131)] == reference[130]
    assert table.rows == held_layout(reference[:132])


def test_a_held_row_is_read_without_the_lock():
    table = StirlingTable(StirlingKind.SECOND)
    table.value(5, 0)
    read = []
    with table._lock:  # a read that waited for the lock would hang here
        thread = threading.Thread(target=lambda: read.append((table.row(5), table.value(5, 2))))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert read == [((0, 1, 15, 25, 10, 1), 15)]


@pytest.mark.parametrize("kind", list(StirlingKind))
def test_a_read_stores_nothing(kind):
    # only growth writes the table, under its lock; a read walks a dropped
    # row from its checkpoint and keeps nothing it built
    reference = old_grow_loop(kind, 303)
    table = StirlingTable(kind)
    assert table.row(303) == tuple(reference[303])
    held = list(table.rows)
    for n in (131, 133, 301, 302):
        assert table.rows[n] is None
        assert table.row(n) == tuple(reference[n])
        assert [table.value(n, l) for l in range(-1, n + 2)] == [0, *reference[n], 0]
    assert len(table.rows) == len(held)
    assert all(now is then for now, then in zip(table.rows, held))
    assert table.rows == held_layout(reference)


@pytest.mark.parametrize("kind", list(StirlingKind))
def test_a_non_int_index_raises_before_the_table_grows(kind):
    table = StirlingTable(kind)
    table.value(5, 0)
    for n, l in ((3000.0, 2), (3.0, 5), (-1.5, 0), (2, -0.5), (Fraction(3), 5), (4, 2.0)):
        with pytest.raises(TypeError):
            table.value(n, l)
        assert len(table.rows) == 6
    for n in (3000.0, 3.0, -1.5, Fraction(3)):
        with pytest.raises(TypeError):
            table.row(n)
        assert len(table.rows) == 6
    for read, n, l in ((stirling2, 3000.0, 2), (stirling2, 3.0, 5), (stirling2, -1.5, 0),
                       (stirling1_unsigned, 2, -0.5), (stirling2, Fraction(3), 5)):
        held = [len(stirling_table(k).rows) for k in StirlingKind]
        with pytest.raises(TypeError):
            read(n, l)
        assert [len(stirling_table(k).rows) for k in StirlingKind] == held


@pytest.mark.parametrize("kind", ["second", "signed_first", "unsigned_first", None, 2])
def test_a_kind_that_is_not_a_stirling_kind_raises(kind):
    # next_row reads every kind but SECOND and SIGNED_FIRST as the unsigned first kind,
    # so StirlingTable("second").value(5, 2) would be c(5, 2) = 50, not S(5, 2) = 15
    with pytest.raises(ValueError, match="unknown kind"):
        StirlingTable(kind)
    rows = stirling_rows(kind, 3)
    with pytest.raises(ValueError, match="unknown kind"):
        next(rows)


def old_grow_loop(kind, n_max):
    """The int-only table fill that `next_row` replaced, kept as a reference."""
    rows = [[1]]
    while len(rows) <= n_max:
        m = len(rows)
        prev = rows[-1]
        row = [0] * (m + 1)
        for l in range(1, m + 1):
            row[l] = prev[l - 1]
        for l in range(m):
            if kind is StirlingKind.SIGNED_FIRST:
                row[l] -= (m - 1) * prev[l]
            elif kind is StirlingKind.UNSIGNED_FIRST:
                row[l] += (m - 1) * prev[l]
            else:
                row[l] += l * prev[l]
        rows.append(row)
    return rows


def held_layout(reference):
    """The rows a table holds once grown to the last row of `reference`."""
    last = len(reference) - 1
    return [row if n < 128 or n % 4 == 0 or n == last else None
            for n, row in enumerate(reference)]


@pytest.mark.parametrize("kind", list(StirlingKind))
def test_next_row_matches_the_old_grow_loop(kind):
    reference = old_grow_loop(kind, 300)
    for n in range(1, 301):
        assert next_row(kind, reference[n - 1], range(n)) == reference[n]
    assert list(stirling_rows(kind, 300)) == reference
    reads = [(n, l) for n in range(301) for l in range(-1, n + 2)]
    random.Random(0).shuffle(reads)
    table = StirlingTable(kind)
    assert all(table.value(n, l) == (reference[n][l] if 0 <= l <= n else 0) for n, l in reads)
    order = [*range(301), *random.Random(1).sample(range(301), 301)]
    assert all(table.row(n) == tuple(reference[n]) for n in order)
    assert len(table.rows) == 301 and table.rows == held_layout(reference)
    assert all(type(v) is int for row in table.rows if row is not None for v in row)


@pytest.mark.parametrize("kind", list(StirlingKind))
def test_a_walk_reads_the_one_recurrence(monkeypatch, kind):
    # patched as the mutation matrix patches it, stirling.next_row must reach
    # a value or row walked on a row that is not held: the walk keeps no copy
    # of it.  Row 301 is dropped once row 302 is built.
    reference = old_grow_loop(kind, 302)
    table = StirlingTable(kind)
    table.value(302, 0)
    assert table.rows[301] is None
    sound = stirling.next_row
    monkeypatch.setattr(stirling, "next_row",
                        lambda k, prev, ints: [v + 1 for v in sound(k, prev, ints)])
    assert all(table.value(301, l) != reference[301][l] for l in range(302))
    assert all(a != b for a, b in zip(table.row(301), reference[301]))
    assert [table.value(300, l) for l in range(301)] == reference[300]
    assert table.row(302) == tuple(reference[302])


@pytest.mark.parametrize("kind", list(StirlingKind))
def test_a_band_walk_equals_the_triangle(kind):
    # columns lo..hi of a dropped row n = m + d walk from columns lo-d..hi of
    # checkpoint m: bands reaching left of column 0 and right of row m's
    # width, and the first dropped rows past the prefix
    reference = old_grow_loop(kind, 263)
    table = StirlingTable(kind)
    table.value(263, 0)
    rows = table.rows
    for n in (129, 130, 131, 257, 258, 259, 261, 262):
        d = n % 4
        assert d and rows[n] is None
        bands = [(l, l) for l in (0, 1, d - 1, d, d + 1, n // 2, n - d, n - d + 1, n)]
        bands += [(0, n), (0, d), (d, n), (n - d - 1, n), (2, n - d), (n - d, n - 1), (n, n)]
        for lo, hi in bands:
            if 0 <= lo <= hi <= n:
                assert table._walk(rows, n, lo, hi) == reference[n][lo:hi + 1], (n, lo, hi)


@pytest.mark.parametrize("kind", list(StirlingKind))
def test_first_rows_cost_the_same_whatever_n_max(kind):
    # the ring's integers grow with the rows, so a triangle streamed to a
    # reader that stops early never holds n_max of them
    with decimal.localcontext(EXACT_INTEGERS):
        tracemalloc.start()
        try:
            rows = stirling_rows(kind, 200_000, Decimal(1))
            first = [next(rows) for _ in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert first == list(stirling_rows(kind, 2))
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", list(StirlingKind))
def test_decimal_rows_equal_the_int_rows(kind):
    with decimal.localcontext(EXACT_INTEGERS):
        rows = list(stirling_rows(kind, 200, Decimal(1)))
    assert rows == list(stirling_rows(kind, 200))
    assert all(type(v) is Decimal for row in rows for v in row)
