"""The memos grown under a lock: the table of unit powers (one series per
(unit, exponent), read by prefix, each built as one power of f/t), the table
of Bernoulli orders (one int row per order, all at one length), the
integral-oracle ladder (one list of rounds per key) and the cube-volume
table (one int row per k).

Both Cauchy kinds read their generating functions as powers of a unit t/f
through one rule, ``series._unit_power``; Bernoulli reads it only past its
cap |alpha| <= n + 2 and climbs its orders below it.  The tests of the rule
run over the three units of ``UNITS``; the tests of what a public family
builds run over the units whose family reads the rule, and read the
Bernoulli table for Bernoulli."""

import random
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchykit import bernoulli, cauchy, series
from cauchykit.bernoulli import bernoulli_hi_number, bernoulli_hi_numbers, bernoulli_hi_poly
from cauchykit.cauchy import (
    CauchyKind,
    CauchyMethod,
    cauchy_hi,
    cauchy_hi1,
    cauchy_hi2,
    cauchy_hi_numbers,
    cauchy_hi_poly_oracle,
    clear_caches,
    poly_cauchy_poly,
)
from cauchykit.polynomial import Polynomial
from cauchykit.series import (PowerSeries, bernoulli_gf, cauchy1_gf, cauchy2_gf, egf_coeff,
                              one_series)
from cauchykit.verifier import run_suite


def bernoulli_numbers(n: int, alpha: int) -> list[Fraction]:
    """B_j^(alpha), j <= n, read three ways that must agree: the list, B_n and B_n(x)."""
    numbers = bernoulli_hi_numbers(n, alpha)
    assert bernoulli_hi_number(n, alpha) == numbers[n]
    assert bernoulli_hi_poly(n, alpha) == Polynomial(
        [comb(n, j) * numbers[j] for j in reversed(range(n + 1))])
    return numbers


@dataclass(frozen=True)
class Unit:
    """A unit t/f whose powers one public family reads."""

    name: str
    over_t: Callable[[int], PowerSeries]             # f/t at an order
    numbers: Callable[[int, int], list]              # the family's values 0..n at exponent e
    exact: Callable[[int, int], PowerSeries]         # (t/f)^e at an order, built from scratch
    exponents: tuple[int, ...]                       # exponents the public family accepts
    wide: range                                      # a wider sweep of them


UNITS = [
    Unit("bernoulli", series._expm1_over_t, bernoulli_numbers, bernoulli_gf,
         (-2, 0, 1, 3), range(-6, 31)),
    Unit("cauchy1", series._log1p_over_t,
         lambda n, k: cauchy_hi_numbers(CauchyKind.FIRST, n, k),
         lambda k, order: cauchy1_gf(order) ** k, (0, 1, 3), range(7)),
    Unit("cauchy2", series._one_plus_t_log1p_over_t,
         lambda n, k: cauchy_hi_numbers(CauchyKind.SECOND, n, k),
         lambda k, order: cauchy2_gf(order) ** k, (0, 1, 3), range(7)),
]
BERNOULLI, CAUCHY1, CAUCHY2 = UNITS
BY_KIND = {CauchyKind.FIRST: CAUCHY1, CauchyKind.SECOND: CAUCHY2}


def exact_numbers(unit: Unit, n: int, e: int) -> list[Fraction]:
    exact = unit.exact(e, n + 1)
    return [egf_coeff(exact, j) for j in range(n + 1)]


@pytest.fixture
def cold_memos():
    clear_caches()
    yield
    clear_caches()


class RecordingPowers(dict):
    """A table of unit powers that lists each build as (over_t, e, order).

    ``_unit_power`` stores each series it builds under its lock, so the list
    is exact when threads race.
    """

    def __init__(self):
        super().__init__()
        self.builds = []

    def __setitem__(self, key, value):
        self.builds.append((*key, value.order))
        super().__setitem__(key, value)


@pytest.fixture
def builds(monkeypatch, cold_memos):
    """The builds of a table that starts empty, in every module that binds it."""
    table = RecordingPowers()
    for module in (series, cauchy):
        monkeypatch.setattr(module, "_POWERS", table)
    return table.builds


class RecordingOrders(dict):
    """A table of Bernoulli orders that lists each order it stores as (alpha, length)."""

    def __init__(self):
        super().__init__()
        self.builds = []

    def __setitem__(self, alpha, value):
        self.builds.append((alpha, len(value[0])))
        super().__setitem__(alpha, value)


@pytest.fixture
def orders(monkeypatch, cold_memos):
    """The orders stored in a Bernoulli table that starts empty, in every module that binds it."""
    table = RecordingOrders()
    for module in (bernoulli, cauchy):
        monkeypatch.setattr(module, "_ORDERS", table)
    return table.builds


def test_a_sweep_builds_few_series_per_key(builds, orders):
    for unit in (CAUCHY1, CAUCHY2):
        for e in unit.exponents:
            before = len(builds)
            for n in range(64):
                unit.numbers(n, e)
            assert 1 <= len(builds) - before <= 7
            assert {key[:2] for key in builds[before:]} == {(unit.over_t, e)}
    # inside its cap, Bernoulli builds no series and doubles its table's length
    before = len(builds)
    for e in BERNOULLI.exponents:
        for n in range(max(0, abs(e) - 2), 64):
            BERNOULLI.numbers(n, e)
    assert len(builds) == before
    assert {length for _, length in orders} == {1, 2, 4, 8, 16, 32, 64}


def test_a_cold_default_verify_builds_26_powers(builds, orders):
    # the unit-power traffic of the headline run: a change that moves it says so.
    # Bernoulli reads a power only past its cap, at n = 0 with |alpha| = 3
    run_suite()
    assert Counter(over_t for over_t, _, _ in builds) == {
        series._expm1_over_t: 2, series._log1p_over_t: 20,
        series._one_plus_t_log1p_over_t: 4}
    assert [key[1:] for key in builds if key[0] is series._expm1_over_t] == [(-3, 1), (3, 1)]
    assert max(order for _, _, order in builds) <= 30
    assert sorted(bernoulli._ORDERS) == list(range(-2, 16))
    assert {len(nums) for nums, _ in bernoulli._ORDERS.values()} == {16}


def test_first_fill_is_built_at_the_order_asked_for(builds, orders):
    for unit in UNITS:
        unit.numbers(60, 2)
    assert builds == [(unit.over_t, 2, 61) for unit in (CAUCHY1, CAUCHY2)]
    assert orders == [(1, 61), (2, 61)]


def held_order(unit: Unit, e: int) -> int:
    """The order at which the memo holds the unit's power e."""
    if unit is BERNOULLI:
        return len(bernoulli._ORDERS[e][0])
    return series._POWERS[unit.over_t, e].order


def assert_a_growth_step_equals_an_exact_build(unit: Unit, e: int) -> None:
    unit.numbers(6, e)      # held at order 7
    unit.numbers(7, e)      # a miss: built at order 14
    assert held_order(unit, e) == 14
    for n in (4, 7, 8, 13):
        assert unit.numbers(n, e) == exact_numbers(unit, n, e)


@pytest.mark.parametrize("alpha", BERNOULLI.exponents)
def test_bernoulli_values_across_a_growth_step_equal_an_exact_build(cold_memos, alpha):
    assert_a_growth_step_equals_an_exact_build(BERNOULLI, alpha)


@pytest.mark.parametrize("kind", list(CauchyKind))
@pytest.mark.parametrize("k", CAUCHY1.exponents)
def test_cauchy_values_across_a_growth_step_equal_an_exact_build(cold_memos, kind, k):
    assert_a_growth_step_equals_an_exact_build(BY_KIND[kind], k)


def test_shuffled_reads_equal_exact_builds(cold_memos):
    # every exponent read in a shuffled order, so each key is grown at the
    # orders the doubling rule picks, among other keys held at other orders
    for unit in UNITS:
        cases = [(n, e) for e in unit.wide for n in range(36)]
        random.Random(24).shuffle(cases)
        for n, e in cases:
            assert unit.numbers(n, e) == exact_numbers(unit, n, e), (unit.name, n, e)


def test_a_miss_builds_one_power_of_a_fresh_unit(monkeypatch, cold_memos):
    # a miss at held order h raises f/t at max(order, 2h) to -e, whatever
    # else is held; a negative power inverts first and then raises to e
    powers = []
    original = PowerSeries.__pow__
    monkeypatch.setattr(PowerSeries, "__pow__",
                        lambda self, e: powers.append((self.order, e)) or original(self, e))
    for unit in UNITS:
        for e in (2, 3, -2, -3):
            series._unit_power(unit.over_t, e, 10)                # held at order 10
        for e, order, built in ((3, 12, 20), (-3, 12, 20), (4, 6, 6), (4, 21, 21), (4, 30, 42)):
            powers.clear()
            series._unit_power(unit.over_t, e, order)
            assert powers[0] == (built, -e), (unit.name, e, order)
            assert powers[1:] == ([(built, e)] if e > 0 else []), (unit.name, e, order)
            assert series._POWERS[unit.over_t, e].order == built


def test_order_zero_takes_no_division(monkeypatch, cold_memos):
    def forbidden(*args):
        raise AssertionError("order 0 divided")

    monkeypatch.setattr(series, "_divide_ints", forbidden)
    for alpha in (0, -1, -4):                      # ((e^t-1)/t)^(-alpha), closed form
        assert bernoulli_gf(alpha, 12).order == 12
    assert bernoulli_gf(0, 12).numerators == one_series(12).numerators
    for unit in UNITS:
        for e in (0, -1, -4):
            assert series._unit_power(unit.over_t, e, 12).order == 12
        gf = series._unit_power(unit.over_t, 0, 12)
        assert (gf.order, gf.numerators, gf.denominator) == (12, (1,) + (0,) * 11, 1)
        assert unit.numbers(11, 0) == [1] + [0] * 11


def test_the_volume_table_builds_only_the_entries_asked_for(cold_memos):
    cauchy._sum_power_volume(3, 4)
    assert [len(row) for row in cauchy._VOLUMES] == [4] * 5
    cauchy._sum_power_volume(6, 2)
    assert [len(row) for row in cauchy._VOLUMES] == [7, 7, 7, 4, 4]
    assert cauchy._sum_power_volume(2, 1) == Fraction(1, 3)   # a held entry, read back


def test_an_inexact_key_raises_before_the_memo_is_read(cold_memos):
    bernoulli_hi_poly(4, 2)
    cauchy_hi1(4, 2)
    with pytest.raises(TypeError):
        bernoulli_hi_poly(3, 2.0)
    with pytest.raises(TypeError):
        bernoulli_hi_poly(3, Fraction(2))
    with pytest.raises(TypeError):
        cauchy._hi_gf(CauchyKind.FIRST, 2.0, 3)
    for unit in UNITS:
        with pytest.raises(TypeError):
            series._unit_power(unit.over_t, Fraction(2), 3)


@pytest.mark.parametrize("unit", UNITS, ids=[unit.name for unit in UNITS])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 40)), min_size=1, max_size=12))
def test_any_request_sequence_reads_the_exact_power(unit, requests):
    # whatever is held, and at whatever order the doubling rule builds, a
    # request at order N reads (f/t)^-e to N terms
    clear_caches()
    for e, order in requests:
        power = series._unit_power(unit.over_t, e, order)
        exact = unit.over_t(order) ** -e
        assert power.order >= order
        prefix = power.truncate(order)
        assert (prefix.numerators, prefix.denominator) == (exact.numerators, exact.denominator)


def sweep():
    return ([bernoulli_hi_poly(n, alpha) for alpha in (-1, 2) for n in range(40)]
            + [f(n, k) for f in (cauchy_hi1, cauchy_hi2) for k in (1, 4) for n in range(40)])


def run_in_eight_threads(work):
    """The results of work() run in eight threads that switch as often as possible."""
    results, errors = {}, []

    def run(index):
        try:
            results[index] = work()
        except Exception as exc:  # a race shows up as an IndexError or a wrong value
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    return [results[i] for i in range(8)]


def test_concurrent_first_use_reads_the_same_values(builds, orders):
    reference = sweep()
    for _ in range(3):
        clear_caches()
        builds.clear()
        orders.clear()
        assert run_in_eight_threads(sweep) == [reference] * 8
        # growth under the lock: no thread rebuilds an order another has built
        per_key = Counter((over_t, e) for over_t, e, _ in builds)
        assert len(per_key) == 4 and max(per_key.values()) <= 7
        assert {alpha for alpha, _ in orders} == {-1, 1, 2}
        assert max(Counter(orders).values()) == 1


def bernoulli_sweep():
    cases = [(n, alpha) for alpha in (-4, -1, 2, 7, 12) for n in range(max(0, abs(alpha) - 2), 40)]
    random.Random(threading.get_ident()).shuffle(cases)
    return {case: bernoulli_hi_poly(*case) for case in cases}


def test_concurrent_first_use_builds_each_bernoulli_order_once(orders):
    reference = bernoulli_sweep()
    for _ in range(3):
        clear_caches()
        orders.clear()
        assert run_in_eight_threads(bernoulli_sweep) == [reference] * 8
        # growth under the lock: each order is stored once at each length the table takes
        assert max(Counter(orders).values()) == 1
        assert {alpha for alpha, _ in orders} == {-4, -1, 1, 2, 7, 12}


NS, KS, ZS = range(14), (4, 2, 1, 3), (Fraction(0), Fraction(1, 2), Fraction(-3, 7))


def oracle_sweep():
    return [(cauchy_hi(kind, n, k, CauchyMethod.INTEGRAL_ORACLE), cauchy_hi_poly_oracle(kind, n, k),
             [poly_cauchy_poly(kind, n, k, z) for z in ZS])
            for kind in CauchyKind for n in NS for k in KS]


def test_concurrent_first_use_builds_each_ladder_round_once(monkeypatch, cold_memos):
    reference = oracle_sweep()
    rounds = []
    original = cauchy._cube_mean
    monkeypatch.setattr(cauchy, "_cube_mean", lambda p, k: rounds.append(k) or original(p, k))
    for _ in range(3):
        clear_caches()
        rounds.clear()
        assert run_in_eight_threads(oracle_sweep) == [reference] * 8
        # one round per (kind, n, j), j = 1..max k: no thread rebuilds a round
        assert rounds == [1] * (len(CauchyKind) * len(NS) * max(KS))


VOLUME_CELLS = [(l, k) for l in range(25) for k in range(6)]


def volume_sweep():
    cells = VOLUME_CELLS[:]
    random.Random(threading.get_ident()).shuffle(cells)
    return {cell: cauchy._sum_power_volume.__wrapped__(*cell) for cell in cells}


def test_concurrent_first_use_builds_each_volume_entry_once(monkeypatch, cold_memos):
    reference = volume_sweep()
    combs = []
    original = cauchy.comb

    def counted(n, r):
        combs.append(n)
        time.sleep(0)  # yields the GIL, so threads interleave inside every build
        return original(n, r)

    monkeypatch.setattr(cauchy, "comb", counted)
    for _ in range(3):
        clear_caches()
        combs.clear()
        assert run_in_eight_threads(volume_sweep) == [reference] * 8
        # entry (m, j), j >= 1, sums m + 1 terms: built once, it reads m + 1 binomials;
        # each read of a cell by each of the eight sweeps divides by one more
        assert len(combs) == (sum(m + 1 for m in range(25) for _ in range(1, 6))
                              + 8 * len(VOLUME_CELLS))
