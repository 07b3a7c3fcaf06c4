"""The memos grown under a lock: the generating-function memos (one series per
key, read by prefix, built from a held neighbour when they can be), the
integral-oracle ladder (one list of rounds per key) and the cube-volume table
(one int row per k)."""

import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

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
from cauchykit.series import bernoulli_gf, cauchy1_gf, cauchy2_gf, egf_coeff, one_series

ALPHAS = (-2, 0, 1, 3)
KS = (0, 1, 3)


@pytest.fixture
def cold_memos():
    clear_caches()
    yield
    clear_caches()


def counting(monkeypatch, module, name, key_of):
    """Patch module.name to count its calls per key; returns the Counter."""
    calls = Counter()
    original = getattr(module, name)

    def counted(*args):
        calls[key_of(args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_sweep_builds_few_series_per_key(monkeypatch, cold_memos):
    bernoulli_builds = counting(monkeypatch, bernoulli, "bernoulli_gf", lambda args: args[0])
    cauchy_builds = counting(monkeypatch, cauchy, "cauchy1_gf", lambda args: None)
    for alpha in ALPHAS:
        for n in range(64):
            bernoulli_hi_poly(n, alpha)
    for k in KS:
        before = sum(cauchy_builds.values())
        for n in range(64):
            cauchy_hi1(n, k)
        assert sum(cauchy_builds.values()) - before <= 7
    assert set(bernoulli_builds) == set(ALPHAS)
    assert max(bernoulli_builds.values()) <= 7


def test_first_fill_is_built_at_the_order_asked_for(monkeypatch, cold_memos):
    orders = counting(monkeypatch, bernoulli, "bernoulli_gf", lambda args: args[1])
    bernoulli_hi_numbers(60, 2)
    assert orders == {61: 1}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bernoulli_values_across_a_growth_step_equal_an_exact_build(cold_memos, alpha):
    bernoulli_hi_poly(4, alpha)      # held at order 5
    grown = bernoulli_hi_poly(5, alpha)  # a miss: built at order 10
    assert bernoulli._GF.series(1, alpha).order == 10
    for n in (3, 5, 6, 9):
        exact = bernoulli_gf(alpha, n + 1)
        numbers = [egf_coeff(exact, j) for j in range(n + 1)]
        assert bernoulli_hi_numbers(n, alpha) == numbers
        assert bernoulli_hi_number(n, alpha) == numbers[n]
        assert bernoulli_hi_poly(n, alpha) == Polynomial(
            [comb(n, j) * numbers[j] for j in reversed(range(n + 1))])
    assert grown.degree == 5


@pytest.mark.parametrize("kind, gf", [(CauchyKind.FIRST, cauchy1_gf),
                                      (CauchyKind.SECOND, cauchy2_gf)])
@pytest.mark.parametrize("k", KS)
def test_cauchy_values_across_a_growth_step_equal_an_exact_build(cold_memos, kind, gf, k):
    cauchy_hi_numbers(kind, 6, k)    # held at order 7
    cauchy_hi_numbers(kind, 7, k)    # a miss: built at order 14
    for n in (4, 7, 8, 13):
        exact = gf(n + 1) ** k
        assert cauchy_hi_numbers(kind, n, k) == [egf_coeff(exact, j) for j in range(n + 1)]


def test_neighbour_builds_equal_exact_builds(monkeypatch, cold_memos):
    # every order alpha read in a shuffled order, so some are built from a
    # held neighbour and some from scratch, at orders the doubling rule picks
    by_neighbour = counting(monkeypatch, bernoulli, "_expm1_over_t", lambda args: None)
    cases = [(n, alpha) for alpha in range(-6, 31) for n in range(36)]
    random.Random(24).shuffle(cases)
    for n, alpha in cases:
        exact = bernoulli_gf(alpha, n + 1)
        assert bernoulli_hi_poly(n, alpha) == Polynomial(
            [comb(n, j) * egf_coeff(exact, j) for j in reversed(range(n + 1))]), (n, alpha)
    assert sum(by_neighbour.values()) > 0
    cases = [(kind, n, k) for kind in CauchyKind for k in range(7) for n in range(36)]
    random.Random(24).shuffle(cases)
    for kind, n, k in cases:
        exact = (cauchy1_gf if kind is CauchyKind.FIRST else cauchy2_gf)(n + 1) ** k
        assert cauchy_hi_numbers(kind, n, k) == [egf_coeff(exact, j) for j in range(n + 1)]


def test_a_held_neighbour_builds_without_the_builder(monkeypatch, cold_memos):
    for alpha in (2, -2):
        bernoulli_hi_numbers(9, alpha)             # held at order 10
    for kind in CauchyKind:
        cauchy_hi_numbers(kind, 9, 1)
        cauchy_hi_numbers(kind, 9, 2)
    builds = counting(monkeypatch, bernoulli, "bernoulli_gf", lambda args: args)
    cauchy_builds = [counting(monkeypatch, cauchy, name, lambda args: args)
                     for name in ("cauchy1_gf", "cauchy2_gf")]
    bernoulli_hi_numbers(9, 3)
    bernoulli_hi_numbers(9, -3)
    bernoulli_hi_numbers(5, 4)                     # from 3, held at order 10 >= 6
    for kind in CauchyKind:
        cauchy_hi_numbers(kind, 9, 3)
    assert not builds and not any(cauchy_builds)
    bernoulli_hi_numbers(20, 5)                    # 4 is held only to order 6
    assert builds == {(5, 21): 1}
    assert bernoulli._GF.series(1, 4).order == 6


def test_order_zero_takes_no_division(monkeypatch, cold_memos):
    def forbidden(*args):
        raise AssertionError("order 0 divided")

    monkeypatch.setattr(series, "_divide_ints", forbidden)
    for alpha in (0, -1, -4):                      # ((e^t-1)/t)^(-alpha), closed form
        assert bernoulli_gf(alpha, 12).order == 12
    assert bernoulli_gf(0, 12).numerators == one_series(12).numerators
    for kind in CauchyKind:
        gf = cauchy._build_hi_gf(kind, 0, 12)
        assert (gf.order, gf.numerators, gf.denominator) == (12, (1,) + (0,) * 11, 1)
        assert cauchy_hi_numbers(kind, 11, 0) == [1] + [0] * 11


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
        bernoulli._gf(2.0, 3)
    with pytest.raises(TypeError):
        bernoulli._gf(Fraction(2), 3)
    with pytest.raises(TypeError):
        cauchy._hi_gf(CauchyKind.FIRST, 2.0, 3)


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


def test_concurrent_first_use_reads_the_same_values(monkeypatch, cold_memos):
    reference = sweep()
    builds = []  # list.append is atomic, a Counter update is not
    original = bernoulli.bernoulli_gf
    monkeypatch.setattr(bernoulli, "bernoulli_gf",
                        lambda alpha, order: builds.append(alpha) or original(alpha, order))
    for _ in range(3):
        clear_caches()
        builds.clear()
        assert run_in_eight_threads(sweep) == [reference] * 8
        # growth under the lock: no thread rebuilds an order another has built
        assert max(Counter(builds).values()) <= 7


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
        # entry (m, j), j >= 1, sums m + 1 terms: built once, it reads m + 1 binomials
        assert len(combs) == sum(m + 1 for m in range(25) for _ in range(1, 6))
