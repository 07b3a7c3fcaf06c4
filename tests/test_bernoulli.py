"""Bernoulli numbers and polynomials of arbitrary integer order, and the
table of orders climbed by Noerlund's recurrence, checked against the series
power ``series.bernoulli_gf`` across the cap |alpha| <= n + 2."""

import random
from fractions import Fraction
from math import comb

import pytest

from cauchykit import bernoulli
from cauchykit.bernoulli import bernoulli_hi_number, bernoulli_hi_numbers, bernoulli_hi_poly
from cauchykit.cauchy import clear_caches
from cauchykit.polynomial import Polynomial
from cauchykit.series import PowerSeries, bernoulli_gf, egf_coeff

F = Fraction


def test_order_zero_numbers_are_delta():
    assert bernoulli_hi_numbers(6, 0) == [F(1)] + [F(0)] * 6


def test_classical_b2():
    assert bernoulli_hi_number(2, 1) == F(1, 6)


def test_order_two_numbers():
    assert bernoulli_hi_numbers(3, 2) == [F(1), F(-1), F(5, 6), F(-1, 2)]


def test_poly_order_zero_is_monomial():
    for n in range(6):
        assert bernoulli_hi_poly(n, 0) == Polynomial.monomial(n)


def test_poly_degree_and_leading():
    for n in range(8):
        for alpha in (-2, 0, 1, 3):
            p = bernoulli_hi_poly(n, alpha)
            assert p.degree == n
            assert p.leading == 1


def test_classical_linear_polynomial():
    assert bernoulli_hi_poly(1, 1) == Polynomial((F(-1, 2), 1))


def test_order_two_quadratic_at_one():
    # B_2^(2)(x) = x^2 - 2x + 5/6; the first-kind order-2 Cauchy number
    # instead equals B_2^(1)(1) = 1/6 (bridge order is n-k+1, not k)
    assert bernoulli_hi_poly(2, 2).evaluate(1) == F(-1, 6)
    assert bernoulli_hi_poly(2, 1).evaluate(1) == F(1, 6)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        bernoulli_hi_poly(-1, 2)
    with pytest.raises(ValueError):
        bernoulli_hi_numbers(-1, 2)


@pytest.mark.parametrize("alpha", range(-3, 4))
@pytest.mark.parametrize("beta", range(-3, 4))
def test_order_additivity_convolution(alpha, beta):
    n_max = 12
    a = bernoulli_hi_numbers(n_max, alpha)
    b = bernoulli_hi_numbers(n_max, beta)
    c = bernoulli_hi_numbers(n_max, alpha + beta)
    for n in range(n_max + 1):
        convolved = sum((comb(n, j) * a[j] * b[n - j] for j in range(n + 1)), F(0))
        assert convolved == c[n]


@pytest.mark.parametrize("alpha", range(-3, 4))
def test_negative_order_is_genuine_inverse(alpha):
    n_max = 10
    a = bernoulli_hi_numbers(n_max, alpha)
    inv = bernoulli_hi_numbers(n_max, -alpha)
    for n in range(n_max + 1):
        convolved = sum((comb(n, j) * a[j] * inv[n - j] for j in range(n + 1)), F(0))
        assert convolved == (1 if n == 0 else 0)


@pytest.mark.parametrize("alpha", (1, 2))
def test_difference_drops_order_by_one(alpha):
    # B_n^(a)(x+1) - B_n^(a)(x) = n B_(n-1)^(a-1)(x)
    for n in range(1, 11):
        p = bernoulli_hi_poly(n, alpha)
        assert p.shift(1) - p == bernoulli_hi_poly(n - 1, alpha - 1) * n


# -- the table of orders: Noerlund's recurrence against the series power --------

N = 40
ENTRY_POINTS = [bernoulli_hi_numbers, bernoulli_hi_number, bernoulli_hi_poly]


@pytest.fixture(scope="module")
def powers():
    """(t/(e^t-1))^alpha at order N + 1 by ``**``, for alpha up to N + 5 in size."""
    return {alpha: bernoulli_gf(alpha, N + 1) for alpha in range(-N - 5, N + 6)}


def numbers_by_power(powers, n, alpha):
    return [egf_coeff(powers[alpha], j) for j in range(n + 1)]


@pytest.fixture
def cold():
    clear_caches()
    yield
    clear_caches()


def test_the_climb_equals_the_series_power_across_the_cap(powers, cold):
    # every n <= N and every alpha up to three past the cap |alpha| <= n + 2,
    # read cold in a shuffled order, so the held orders are extended at random
    cases = [(n, alpha) for n in range(N + 1) for alpha in range(-n - 5, n + 6)]
    random.Random(42).shuffle(cases)
    for n, alpha in cases:
        assert bernoulli_hi_numbers(n, alpha) == numbers_by_power(powers, n, alpha), (n, alpha)


@pytest.mark.parametrize("reads", [
    [(3, 2), (30, 25), (35, 2), (36, 24)],
    [(2, -1), (10, -4), (38, -30), (39, -2)],
    [(20, 7), (5, -3), (40, 42), (40, -42), (12, 3)],
], ids=["up", "down", "both"])
def test_a_small_order_then_a_larger_one_reads_exact_values(powers, cold, reads):
    for n, alpha in reads:
        assert bernoulli_hi_numbers(n, alpha) == numbers_by_power(powers, n, alpha), (n, alpha)
    for n, alpha in reads:  # read back from the extended table
        assert bernoulli_hi_poly(n, alpha).evaluate(0) == numbers_by_power(powers, n, alpha)[n]


def test_the_table_holds_the_orders_asked_for_and_the_seed(cold):
    bernoulli_hi_numbers(60, 50)
    bernoulli_hi_numbers(60, -20)
    assert sorted(bernoulli._ORDERS) == [-20, 1, 50]
    bernoulli_hi_numbers(61, 20)  # a read past the length extends every held order
    assert sorted(bernoulli._ORDERS) == [-20, 1, 20, 50]
    assert {len(nums) for nums, _ in bernoulli._ORDERS.values()} == {122}
    clear_caches()
    assert not bernoulli._ORDERS


def test_an_in_cap_read_reads_no_series_power(monkeypatch, cold):
    def forbidden(*args):
        raise AssertionError("an in-cap read reached a series power")

    monkeypatch.setattr(bernoulli, "_unit_power", forbidden)
    monkeypatch.setattr(PowerSeries, "__pow__", forbidden)
    for n in range(31):
        for alpha in range(-n - 2, n + 3):
            bernoulli_hi_poly(n, alpha)
    with pytest.raises(AssertionError, match="series power"):
        bernoulli_hi_number(3, 6)  # past the cap


class Untouchable(dict):
    """A table that fails any read, so a check after the first read shows."""

    def get(self, *args):
        raise AssertionError("the table was read")

    __contains__ = __getitem__ = get


@pytest.mark.parametrize("bad", [3.0, Fraction(3), "3", None, float("nan"), 3000.0],
                         ids=["float", "Fraction", "str", "None", "nan", "3000.0"])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_a_non_int_n_or_alpha_raises_before_any_table_is_read(monkeypatch, cold, entry, bad):
    # a table keyed by int orders would read alpha = 3.0 and Fraction(3) as 3
    def forbidden(*args):
        raise AssertionError("a series power was read")

    monkeypatch.setattr(bernoulli, "_ORDERS", Untouchable())
    monkeypatch.setattr(bernoulli, "_unit_power", forbidden)
    with pytest.raises(TypeError, match="and alpha must be ints"):
        entry(bad, 2)
    with pytest.raises(TypeError, match="and alpha must be ints"):
        entry(4, bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_bool_counts_as_an_int(entry):
    assert entry(True, True) == entry(1, 1)
