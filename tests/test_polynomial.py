"""Dense exact polynomials and the factorial-polynomial constructors."""

from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchykit.polynomial import (Polynomial, _linear_combination, falling_factorial,
                                  rising_factorial)
from cauchykit.series import PowerSeries
from interpolation_reference import interpolate

X = Polynomial.x()


def test_mul_builds_falling_factorial_2():
    assert Polynomial((-1, 1)) * X == Polynomial((0, -1, 1))  # (x-1)x = x^2 - x


def test_mul_identity():
    p = Polynomial((3, Fraction(1, 2), 7))
    assert p * Polynomial.one() == p


def test_truthiness_is_that_of_the_value():
    # as with Fraction(0): only the zero polynomial is falsy
    assert not Polynomial.zero()
    assert not Polynomial((0, Fraction(0)))
    assert not X - X
    assert Polynomial((Fraction(-1, 3),))
    assert X


def test_mul_square():
    assert Polynomial((1, 1)) * Polynomial((1, 1)) == Polynomial((1, 2, 1))


def test_eval_horner():
    p = Polynomial((0, -1, 1))  # x^2 - x
    assert p.evaluate(Fraction(1, 2)) == Fraction(-1, 4)


def test_eval_at_zero_is_constant_term():
    p = Polynomial((Fraction(5, 3), 2, 9))
    assert p.evaluate(0) == Fraction(5, 3)


def test_falling_factorial_value_matches_direct_product():
    # direct product oracle: 3*2*1
    direct = 1
    for i in range(3):
        direct *= 3 - i
    assert falling_factorial(3).evaluate(3) == direct == 6


def test_shift_square():
    assert (X ** 2).shift(1) == Polynomial((1, 2, 1))


def test_shift_zero_is_identity():
    p = Polynomial((2, 0, Fraction(-7, 3)))
    assert p.shift(0) == p


def test_shift_falling_factorial():
    # (x+1)x expanded
    assert falling_factorial(2).shift(1) == Polynomial((0, 1, 1))


def test_antiderivative():
    assert X.antiderivative() == Polynomial((0, 0, Fraction(1, 2)))
    assert Polynomial.one().antiderivative() == X
    assert (X ** 2 + X).antiderivative() == Polynomial((0, 0, Fraction(1, 2), Fraction(1, 3)))


def test_factorial_polynomials_small():
    assert falling_factorial(0) == Polynomial.one()
    assert falling_factorial(2) == Polynomial((0, -1, 1))
    assert falling_factorial(3) == Polynomial((0, 2, -3, 1))
    assert rising_factorial(0) == Polynomial.one()
    assert rising_factorial(2) == Polynomial((0, 1, 1))
    assert rising_factorial(3) == Polynomial((0, 2, 3, 1))


def linear_factor_product(n, step):
    """Reference: x(x+step)...(x+(n-1)step) as n products of linear polynomials."""
    result = Polynomial.one()
    for i in range(n):
        result = result * Polynomial((i * step, 1))
    return result


@pytest.mark.parametrize("n", range(41))
def test_factorials_equal_products_of_linear_factors(n):
    assert falling_factorial(n) == linear_factor_product(n, -1)
    assert rising_factorial(n) == linear_factor_product(n, 1)


@pytest.mark.parametrize("n", range(21))
def test_falling_factorial_at_n_is_factorial(n):
    assert falling_factorial(n).evaluate(n) == factorial(n)


@pytest.mark.parametrize("n", range(21))
def test_rising_is_reflected_falling(n):
    sign = -1 if n % 2 else 1
    assert rising_factorial(n) == falling_factorial(n).reflect() * sign


def test_degree_and_zero():
    assert Polynomial().degree == -1
    assert not Polynomial()
    assert not Polynomial((0, 0))
    assert Polynomial((1, 2, 0, 0)).degree == 1
    assert falling_factorial(5).degree == 5


@pytest.mark.parametrize("p, text", [
    (Polynomial(), "0"),
    (Polynomial((0, 0)), "0"),
    (Polynomial((Fraction(-3, 2),)), "-3/2"),
    (Polynomial((0, 1)), "x"),
    (Polynomial((0, -1)), "-x"),
    (Polynomial((1, 1, -1)), "1 + x - x^2"),
    (Polynomial((-3, 0, -2)), "-3 - 2*x^2"),
    (Polynomial((0, Fraction(1, 3), 0, Fraction(-5, 7))), "1/3*x - 5/7*x^3"),
], ids=["zero", "zero with trailing terms", "negative constant", "x", "-x",
        "unit coefficients", "negative leading term", "fractions"])
def test_str_renders_terms_from_the_constant_up(p, text):
    assert str(p) == text


def test_division_only_by_constants():
    p = X ** 2 + 1
    assert p / 2 == Polynomial((Fraction(1, 2), 0, Fraction(1, 2)))
    # a polynomial divides by an exact scalar only, a constant polynomial included
    for divisor in (X, Polynomial((2,))):
        with pytest.raises(TypeError):
            p / divisor
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_immutability():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (5,)


def test_interpolate_round_trip():
    p = Polynomial((Fraction(1, 3), -2, 0, 5))
    points = [(Fraction(i), p.evaluate(i)) for i in range(p.degree + 1)]
    assert interpolate(points) == p


def test_interpolate_requires_distinct_nodes():
    with pytest.raises(ValueError):
        interpolate([(0, 1), (0, 2)])


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.lists(small_fractions, min_size=0, max_size=7).map(Polynomial)


@settings(max_examples=60, derandomize=True)
@given(polys, small_fractions)
def test_shift_round_trip(p, a):
    assert p.shift(a).shift(-a) == p


def binomial_shift(p, offset):
    """Reference p(x + offset): expand each (x + offset)^i by the binomial theorem."""
    out = [Fraction(0)] * len(p.coeffs)
    for i, c in enumerate(p.coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * Fraction(offset) ** (i - j)
    return Polynomial(out)


@settings(max_examples=80, derandomize=True)
@given(polys, st.one_of(st.integers(-9, 9), small_fractions))
@example(Polynomial(), 3)
@example(Polynomial(), Fraction(-2, 3))
@example(Polynomial((Fraction(5, 3),)), Fraction(-2, 3))
@example(Polynomial((7,)), -4)
def test_shift_matches_binomial_expansion(p, a):
    assert p.shift(a) == binomial_shift(p, a)


def test_float_arguments_rejected():
    with pytest.raises(TypeError):
        Polynomial([1, 2]).evaluate(0.5)
    with pytest.raises(TypeError):
        Polynomial([1, 2]).shift(0.5)
    # the zero polynomial too, although its value needs no arithmetic
    for point in (0.5, Decimal("0.5")):
        with pytest.raises(TypeError):
            Polynomial().evaluate(point)


@settings(max_examples=60, derandomize=True)
@given(polys)
def test_antiderivative_matches_independent_integral(p):
    # independent oracle for the integral over [0,1]: sum c_i/(i+1)
    expected = sum((c / (i + 1) for i, c in enumerate(p.coeffs)), Fraction(0))
    anti = p.antiderivative()
    assert anti.evaluate(1) - anti.evaluate(0) == expected
    assert anti.derivative() == p


# -- integer-kernel product and Newton interpolation against the old code ------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def fraction_loop_mul(p, q):
    """Reference product: one Fraction multiply-add per pair of coefficients."""
    if not p.coeffs or not q.coeffs:
        return Polynomial()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def lagrange_interpolate(points):
    """Reference interpolation: sum of y_i times the Lagrange basis polynomial."""
    result = Polynomial.zero()
    for i, (xi, yi) in enumerate(points):
        basis = Polynomial.one()
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = fraction_loop_mul(basis, Polynomial((-xj, 1)))
                denom *= xi - xj
        result = result + basis * (Fraction(yi) / denom)
    return result


# each coefficient over its own prime: the common denominator is their product
coprime_polys = st.lists(st.integers(-60, 60), max_size=len(PRIMES)).map(
    lambda nums: Polynomial(Fraction(v, p) for v, p in zip(nums, PRIMES)))
wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
any_polys = st.one_of(polys, coprime_polys,
                      st.lists(wide_fractions, max_size=9).map(Polynomial))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(any_polys, any_polys)
@example(Polynomial(), Polynomial((1, 2)))
@example(Polynomial((Fraction(-3, 4),)), Polynomial((Fraction(1, 6), 0, Fraction(5, 9))))
@example(Polynomial((0, 0, Fraction(2, 7))), Polynomial((Fraction(7, 2),)))
def test_mul_matches_fraction_loop(p, q):
    product = p * q
    assert product.coeffs == fraction_loop_mul(p, q).coeffs
    assert all(type(c) is Fraction for c in product.coeffs)
    assert product == q * p


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.tuples(small_fractions, small_fractions), max_size=8,
                unique_by=lambda point: point[0]))
def test_interpolate_matches_lagrange_form(points):
    poly = interpolate(points)
    assert poly.coeffs == lagrange_interpolate(points).coeffs
    assert all(poly.evaluate(x) == y for x, y in points)
    assert poly.degree < max(len(points), 1)


def test_interpolate_keeps_edge_cases():
    assert interpolate([]) == Polynomial.zero()
    assert interpolate([(Fraction(1, 3), 0), (2, 0)]) == Polynomial.zero()
    assert interpolate([(5, Fraction(-2, 3))]) == Polynomial((Fraction(-2, 3),))
    with pytest.raises(ValueError):
        interpolate([(Fraction(1, 2), 1), (3, 0), (Fraction(2, 4), 2)])


def fraction_loop_evaluate(p, point):
    """Reference evaluation: Horner with one Fraction multiply-add per coefficient."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


wide_points = st.one_of(st.integers(-10**6, 10**6), wide_fractions,
                        st.fractions(min_value=-1, max_value=0, max_denominator=10**12))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(any_polys, wide_points)
@example(Polynomial(), Fraction(-3, 7))
@example(Polynomial(), 0)
@example(Polynomial((Fraction(5, 3),)), Fraction(-2, 3))
@example(Polynomial((Fraction(1, 6), -1, 1)), 7)
@example(Polynomial((0, Fraction(1, 2), 0, -1)), Fraction(-999_999_999_989, 10**12))
@example(Polynomial(Fraction(v, p) for v, p in zip(range(1, 17), PRIMES)),
         Fraction(-53, 999_999_999_989))
def test_evaluate_matches_fraction_horner(p, point):
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == fraction_loop_evaluate(p, Fraction(point))


# -- every operation on the (numerators, denominator) layout against Fraction lists --

def stripped(cs):
    """Reference coefficients: ``Fraction`` values, trailing zeros dropped."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def assert_lowest_terms(p):
    nums, den = p.numerators, p.denominator
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    assert not nums or nums[-1] != 0
    assert gcd(den, *nums) == 1


def reference_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_shift(a, offset):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(i + 1):
            out[j] += x * comb(i, j) * Fraction(offset) ** (i - j)
    return out


def reference_evaluate(a, point):
    acc = Fraction(0)
    for x in reversed(a):
        acc = acc * point + x
    return acc


def padded(lists):
    """Coefficient lists with up to three trailing zeros appended."""
    return st.tuples(lists, st.integers(0, 3)).map(lambda t: list(t[0]) + [0] * t[1])


coeff_lists = padded(st.one_of(
    st.lists(small_fractions, max_size=7),
    st.lists(st.integers(-60, 60), max_size=len(PRIMES)).map(
        lambda nums: [Fraction(v, p) for v, p in zip(nums, PRIMES)]),
    st.lists(wide_fractions, max_size=9)))
scalars = st.one_of(st.just(0), st.integers(-50, 50), small_fractions, wide_fractions,
                    st.fractions(max_value=0, max_denominator=10**6))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(coeff_lists, coeff_lists, scalars, wide_points)
@example([], [], 0, 0)
@example([0, 0], [Fraction(1, 2), 0], Fraction(-3, 4), Fraction(1, 3))
@example([Fraction(5, 6)], [], Fraction(-7, 2), -1)
@example([Fraction(v, p) for v, p in zip(range(1, 17), PRIMES)], [Fraction(1, 10**6), 0, 3],
         Fraction(-999_983, 10**6), Fraction(-53, 999_999_999_989))
def test_every_operation_matches_the_fraction_reference(a, b, c, point):
    p, q = Polynomial(a), Polynomial(b)
    ra, rb = stripped(a), stripped(b)
    pairs = [
        (p, ra),
        (p + q, [x + y for x, y in zip_longest(ra, rb, fillvalue=0)]),
        (p - q, [x - y for x, y in zip_longest(ra, rb, fillvalue=0)]),
        (-p, [-x for x in ra]),
        (p + c, [x + y for x, y in zip_longest(ra, (c,), fillvalue=0)]),
        (c - p, [y - x for x, y in zip_longest(ra, (c,), fillvalue=0)]),
        (p * c, [x * c for x in ra]),
        (c * p, [x * c for x in ra]),
        (p * q, reference_mul(ra, rb)),
        (p.shift(point), reference_shift(ra, point)),
        (p.reflect(), [-x if i % 2 else x for i, x in enumerate(ra)]),
        (p.derivative(), [i * x for i, x in enumerate(ra)][1:]),
        (p.antiderivative(), [0] + [x / (i + 1) for i, x in enumerate(ra)]),
    ]
    if c != 0:
        pairs.append((p / c, [x / Fraction(c) for x in ra]))
    for got, expected in pairs:
        assert_lowest_terms(got)
        assert got.coeffs == stripped(expected)
        assert got.degree == len(got.coeffs) - 1
    assert p.evaluate(point) == reference_evaluate(ra, Fraction(point))
    assert (p == c) == (ra == stripped([c]))
    # the same value reached by other routes is equal and hashes equally
    for other in ((p + q) - q, Polynomial.from_numerators(
            [v * 6 for v in p.numerators] + [0], p.denominator * 6), Polynomial(ra)):
        assert other == p and hash(other) == hash(p)


def test_layout_edge_cases():
    zero = Polynomial()
    assert (zero.numerators, zero.denominator) == ((), 1)
    for route in (Polynomial([0, Fraction(0, 3)]), Polynomial.from_numerators([0, 0], 7),
                  Polynomial([5]).derivative(), zero.antiderivative(), X * 0,
                  X * Fraction(0, 5), X - X):
        assert (route.numerators, route.denominator) == ((), 1)
        assert route == 0 and hash(route) == hash(zero)
    half = Polynomial([Fraction(1, 2), 1, 0])
    assert (half.numerators, half.denominator) == ((1, 2), 2)
    assert Polynomial.from_numerators([3, 6, 0, 0], 6) == half
    assert Polynomial([3]) == 3 and Polynomial([3]) != Fraction(3, 2)
    assert Polynomial([Fraction(1, 2)]) == Fraction(1, 2) and Polynomial([Fraction(1, 2)]) != 1
    assert half != Fraction(1, 2) and Polynomial() == 0 and Polynomial() != 1
    # a constant equals its scalar, so it must hash as that scalar too
    for value in (3, Fraction(1, 2), Fraction(-7, 3), 0):
        assert hash(Polynomial([value])) == hash(value)
        assert len({Polynomial([value]), value}) == 1
    assert half * Fraction(-2, 3) == Polynomial([Fraction(-1, 3), Fraction(-2, 3)])
    with pytest.raises(TypeError):
        Polynomial([1, 0.5])
    with pytest.raises(TypeError):
        Polynomial.from_numerators([1, 0.5])
    for den in (0, -2):
        with pytest.raises(ValueError):
            Polynomial.from_numerators([1], den)
        # a series checks its denominator as well
        for nums in ([0, 1], [1, 2]):
            with pytest.raises(ValueError):
                PowerSeries.from_numerators(nums, den)
    for make in (Polynomial.from_numerators, PowerSeries.from_numerators):
        with pytest.raises(TypeError):
            make([1], Fraction(2))


# -- the verifier's linear-combination kernel against a Fraction loop -------------

def reference_combination(terms):
    """Reference sum of c p: one Fraction multiply-add per coefficient of each term."""
    out = []
    for a, c in terms:
        out += [Fraction(0)] * (len(a) - len(out))
        for i, x in enumerate(a):
            out[i] += Fraction(x) * c
    return out


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(st.tuples(coeff_lists, scalars), max_size=6))
@example([])
@example([([0, 0], 3), ([Fraction(1, 2), 0], 0), ([], Fraction(-5, 7))])
@example([([1, 2], Fraction(1, 2)), ([2, 4], Fraction(-1, 4))])
@example([([Fraction(v, p) for v, p in zip(range(1, 17), PRIMES)], -7),
          ([Fraction(1, 10**6), 0, 3], Fraction(-999_983, 10**6)), ([5], 2)])
def test_linear_combination_matches_the_fraction_reference(terms):
    # zero weights, int and Fraction weights mixed, trailing zeros, wide and
    # negative denominators; the ([1, 2], 1/2), ([2, 4], -1/4) example cancels
    pairs = [(Polynomial(a), c) for a, c in terms]
    got = _linear_combination(pairs)
    assert_lowest_terms(got)
    assert got.coeffs == stripped(reference_combination(terms))
    assert _linear_combination(iter(pairs)) == got
    # adding each term's negation cancels to the zero polynomial's one layout
    cancelled = _linear_combination(pairs + [(p, -c) for p, c in pairs])
    assert (cancelled.numerators, cancelled.denominator) == ((), 1)


def test_linear_combination_takes_only_exact_scalar_weights():
    assert _linear_combination([]) == Polynomial.zero()
    for weight in (0.5, 0.0, X, Polynomial.one(), "1", None):
        with pytest.raises(TypeError):
            _linear_combination([(X, 1), (X, weight)])
