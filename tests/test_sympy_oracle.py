"""Differential checks against sympy, an oracle implemented outside this package.

Skipped when sympy is not installed (it is in the ``test`` extra).
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from cauchykit.bernoulli import bernoulli_hi_numbers, bernoulli_hi_poly  # noqa: E402
from cauchykit.cauchy import (CauchyKind, cauchy_hi_numbers, cauchy_hi_poly1,  # noqa: E402
                              cauchy_hi_poly2, poly_cauchy_poly1, poly_cauchy_poly2)
from cauchykit.polynomial import Polynomial  # noqa: E402
from cauchykit.series import cauchy1_gf  # noqa: E402
from cauchykit.stirling import stirling1_signed, stirling1_unsigned, stirling2  # noqa: E402

N_MAX = 40
t, x = sympy.symbols("t x")


def as_fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def test_stirling_numbers_match_sympy():
    for n in range(N_MAX + 1):
        for l in range(n + 1):
            assert stirling1_signed(n, l) == stirling(n, l, kind=1, signed=True)
            assert stirling1_unsigned(n, l) == stirling(n, l, kind=1)
            assert stirling2(n, l) == stirling(n, l, kind=2)


def test_order_one_bernoulli_polynomials_match_sympy():
    for n in range(25):
        expected = sympy.Poly(sympy.bernoulli(n, x), x).all_coeffs()[::-1]
        assert bernoulli_hi_poly(n, 1).coeffs == tuple(as_fraction(c) for c in expected)


def test_cauchy1_gf_matches_sympy_series():
    order = 20
    expansion = sympy.series(t / sympy.log(1 + t), t, 0, order).removeO()
    expected = sympy.Poly(expansion, t).all_coeffs()[::-1]
    assert len(expected) == order
    assert list(cauchy1_gf(order).coeffs[:order]) == [as_fraction(c) for c in expected]


def expansion(expr, n_max: int):
    """sympy's own expansion of expr in t, through t^n_max."""
    return sympy.series(expr, t, 0, n_max + 1).removeO()


def egf_values(expr, n_max: int) -> list[Fraction]:
    """n! [t^n] of sympy's own expansion of expr, n = 0..n_max."""
    expanded = expansion(expr, n_max)
    return [as_fraction(expanded.coeff(t, n) * sympy.factorial(n)) for n in range(n_max + 1)]


def egf_polys(unit, x_part, n_max: int) -> list[Polynomial]:
    """n! [t^n] of unit(t) * x_part(t, x) as polynomials in x, n = 0..n_max.

    The two factors are expanded apart, which is faster than one expansion
    of the product; their truncated product is exact through t^n_max.
    """
    product = sympy.expand(expansion(unit, n_max) * expansion(x_part, n_max))
    polys = [sympy.Poly(product.coeff(t, n) * sympy.factorial(n), x) for n in range(n_max + 1)]
    return [Polynomial([as_fraction(c) for c in p.all_coeffs()[::-1]]) for p in polys]


@pytest.mark.parametrize("kind, unit", [
    (CauchyKind.FIRST, t / sympy.log(1 + t)),
    (CauchyKind.SECOND, t / ((1 + t) * sympy.log(1 + t))),
], ids=["first", "second"])
def test_higher_order_cauchy_numbers_match_sympy_series(kind, unit):
    # (t/log(1+t))^k and (t/((1+t)log(1+t)))^k, k <= 3, n <= 10
    for k in range(1, 4):
        assert cauchy_hi_numbers(kind, 10, k) == egf_values(unit ** k, 10), k


@pytest.mark.parametrize("alpha", [-2, 3])
def test_higher_order_bernoulli_numbers_match_sympy_series(alpha):
    # (t/(e^t-1))^alpha at a negative and a positive order, n <= 8
    assert bernoulli_hi_numbers(8, alpha) == egf_values((t / (sympy.exp(t) - 1)) ** alpha, 8)


@pytest.mark.parametrize("poly, unit, x_part", [
    (cauchy_hi_poly1, t / sympy.log(1 + t), (1 + t) ** -x),
    (cauchy_hi_poly2, t / ((1 + t) * sympy.log(1 + t)), (1 + t) ** x),
], ids=["first", "second"])
def test_higher_order_cauchy_polynomials_match_sympy_series(poly, unit, x_part):
    # (t/log(1+t))^k (1+t)^(-x) and (t/((1+t)log(1+t)))^k (1+t)^x, k <= 3, n <= 6
    for k in range(1, 4):
        assert egf_polys(unit ** k, x_part, 6) == [poly(n, k) for n in range(7)], k


@pytest.mark.parametrize("alpha", [-2, 3])
def test_higher_order_bernoulli_polynomials_match_sympy_series(alpha):
    # (t/(e^t-1))^alpha e^(xt) at a negative and a positive order, n <= 6
    expected = egf_polys((t / (sympy.exp(t) - 1)) ** alpha, sympy.exp(x * t), 6)
    assert expected == [bernoulli_hi_poly(n, alpha) for n in range(7)]


def test_poly_cauchy_polynomials_match_sympy_integrals():
    # Komatsu's integrands (x_1...x_k - z)_n and (z - x_1...x_k)_n over the
    # unit k-cube, n <= 6, k <= 3; one z keeps sympy's integrals near 2 s
    z = Fraction(-3, 7)
    z_sym = sympy.Rational(z.numerator, z.denominator)
    coordinates = sympy.symbols("x1:4")
    for k in range(1, 4):
        cube = [(v, 0, 1) for v in coordinates[:k]]
        product = sympy.prod(coordinates[:k])
        for n in range(7):
            for poly, base in ((poly_cauchy_poly1, product - z_sym),
                               (poly_cauchy_poly2, z_sym - product)):
                integrand = sympy.prod([base - i for i in range(n)])
                assert poly(n, k, z) == as_fraction(sympy.integrate(integrand, *cube)), (n, k)
