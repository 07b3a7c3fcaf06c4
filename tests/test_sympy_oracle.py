"""Differential checks against sympy, an oracle implemented outside this package.

Skipped when sympy is not installed (it is in the ``test`` extra).
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from cauchykit.bernoulli import bernoulli_hi_numbers, bernoulli_hi_poly  # noqa: E402
from cauchykit.cauchy import CauchyKind, cauchy_hi_numbers  # noqa: E402
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


def egf_values(expr, n_max: int) -> list[Fraction]:
    """n! [t^n] of sympy's own expansion of expr, n = 0..n_max."""
    expansion = sympy.series(expr, t, 0, n_max + 1).removeO()
    return [as_fraction(expansion.coeff(t, n) * sympy.factorial(n)) for n in range(n_max + 1)]


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
