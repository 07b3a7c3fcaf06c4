"""Degrees in the order parameters at fixed n, by finite differences.

A value that is a polynomial of degree d in k agrees with every k once it
agrees at d + 1 values, so these degrees are what lets a check on a finite
k or alpha grid stand for all k or alpha at that n.  Over 20 consecutive
parameter values, a degree d <= 18 shows as a (d+1)-th difference that
vanishes and a d-th difference that does not.
"""

import pytest

from cauchykit.bernoulli import bernoulli_hi_number
from cauchykit.cauchy import (cauchy_hi1, cauchy_hi2, cauchy_hi_poly1, cauchy_hi_poly2,
                              poly_cauchy1)
from cauchykit.stirling import stirling1_signed, stirling2

KS = range(1, 21)
ALPHAS = range(-5, 15)


def difference(values, order):
    """The order-th forward difference of `values`, len(values) - order entries."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def degree(values):
    """The exact degree of the polynomial through `values`, or None past len(values) - 2."""
    for d in range(len(values) - 1):
        if not any(difference(values, d + 1)):
            return d if any(difference(values, d)) else None
    return None


@pytest.mark.parametrize("number", [cauchy_hi1, cauchy_hi2])
def test_cauchy_numbers_have_degree_n_in_k(number):
    for n in range(8):
        assert degree([number(n, k) for k in KS]) == n


@pytest.mark.parametrize("poly", [cauchy_hi_poly1, cauchy_hi_poly2])
def test_each_cauchy_poly_coefficient_has_degree_n_minus_j_in_k(poly):
    for n in range(8):
        polys = [poly(n, k) for k in KS]
        for j in range(n + 1):
            assert degree([p.coefficient(j) for p in polys]) == n - j


def test_bernoulli_numbers_have_degree_n_in_alpha():
    for n in range(8):
        assert degree([bernoulli_hi_number(n, alpha) for alpha in ALPHAS]) == n


@pytest.mark.parametrize("stirling", [stirling2, stirling1_signed])
def test_stirling_polynomials_have_degree_2n_in_k(stirling):
    for n in range(8):
        assert degree([stirling(n + k, k) for k in KS]) == 2 * n


def test_poly_cauchy_numbers_are_not_polynomial_in_k():
    # an exponential polynomial in k with bases 1/(m+1), m = 0..4
    assert any(difference([poly_cauchy1(4, k) for k in KS], 18))
