"""Bernoulli numbers and polynomials of arbitrary integer order.

B_n^(alpha)(x) is defined through the generating function
(t/(e^t-1))^alpha * e^{xt}.  The classical definition takes alpha a positive
integer, but t/(e^t-1) is a unit series, so integer powers of any sign are
well defined and the family extends to every alpha in Z; the identities
relating Cauchy and Bernoulli families evaluate at order n-k+1, which is
frequently zero or negative, making the extension mandatory here.

One generating function is held per order alpha in the table of unit
powers, ``series._unit_power``, which the higher-order Cauchy EGFs share;
numbers and polynomials are read off its int numerators.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm

from .polynomial import Polynomial
from .series import PowerSeries, _expm1_over_t, _unit_power, egf_coeff


def _gf(alpha: int, order: int) -> PowerSeries:
    """(t/(e^t-1))^alpha known at least to t^(order-1); a non-int alpha raises TypeError."""
    return _unit_power(_expm1_over_t, alpha, order)


def bernoulli_hi_numbers(n_max: int, alpha: int) -> list[Fraction]:
    """B_0^(alpha) .. B_n_max^(alpha) as EGF coefficients of (t/(e^t-1))^alpha."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    gf = _gf(alpha, n_max + 1)
    return [egf_coeff(gf, j) for j in range(n_max + 1)]


def bernoulli_hi_number(n: int, alpha: int) -> Fraction:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return egf_coeff(_gf(alpha, n + 1), n)


def bernoulli_hi_poly(n: int, alpha: int) -> Polynomial:
    """B_n^(alpha)(x) = sum_j C(n,j) B_j^(alpha) x^(n-j); monic of degree n.

    With the series' numerators N_j over D, B_j^(alpha) = j! N_j / D, so the
    x^(n-j) coefficient is perm(n, j) N_j / D, built on ints.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gf = _gf(alpha, n + 1)
    nums = gf.numerators
    return Polynomial.from_numerators([perm(n, j) * nums[j] for j in range(n, -1, -1)],
                                      gf.denominator)
