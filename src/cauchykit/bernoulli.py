"""Bernoulli numbers and polynomials of arbitrary integer order.

B_n^(alpha)(x) is defined through the generating function
(t/(e^t-1))^alpha * e^{xt}.  The classical definition takes alpha a positive
integer, but t/(e^t-1) is a unit series, so integer powers of any sign are
well defined and the family extends to every alpha in Z; the identities
relating Cauchy and Bernoulli families evaluate at order n-k+1, which is
frequently zero or negative, making the extension mandatory here.

Number lists are cached per (order, truncation); polynomials are assembled
from binomial convolutions of the cached numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .polynomial import Polynomial
from .series import PowerSeries, bernoulli_gf, egf_coeff


@lru_cache(maxsize=None, typed=True)
def _gf(alpha: int, order: int) -> PowerSeries:
    return bernoulli_gf(alpha, order)


def bernoulli_hi_numbers(n_max: int, alpha: int) -> list[Fraction]:
    """B_0^(alpha) .. B_n_max^(alpha) as EGF coefficients of (t/(e^t-1))^alpha."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    gf = _gf(alpha, n_max + 1)
    return [egf_coeff(gf, j) for j in range(n_max + 1)]


def bernoulli_hi_number(n: int, alpha: int) -> Fraction:
    return bernoulli_hi_numbers(n, alpha)[n]


def bernoulli_hi_poly(n: int, alpha: int) -> Polynomial:
    """B_n^(alpha)(x) = sum_j C(n,j) B_j^(alpha) x^(n-j); monic of degree n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    numbers = bernoulli_hi_numbers(n, alpha)
    return Polynomial([comb(n, j) * numbers[j] for j in reversed(range(n + 1))])
