"""Bernoulli numbers and polynomials of arbitrary integer order.

B_n^(alpha)(x) is defined through the generating function
(t/(e^t-1))^alpha * e^{xt}.  The classical definition takes alpha a positive
integer, but t/(e^t-1) is a unit series, so integer powers of any sign are
well defined and the family extends to every alpha in Z; the identities
relating Cauchy and Bernoulli families evaluate at order n-k+1, which is
frequently zero or negative, making the extension mandatory here.

One generating function is held per order alpha and read by prefix (see
``series._PrefixMemo``); numbers and polynomials are read off its int
numerators.  An order whose neighbour towards 0 is held that far is built
from it by one division (above 0) or product (below 0) by (e^t-1)/t.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm

from .polynomial import Polynomial
from .series import PowerSeries, _expm1_over_t, _PrefixMemo, bernoulli_gf, egf_coeff


def _build_gf(alpha: int, order: int) -> PowerSeries:
    """(t/(e^t-1))^alpha at `order`: the held order next towards 0, over or times (e^t-1)/t."""
    step = (alpha > 1) - (alpha < -1)  # +-1 when |alpha| >= 2; -1, 0, 1 are built directly
    held = _GF.held(order, alpha - step) if step else None
    if held is None:
        return bernoulli_gf(alpha, order)
    return held / _expm1_over_t(order) if step > 0 else held * _expm1_over_t(order)


_GF = _PrefixMemo(_build_gf)


def _gf(alpha: int, order: int) -> PowerSeries:
    """(t/(e^t-1))^alpha known at least to t^(order-1); a non-int alpha raises TypeError."""
    if not isinstance(alpha, int):
        raise TypeError(f"alpha must be an int: {alpha!r}")
    return _GF.series(order, alpha)


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
