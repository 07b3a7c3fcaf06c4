"""Cauchy numbers and polynomials: classical, poly-, and higher-order kinds.

The classical Cauchy numbers are the moments of the falling factorial,

    C_n      = integral_0^1 (x)_n dx,
    Chat_n   = integral_0^1 (-x)_n dx.

The poly-Cauchy family integrates a *product* of k coordinates,

    pc1(n,k)(z) = int...int (x_1 x_2 ... x_k - z)_n dx_1 ... dx_k,

while the higher-order family integrates the *sum* of k coordinates,

    C_n^(k)(x)    = int...int (x_1 + ... + x_k - x)_n dx,
    Chat_n^(k)(x) = int...int (x - (x_1 + ... + x_k))_n dx,

with exponential generating functions (t/log(1+t))^k (1+t)^{-x} and
(t/((1+t)log(1+t)))^k (1+t)^x.

Every second-kind family is the first-kind one with the integrand (-x)_n in
place of (x)_n, so each concept is written once and takes a ``CauchyKind``;
the numbered names (``cauchy1``, ``poly_cauchy_poly2``, ...) are wrappers.

Every higher-order number is computable along several independent paths
(``CauchyMethod``): a Stirling-number sum, a multinomial convolution of
classical values, an EGF coefficient, a Bernoulli-polynomial bridge of
order n-k+1, and an iterated-antiderivative integration oracle.  The oracle
(``cube_integrate``/``product_integrate``, and ``cauchy_hi_poly_oracle`` for
the polynomials) never touches Stirling numbers or series, so agreement
between paths is a genuine cross-check, not a tautology.  The memoised
``cauchy_hi_poly1/2`` hold the triple sum; T4/T7 check it against the bridge.
The GF_COEFF path reads the kind's EGF to the power k from the table of unit
powers, ``series._unit_power``, as ``bernoulli`` reads its orders alpha.  The
oracles climb one ladder per (kind, n), ``_LADDER``; ``_poly_cauchy_moments``
holds one z-polynomial per (kind, n, k); ``_VOLUMES`` holds the cube volumes,
one row per k of S2-sized ints over C(l+k, l); ``clear_caches`` empties every memo.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul

from .bernoulli import bernoulli_hi_poly
from .polynomial import Polynomial, _over_common_denominator, falling_factorial
from .rational import _as_fraction
from .series import (_POWERS, _POWERS_LOCK, PowerSeries, _log1p_over_t, _one_plus_t_log1p_over_t,
                     _unit_power, egf_coeff)
from .stirling import StirlingKind, stirling_table


class CauchyKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class CauchyMethod(enum.Enum):
    STIRLING_SUM = "stirling_sum"
    CONVOLUTION = "convolution"
    GF_COEFF = "gf_coeff"
    BERNOULLI_BRIDGE = "bernoulli_bridge"
    INTEGRAL_ORACLE = "integral_oracle"


# -- the two kinds: the integrand for the oracles, its coefficients for the sums --

def _integrand(kind: CauchyKind, n: int) -> Polynomial:
    """(x)_n for the first kind, (-x)_n for the second; no Stirling numbers."""
    ff = falling_factorial(n)
    return ff if kind is CauchyKind.FIRST else ff.reflect()


def _stirling_row(kind: CauchyKind, n: int) -> Sequence[int]:
    """The x^m coefficients of the integrand: s(n,m), or (-1)^m s(n,m); one table row."""
    row = stirling_table(StirlingKind.SIGNED_FIRST).row(n)
    return row if kind is CauchyKind.FIRST else [-c if m % 2 else c for m, c in enumerate(row)]


# -- integration oracles -------------------------------------------------------

def _cube_mean(p: Polynomial, k: int) -> Polynomial:
    """u -> the integral of p(u + x_1 + ... + x_k) over the unit k-cube.

    One coordinate is integrated out per round: with P the antiderivative of
    the current integrand q, the next integrand is u -> P(u+1) - P(u).  Only
    antiderivative and shift are used, keeping this path independent of the
    combinatorial formulas it is used to check.
    """
    q = p
    for _ in range(k):
        anti = q.antiderivative()
        q = anti.shift(1) - anti
    return q


# (kind, n) -> [q_0, q_1, ...]: q_0 the integrand, q_j one ``_cube_mean`` round of q_(j-1)
_LADDER: dict[tuple[CauchyKind, int], list[Polynomial]] = {}
_LADDER_LOCK = threading.Lock()


def _integrand_mean(kind: CauchyKind, n: int, k: int) -> Polynomial:
    """``_cube_mean(_integrand(kind, n), k)``: q_k, each round built once under the lock."""
    ladder = _LADDER.get((kind, n))
    if ladder is None or len(ladder) <= k:
        with _LADDER_LOCK:
            ladder = _LADDER.setdefault((kind, n), [])
            while len(ladder) <= k:
                ladder.append(_cube_mean(ladder[-1], 1) if ladder else _integrand(kind, n))
    return ladder[k]


def cube_integrate(p: Polynomial, k: int) -> Fraction:
    """Exact integral of p(x_1+...+x_k) over the unit k-cube, ``_cube_mean`` at 0."""
    if k < 1:
        raise ValueError("k must be positive")
    return _cube_mean(p, k).constant


def product_integrate(p: Polynomial, k: int) -> Fraction:
    """Exact integral of p(x_1*x_2*...*x_k) over the unit k-cube.

    Integrating one coordinate of p(v*x) in closed form maps the coefficient
    of v^m to itself divided by m+1, so k rounds read at v = 1 give the
    closed form sum_m c_m/(m+1)^k.  It is summed over lcm(1..deg+1)^k on
    p's own int numerators, with one ``Fraction`` at the end: no Stirling
    numbers are read.  A non-int k raises ``TypeError`` before any work.
    """
    if not isinstance(k, int):
        raise TypeError(f"k must be an int: {k!r}")
    if k < 1:
        raise ValueError("k must be positive")
    nums, den = p.numerators, p.denominator
    scale = lcm(*range(1, len(nums) + 1)) ** k
    return Fraction(sum(v * (scale // (m + 1) ** k) for m, v in enumerate(nums)), den * scale)


# -- poly-Cauchy family and the classical numbers ------------------------------------

def _check_args(kind: CauchyKind, n: int, k: int, least_k: int) -> None:
    """Reject a bad kind, a non-int n or k, n < 0 and k < `least_k`, before any work.

    The branches would read a kind that is not a ``CauchyKind`` as SECOND.
    """
    if not isinstance(kind, CauchyKind):
        raise ValueError(f"unknown kind: {kind!r}")
    if not (isinstance(n, int) and isinstance(k, int)):
        raise TypeError(f"n and k must be ints: {n!r}, {k!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < least_k:
        raise ValueError("k must be positive" if least_k else "k must be nonnegative")


def _power_weights(n: int, k: int) -> tuple[list[int], int]:
    """The weights 1/(j+1)^k, j = 0..n, as ints over D = lcm(1..n+1)^k."""
    den = lcm(*range(1, n + 2)) ** k
    return [den // (j + 1) ** k for j in range(n + 1)], den


def _shifted_moments(kind: CauchyKind, n: int, weights: list[int], den: int) -> Polynomial:
    """sum_m row(n,m) E[(y + W)^m] for the moments E[W^j] = weights[j]/den.

    The y^i coefficient sum_m row(n,m) C(m,i) w_(m-i) is summed on ints.
    W is the product of k coordinates for the poly-Cauchy family and their
    sum for the higher-order one.
    """
    coeffs = [0] * (n + 1)
    for m, c in enumerate(_stirling_row(kind, n)):
        if c:
            for i in range(m + 1):
                coeffs[i] += c * comb(m, i) * weights[m - i]
    return Polynomial.from_numerators(coeffs, den)


@lru_cache(maxsize=None, typed=True)
def _poly_cauchy_moments(kind: CauchyKind, n: int, k: int) -> Polynomial:
    return _shifted_moments(kind, n, *_power_weights(n, k))


def poly_cauchy(kind: CauchyKind, n: int, k: int) -> Fraction:
    """sum_m row(n,m)/(m+1)^k, the k-fold product integral, on ints over lcm(1..n+1)^k."""
    _check_args(kind, n, k, 1)
    weights, den = _power_weights(n, k)
    return Fraction(sum(map(mul, _stirling_row(kind, n), weights)), den)


def poly_cauchy_poly(kind: CauchyKind, n: int, k: int, z: Fraction) -> Fraction:
    """Poly-Cauchy polynomial value, sum_m row(n,m) sum_i C(m,i)(-z)^i/(m-i+1)^k.

    The (-z)^i coefficients, held once per (kind, n, k), are read at -z by Horner.
    """
    _check_args(kind, n, k, 1)
    z = _as_fraction(z)
    return _poly_cauchy_moments(kind, n, k).evaluate(-z)


@lru_cache(maxsize=None, typed=True)
def classical_cauchy(n: int, kind: CauchyKind) -> Fraction:
    """C_n or Chat_n: sum_m row(n,m)/(m+1), the poly-Cauchy number at k = 1."""
    return poly_cauchy(kind, n, 1)


def cauchy1(n: int) -> Fraction:
    """First-kind Cauchy number: sum_m S1(n,m)/(m+1)."""
    return classical_cauchy(n, CauchyKind.FIRST)


def cauchy2(n: int) -> Fraction:
    """Second-kind Cauchy number: sum_m S1(n,m)(-1)^m/(m+1)."""
    return classical_cauchy(n, CauchyKind.SECOND)


def poly_cauchy1(n: int, k: int) -> Fraction:
    """First-kind poly-Cauchy number, sum_m S1(n,m)/(m+1)^k."""
    return poly_cauchy(CauchyKind.FIRST, n, k)


def poly_cauchy2(n: int, k: int) -> Fraction:
    """Second-kind poly-Cauchy number, (-1)^n sum_m [n m]/(m+1)^k."""
    return poly_cauchy(CauchyKind.SECOND, n, k)


def poly_cauchy_poly1(n: int, k: int, z: Fraction) -> Fraction:
    """First-kind poly-Cauchy polynomial value at z."""
    return poly_cauchy_poly(CauchyKind.FIRST, n, k, z)


def poly_cauchy_poly2(n: int, k: int, z: Fraction) -> Fraction:
    """Second-kind poly-Cauchy polynomial value at z."""
    return poly_cauchy_poly(CauchyKind.SECOND, n, k, z)


# -- higher-order numbers ----------------------------------------------------------

# row j holds E(0,j), E(1,j), ...: the cube volumes V(m,j) scaled by C(m+j, m)
_VOLUMES: list[list[int]] = []
_VOLUMES_LOCK = threading.Lock()


@lru_cache(maxsize=None, typed=True)
def _sum_power_volume(l: int, k: int) -> Fraction:
    """V(l,k), the integral of (x_1+...+x_k)^l over the unit k-cube.

    V(l,k) is the composition sum
    sum_{l_1+...+l_k = l} multinomial(l; parts) / ((l_1+1)...(l_k+1)),
    a k-fold binomial convolution: split off the last part,
    V(l,k) = sum_j C(l,j) V(j,k-1) / (l-j+1), with V(l,0) = [l = 0].
    Scaled by C(l+k, l) every V is an int E(l,k) = S2(l+k, k), O(l log k) bits:
    E(l,k) = sum_j C(l+k, l-j+1) E(j,k-1) / k, exactly.  Row k of ``_VOLUMES``
    needs only row k-1, so one table serves every k: a miss extends rows 0..k
    to width l+1 under the lock, O(k l) entries of O(l) int steps; a built entry reads lock-free.
    """
    try:
        volume = _VOLUMES[k][l]
    except IndexError:
        with _VOLUMES_LOCK:
            _VOLUMES.extend([] for _ in range(k + 1 - len(_VOLUMES)))
            for j, row in enumerate(_VOLUMES[:k + 1]):
                for m in range(len(row), l + 1):
                    row.append(sum(comb(m + j, m - i + 1) * prev[i] for i in range(m + 1)) // j
                               if j else int(m == 0))
                prev = row
        volume = row[l]
    return Fraction(volume, comb(l + k, l))


def _hi_gf(kind: CauchyKind, k: int, order: int) -> PowerSeries:
    """The kind's EGF to the power k, known at least to t^(order-1); a non-int k raises TypeError."""
    return _unit_power(_log1p_over_t if kind is CauchyKind.FIRST else _one_plus_t_log1p_over_t,
                       k, order)


@lru_cache(maxsize=None, typed=True)
def _convolution_first(n: int, k: int) -> Fraction:
    """sum_{n_1+...+n_k = n} multinomial(n; parts) C_(n_1)...C_(n_k).

    The k-fold binomial convolution of classical values, filled bottom-up
    in k: F(m,k) = sum_j C(m,j) F(j,k-1) cauchy1(m-j), F(m,0) = [m = 0].
    With the classical values over one denominator D, D^k F(m,k) is an
    integer, so the fold runs on ints and builds one ``Fraction``.
    """
    classical, den = _over_common_denominator([cauchy1(j) for j in range(n + 1)])
    row = [1] + [0] * n
    for _ in range(k):
        row = [sum(comb(m, j) * row[j] * classical[m - j] for j in range(m + 1))
               for m in range(n + 1)]
    return Fraction(row[n], den ** k)


def cauchy_hi_numbers(kind: CauchyKind, n_max: int, k: int) -> list[Fraction]:
    """Higher-order Cauchy numbers of `kind`, n = 0..n_max, off one EGF.

    The values are those of the GF_COEFF path, read from one series rather
    than from one series power per n.
    """
    _check_hi_args(kind, n_max, k, CauchyMethod.GF_COEFF)
    gf = _hi_gf(kind, k, n_max + 1)
    return [egf_coeff(gf, n) for n in range(n_max + 1)]


def _check_hi_args(kind: CauchyKind, n: int, k: int, method: CauchyMethod) -> None:
    _check_args(kind, n, k, 0)
    if not isinstance(method, CauchyMethod):
        raise ValueError(f"unknown method: {method!r}")
    if k == 0 and method is CauchyMethod.INTEGRAL_ORACLE:
        raise ValueError("the integral oracle needs k >= 1")


def cauchy_hi(kind: CauchyKind, n: int, k: int,
              method: CauchyMethod = CauchyMethod.GF_COEFF) -> Fraction:
    """Higher-order Cauchy number of `kind`, by the chosen path.

    All methods agree; the agreement over a grid is the package's master
    cross-check.  k = 0 degenerates to the Kronecker delta at n = 0.  The
    classical-convolution path exists for the first kind only.
    """
    _check_hi_args(kind, n, k, method)
    if method is CauchyMethod.STIRLING_SUM:
        volumes, den = _over_common_denominator([_sum_power_volume(l, k) for l in range(n + 1)])
        return Fraction(sum(map(mul, _stirling_row(kind, n), volumes)), den)
    if method is CauchyMethod.CONVOLUTION:
        if kind is not CauchyKind.FIRST:
            raise ValueError("convolution path is defined only for the first kind")
        return _convolution_first(n, k)
    if method is CauchyMethod.GF_COEFF:
        return egf_coeff(_hi_gf(kind, k, n + 1), n)
    if method is CauchyMethod.BERNOULLI_BRIDGE:
        # the bridge polynomial at x = 0 is B_n^(n-k+1) at 1 or at 1-k: no Taylor shift
        point = 1 if kind is CauchyKind.FIRST else 1 - k
        return bernoulli_hi_poly(n, n - k + 1).evaluate(point)
    if method is CauchyMethod.INTEGRAL_ORACLE:
        return _integrand_mean(kind, n, k).constant


def cauchy_hi1(n: int, k: int, method: CauchyMethod = CauchyMethod.GF_COEFF) -> Fraction:
    """Higher-order Cauchy number of the first kind, by the chosen path."""
    return cauchy_hi(CauchyKind.FIRST, n, k, method)


def cauchy_hi2(n: int, k: int, method: CauchyMethod = CauchyMethod.GF_COEFF) -> Fraction:
    """Higher-order Cauchy number of the second kind, by the chosen path."""
    return cauchy_hi(CauchyKind.SECOND, n, k, method)


# -- higher-order polynomials -------------------------------------------------------

def cauchy_hi_poly_sum(kind: CauchyKind, n: int, k: int) -> Polynomial:
    """C_n^(k)(x) or Chat_n^(k)(x) from the explicit triple sum

    sum_l sum_j sum_{j_1+..+j_k=j} multinomial(j;parts) C(l,j) row(n,l)
        (-x)^(l-j) / ((j_1+1)...(j_k+1)),

    with the composition sum folded into the cube volume of degree j.  The
    volumes go over one denominator; ``_shifted_moments`` sums the
    polynomial in -x on ints and ``reflect`` reads it at x.
    """
    _check_args(kind, n, k, 1)
    volumes = _over_common_denominator([_sum_power_volume(j, k) for j in range(n + 1)])
    return _shifted_moments(kind, n, *volumes).reflect()


def cauchy_hi_poly_bridge(kind: CauchyKind, n: int, k: int) -> Polynomial:
    """C_n^(k)(x) = B_n^(n-k+1)(1-x), or Chat_n^(k)(x) = B_n^(n-k+1)(x-k+1), k >= 1."""
    _check_args(kind, n, k, 1)
    bernoulli = bernoulli_hi_poly(n, n - k + 1)
    return bernoulli.reflect().shift(-1) if kind is CauchyKind.FIRST else bernoulli.shift(1 - k)


def cauchy_hi_poly_oracle(kind: CauchyKind, n: int, k: int) -> Polynomial:
    """C_n^(k)(x) or Chat_n^(k)(x) by iterated integration, without sampling.

    The integrand is I(S - x), with I the kind's integrand and S the
    coordinate sum; ``_cube_mean`` commutes with shifts, so the polynomial
    is the cube mean of I read at -x.
    """
    _check_args(kind, n, k, 1)
    return _integrand_mean(kind, n, k).reflect()


@lru_cache(maxsize=None, typed=True)
def cauchy_hi_poly1(n: int, k: int) -> Polynomial:
    """Higher-order Cauchy polynomial of the first kind, degree n in x."""
    return cauchy_hi_poly_sum(CauchyKind.FIRST, n, k)


@lru_cache(maxsize=None, typed=True)
def cauchy_hi_poly2(n: int, k: int) -> Polynomial:
    """Higher-order Cauchy polynomial of the second kind, degree n in x."""
    return cauchy_hi_poly_sum(CauchyKind.SECOND, n, k)


def clear_caches() -> None:
    """Empty every memo of the package: the state of a fresh process.

    Each locked table is emptied under its own lock, so a fill in progress
    completes before its table is cleared.
    """
    for memo in (classical_cauchy, _poly_cauchy_moments, _sum_power_volume, _convolution_first,
                 cauchy_hi_poly1, cauchy_hi_poly2):
        memo.cache_clear()
    for table, lock in ((_LADDER, _LADDER_LOCK), (_VOLUMES, _VOLUMES_LOCK),
                        (_POWERS, _POWERS_LOCK)):
        with lock:
            table.clear()
    for table in map(stirling_table, StirlingKind):
        table.clear()
