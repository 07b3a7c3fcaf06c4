"""Truncated formal power series over exact coefficients.

A ``PowerSeries`` holds exactly ``order`` coefficients (the coefficient of
t^j for j < order), trailing zeros included, and represents a series known
modulo t^order.  Binary operations truncate to the smaller operand order;
equality likewise compares at the common precision.  There is no global
precision state: callers pick the order each series is built at, usually
one above the largest index they will read.

Coefficients are exact scalars, ints or ``Fraction`` values; anything
else (a float, a polynomial) raises ``TypeError``, as does an order that is
not an int.

A series is stored in the polynomials' layout: a tuple ``numerators`` of
``order`` ints over one positive int ``denominator``, in lowest terms.
The code the two types share (``from_numerators``, ``coeffs``, sums,
scalar products and quotients, powers, ``_convolve``) is in their base class
``polynomial._Numerators``.  This module keeps the series' own: ``_store``
(``order`` terms, trailing zeros kept), equality at the common precision,
single-coefficient reads, division by a series, ``compose`` and ``revert``.

The module provides the arithmetic needed to realise the generating
functions of the Cauchy/Bernoulli families,

    t/log(1+t),   (t/((1+t)log(1+t)))^k,   (t/(e^t-1))^alpha,

including division with explicit cancellation of a shared power of t,
integer powers (negative powers of unit series included), composition and
compositional inversion, plus the Sheffer-sequence and connection-coefficient
extractors built on top of them.  Each of these generating functions is a
power of a unit t/f; ``_unit_power`` holds every power that ``bernoulli`` and
``cauchy`` read in one table, ``_POWERS``, and grows it by one rule.
log(1+t) and e^t - 1 are written once, each as t times its int unit f/t.

Costs at order n, in coefficient operations: multiplication and division
are O(n^2); ``compose`` (Horner from the outer series' highest nonzero
coefficient, at most n-1 products) and ``revert`` (Lagrange inversion, n-2
products) are O(n^3).  On int numerators a product is O(n^2) multiply-adds
and one gcd pass; a quotient is one dot product and one gcd per step.

Exponential-generating-function coefficients are read off with
``egf_coeff(f, n)`` = n! * [t^n] f, the normalisation linking series to the
number sequences throughout the package.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from .polynomial import (Polynomial, _Numerators, _as_ratio, _convolve, _lowest_terms,
                         _over_common_denominator)
from .rational import _as_fraction


def _divide_ints(f, g, df: int, dg: int) -> tuple[list[int], int]:
    """Numerators and denominator of the q with q*g = f to len(f) terms, g[0] != 0.

    f and g are int numerators over df and dg.  The quotient so far is kept
    as numerators Q over the running lcm D of its denominators.  Step i sums
    S = sum_j Q_j g_(i-j) on ints and reduces q_i = (f_i D dg - S df) / (df D g_0)
    by one gcd.
    """
    g0 = g[0]
    nums: list[int] = []
    den = 1
    for i, fi in enumerate(f):
        s = sum(map(mul, nums, reversed(g[1:i + 1])))
        num, d = fi * den * dg - s * df, df * den * g0
        c = gcd(num, d) if d > 0 else -gcd(num, d)
        num, d = num // c, d // c
        if den % d:
            scale = d // gcd(den, d)
            nums = [v * scale for v in nums]
            den *= scale
        nums.append(num * (den // d))
    return nums, den


class PowerSeries(_Numerators):
    """A formal power series truncated at t^order: ``numerators`` over one ``denominator``."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            _check_order(order)
            cs = cs[:order] + [Fraction(0)] * (order - len(cs))
        self._store(*_over_common_denominator(cs))

    def _store(self, nums: Sequence[int], den: int) -> None:
        """Set the slots to nums/den in lowest terms; a non-int numerator raises TypeError."""
        if not nums:
            raise ValueError("a series needs coefficients or an explicit order")
        nums, den = _lowest_terms(nums, den)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @property
    def order(self) -> int:
        return len(self.numerators)

    def coefficient(self, n: int) -> Fraction:
        """[t^n]; raises if the series is not known that far."""
        return self._scaled_coefficient(n, 1)

    def _scaled_coefficient(self, n: int, scale: int) -> Fraction:
        """scale * [t^n], built as one ``Fraction``."""
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n >= len(self.numerators):
            raise ValueError("insufficient truncation")
        return Fraction(self.numerators[n] * scale, self.denominator)

    def truncate(self, order: int) -> "PowerSeries":
        _check_order(order)
        if order > len(self.numerators):
            raise ValueError("can only truncate to a smaller positive order")
        return PowerSeries.from_numerators(self.numerators[:order], self.denominator)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        return next((i for i, v in enumerate(self.numerators) if v), None)

    # -- ring structure -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        da, db = self.denominator, other.denominator
        return all(a * db == b * da for a, b in zip(self.numerators, other.numerators))

    def __add__(self, other):
        """Sum over lcm(Da, Db) at the common precision; a scalar adds to the constant term."""
        ratio = _as_ratio(other)
        if ratio is not None:
            return self._sum((ratio[0],), ratio[1])
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if len(other.numerators) < len(self.numerators):  # the shorter sets the order
            self, other = other, self
        return self._sum(other.numerators[:len(self.numerators)], other.denominator)

    __radd__ = __add__

    def __mul__(self, other):
        """Product truncated to the smaller order.

        A scalar scales the numerators; two series convolve them over Da*Db.
        """
        ratio = _as_ratio(other)
        if ratio is not None:
            return self._scale(*ratio)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(len(self.numerators), len(other.numerators))
        return PowerSeries.from_numerators(_convolve(self.numerators, other.numerators, n),
                                           self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Quotient h with h*other = self at the common precision.

        A power of t shared by both operands is cancelled first, which is
        what makes t/log(1+t) well defined; if the divisor still has a zero
        constant term afterwards the division fails loudly.  The numerators
        divide in ``_divide_ints``; a scalar divides in the base class.
        """
        if not isinstance(other, PowerSeries):
            return super().__truediv__(other)
        vg = other.valuation()
        if vg is None:
            raise ZeroDivisionError("division by zero series")
        vf = self.valuation()
        shared = vg if vf is None else min(vf, vg)
        n = min(len(self.numerators), len(other.numerators)) - shared
        if n < 1:
            raise ValueError("insufficient truncation")
        f = self.numerators[shared:shared + n]
        g = other.numerators[shared:shared + n]
        if not g[0]:
            raise ValueError("non-unit divisor")
        return PowerSeries.from_numerators(
            *_divide_ints(f, g, self.denominator, other.denominator))

    def __rtruediv__(self, other):
        ratio = _as_ratio(other)
        if ratio is None:
            return NotImplemented
        num, den = ratio
        return PowerSeries.from_numerators([num] + [0] * (len(self.numerators) - 1), den) / self

    def __pow__(self, exponent: int):
        """Integer power by repeated squaring; negative powers invert first."""
        if not isinstance(exponent, int):
            raise TypeError("series powers must be integers")
        result = one_series(len(self.numerators))
        if exponent < 0:
            if not self.numerators[0]:
                raise ValueError("non-unit base")
            return (result / self) ** (-exponent)
        return self._power(result, exponent)

    # -- composition structure ------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(t)) by Horner's scheme on the numerators; inner(0) must be zero."""
        if not isinstance(inner, PowerSeries):
            raise TypeError("can only compose with a PowerSeries")
        if inner.numerators[0]:
            raise ValueError("composition needs zero constant term")
        nums = self.numerators
        n = min(len(nums), len(inner.numerators))
        g = inner.truncate(n)
        top = max((j for j in range(n) if nums[j]), default=0)
        acc = PowerSeries.from_numerators([nums[top]] + [0] * (n - 1))
        for j in range(top - 1, -1, -1):
            acc = acc * g + nums[j]
        return PowerSeries.from_numerators(acc.numerators, acc.denominator * self.denominator)

    def revert(self) -> "PowerSeries":
        """Compositional inverse of a delta series, by Lagrange inversion.

        Needs a zero constant term and a nonzero linear one.  With
        h = t/self, the inverse has [t^m] = [t^(m-1)] h^m / m (Knuth, TAOCP
        vol. 2, section 4.7).  At order n that is one series division and
        n-2 series products of n-1 terms each, O(n^3) coefficient
        operations.
        """
        nums = self.numerators
        n = len(nums)
        if n < 2 or nums[0] or not nums[1]:
            raise ValueError("not a delta series")
        h = one_series(n - 1) / PowerSeries.from_numerators(nums[1:], self.denominator)
        g = [0, h.coefficient(0)]
        power = h
        for m in range(2, n):
            power = power * h
            g.append(power.coefficient(m - 1) / m)
        return PowerSeries(g)


def egf_coeff(f: PowerSeries, n: int):
    """n! * [t^n] f, the exponential-generating-function coefficient."""
    return f._scaled_coefficient(n, factorial(n))


# -- stock series ------------------------------------------------------------

def _check_order(order: int) -> None:
    if not isinstance(order, int):
        raise TypeError(f"order must be an int: {order!r}")
    if order < 1:
        raise ValueError("order must be positive")


def one_series(order: int) -> PowerSeries:
    _check_order(order)
    return PowerSeries.from_numerators([1] + [0] * (order - 1))


def t_series(order: int) -> PowerSeries:
    _check_order(order)
    return PowerSeries([Fraction(0), Fraction(1)], order=order)


def log1p_series(order: int) -> PowerSeries:
    """log(1+t) = t - t^2/2 + t^3/3 - ..., as t times log(1+t)/t."""
    return t_series(order) * _log1p_over_t(order)


def expm1_series(order: int) -> PowerSeries:
    """e^t - 1 = t + t^2/2! + ..., as t times (e^t-1)/t."""
    return t_series(order) * _expm1_over_t(order)


def one_minus_exp_neg_series(order: int) -> PowerSeries:
    """1 - e^{-t} = t - t^2/2! + t^3/3! - ..."""
    return PowerSeries([Fraction(0)] + [Fraction((-1) ** (j - 1), factorial(j))
                                        for j in range(1, order)], order=order)


def _log1p_over_t(order: int) -> PowerSeries:
    """log(1+t)/t = sum_j (-1)^j t^j/(j+1), over lcm(1..order); the inverse of t/log(1+t)."""
    top = lcm(*range(1, order + 1))
    return PowerSeries.from_numerators([(-1) ** j * top // (j + 1) for j in range(order)], top)


def _one_plus_t_log1p_over_t(order: int) -> PowerSeries:
    """(1+t)log(1+t)/t = (1+t) * log(1+t)/t, the inverse of t/((1+t)log(1+t)).

    The second kind's f/t is the first kind's times 1 + t.  1 + t is the left
    factor, so the product skips its zero terms: O(order) products.
    """
    return PowerSeries([1, 1], order=order) * _log1p_over_t(order)


def _expm1_over_t(order: int) -> PowerSeries:
    """(e^t-1)/t = sum_j t^j/(j+1)!, the inverse of the Bernoulli unit t/(e^t-1)."""
    top = factorial(order)
    return PowerSeries.from_numerators([top // factorial(j + 1) for j in range(order)], top)


def cauchy1_gf(order: int) -> PowerSeries:
    """t/log(1+t); its EGF coefficients are the classical Cauchy numbers."""
    _check_order(order)
    return _log1p_over_t(order) ** -1


def cauchy2_gf(order: int) -> PowerSeries:
    """t/((1+t)log(1+t)); EGF coefficients are the second-kind Cauchy numbers."""
    _check_order(order)
    return _one_plus_t_log1p_over_t(order) ** -1


def bernoulli_gf(alpha: int, order: int) -> PowerSeries:
    """(t/(e^t-1))^alpha = ((e^t-1)/t)^-alpha, any int alpha; alpha <= 0 takes no division."""
    _check_order(order)
    return _expm1_over_t(order) ** -alpha


# (f/t builder, e) -> (t/f)^e, held at the highest order built
_POWERS: dict[tuple[Callable[[int], PowerSeries], int], PowerSeries] = {}
_POWERS_LOCK = threading.Lock()


def _unit_power(over_t: Callable[[int], PowerSeries], e: int, order: int) -> PowerSeries:
    """(t/f)^e = (f/t)^-e known at least to t^(order-1); over_t(order) builds f/t.

    Truncated series arithmetic is exact, so the terms below t^order of a
    power held at a higher order are those of one built at ``order``: a
    request at or below the held order returns the held series.  A miss
    builds at max(order, twice the held order), so a sweep up to order N
    builds O(log N) series per e, and a first fill is built at exactly the
    order asked for.  Every build is (f/t)^-e from a fresh f/t.  ``_POWERS``
    grows under its lock, as the Stirling tables do; a reader whose order is
    held takes no lock.  A non-int e raises ``TypeError``.
    """
    if not isinstance(e, int):
        raise TypeError(f"the exponent must be an int: {e!r}")
    held = _POWERS.get((over_t, e))
    if held is None or held.order < order:
        with _POWERS_LOCK:
            held = _POWERS.get((over_t, e))
            if held is None or held.order < order:
                order = order if held is None else max(order, 2 * held.order)
                held = over_t(order) ** -e
                _POWERS[over_t, e] = held
    return held


# -- Sheffer machinery ---------------------------------------------------------

def sheffer_polys(g: PowerSeries, f: PowerSeries, n_max: int) -> list[Polynomial]:
    """First n_max+1 members of the Sheffer sequence for the pair (g, f).

    S_n is row n of the connection matrix into the monomials, the Sheffer
    sequence for (1, t): the x^m coefficient of S_n is
    (n!/m!) * [t^n] (fbar^m / g(fbar)), with fbar the compositional inverse
    of f.  deg S_n = n.
    """
    fbar = f.revert()
    return [Polynomial(row) for row in connection_coeffs(1 / g.compose(fbar), fbar, n_max)]


def connection_coeffs(base: PowerSeries, step: PowerSeries, n_max: int) -> list[list[Fraction]]:
    """Rows 0..n_max of C[n][m] = (n!/m!) * [t^n] base * step^m, m = 0..n.

    Expanding the (g, f) Sheffer sequence in the (h, l) one, s_n(x) =
    sum_m C[n][m] q_m(x), takes base = h(fbar)/g(fbar) and step = l(fbar),
    with fbar the compositional inverse of f.  The caller composes, a ring
    homomorphism of truncated series: pairs sharing f revert it once and compose u, not u^k.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if min(base.order, step.order) <= n_max:
        raise ValueError("insufficient truncation")
    if step.numerators[0] or (n_max and not step.numerators[1]):
        raise ValueError("not a delta series")
    rows: list[list[Fraction]] = [[Fraction(0)] * (i + 1) for i in range(n_max + 1)]
    power = base
    for m in range(n_max + 1):
        if m > 0:
            power = power * step
        for i in range(m, n_max + 1):
            rows[i][m] = power._scaled_coefficient(i, factorial(i) // factorial(m))
    return rows
