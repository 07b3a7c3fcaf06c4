"""Truncated formal power series over exact coefficients.

A ``PowerSeries`` holds exactly ``order`` coefficients (the coefficient of
t^j for j < order), trailing zeros included, and represents a series known
modulo t^order.  Binary operations truncate to the smaller operand order;
equality likewise compares at the common precision.  There is no global
precision state: callers pick the order each series is built at, usually
one above the largest index they will read.

Coefficients are ``Fraction`` scalars or ``Polynomial`` values over them
(ints are promoted, floats rejected with ``TypeError``).  Both form exact
commutative rings, and every algorithm here is written against that
contract only, so series in t with polynomial coefficients (two-variable
generating functions such as (1+t)^x, realised as exp(x*log(1+t))) reuse
the same code paths.

The module provides the arithmetic needed to realise the generating
functions of the Cauchy/Bernoulli families,

    t/log(1+t),   (t/((1+t)log(1+t)))^k,   (t/(e^t-1))^alpha,

including division with explicit cancellation of a shared power of t,
integer powers (negative powers of unit series included), composition,
compositional inversion, and exponentials, plus the Sheffer-sequence and
connection-coefficient extractors built on top of them.

Costs at order n, in coefficient operations: multiplication and division
are O(n^2); ``compose`` (Horner from the outer series' highest nonzero
coefficient, at most n-1 products) and ``revert`` (Lagrange inversion, n-2
products) are O(n^3).  A product of two ``Fraction`` series
runs on Python ints over each operand's common denominator, with one
``Fraction`` built per output coefficient, so it costs O(n^2) integer
multiply-adds and only n rational normalisations.  A quotient of two
``Fraction`` series does the same: the quotient so far is kept as integer
numerators over the running lcm of its denominators, each step is one
integer dot product, and one ``Fraction`` is built per output coefficient.
Series with ``Polynomial`` coefficients keep the generic loop over ring
elements: their coefficients do not share one integer denominator.

Exponential-generating-function coefficients are read off with
``egf_coeff(f, n)`` = n! * [t^n] f, the normalisation linking series to the
number sequences throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Iterable, Union

from .polynomial import Polynomial, _over_common_denominator
from .rational import _as_fraction

Coefficient = Union[Fraction, Polynomial]
_SCALARS = (int, Fraction, Polynomial)


def _zero_like(sample: Coefficient):
    return sample * 0


def _one_like(sample: Coefficient):
    if isinstance(sample, Polynomial):
        return Polynomial.one()
    return Fraction(1)


def _divide_ints(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """The q with q*g = f to len(f) terms, g[0] != 0, on integer numerators.

    With f = F/Df and g = G/Dg over their common denominators, the quotient
    so far is kept as numerators Q over the running lcm D of its
    denominators.  Step i sums S = sum_j Q_j G_(i-j) on ints and builds one
    ``Fraction``, q_i = (f_i - S/(D Dg)) / g_0 = (F_i D Dg - S Df) / (Df D G_0).
    """
    nf, df = _over_common_denominator(f)
    ng, dg = _over_common_denominator(g)
    g0 = ng[0]
    out: list[Fraction] = []
    nums: list[int] = []
    den = 1
    for i, fi in enumerate(nf):
        s = sum(map(mul, nums, reversed(ng[1:i + 1])))
        q = Fraction(fi * den * dg - s * df, df * den * g0)
        out.append(q)
        if den % q.denominator:
            scale = lcm(den, q.denominator) // den
            nums = [v * scale for v in nums]
            den *= scale
        nums.append(q.numerator * (den // q.denominator))
    return out


class PowerSeries:
    """A formal power series truncated at t^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        cs = [c if isinstance(c, (Fraction, Polynomial)) else _as_fraction(c)
              for c in coeffs]
        if any(isinstance(c, Polynomial) for c in cs):
            cs = [c if isinstance(c, Polynomial) else Polynomial((c,)) for c in cs]
        if order is not None:
            if order < 1:
                raise ValueError("order must be positive")
            zero = _zero_like(cs[0]) if cs else Fraction(0)
            cs = cs[:order] + [zero] * (order - len(cs))
        elif not cs:
            raise ValueError("a series needs coefficients or an explicit order")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, cs) -> "PowerSeries":
        """Wrap a nonempty list of ``Fraction`` coefficients as they are."""
        f = object.__new__(cls)
        object.__setattr__(f, "coeffs", tuple(cs))
        return f

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int):
        """[t^n]; raises if the series is not known that far."""
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n >= len(self.coeffs):
            raise ValueError("insufficient truncation")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if not 1 <= order <= len(self.coeffs):
            raise ValueError("can only truncate to a smaller positive order")
        return PowerSeries(self.coeffs[:order])

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def _zero(self):
        return _zero_like(self.coeffs[0])

    def _one(self):
        return _one_like(self.coeffs[0])

    # -- ring structure -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n))

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return PowerSeries(out)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self + (-other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product truncated to the smaller order.

        Two ``Fraction`` series are multiplied as integer numerator vectors
        over their common denominators Da and Db, and each output
        coefficient becomes one ``Fraction(v, Da*Db)``.  A ``Polynomial``
        coefficient on either side selects the generic ring loop.
        """
        if isinstance(other, _SCALARS):
            return PowerSeries([c * other for c in self.coeffs])
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        if isinstance(self.coeffs[0], Fraction) and isinstance(other.coeffs[0], Fraction):
            na, da = _over_common_denominator(self.coeffs[:n])
            nb, db = _over_common_denominator(other.coeffs[:n])
            acc = [0] * n
            for i, a in enumerate(na):
                if a:
                    for j, b in enumerate(nb[:n - i], i):
                        acc[j] += a * b
            den = da * db
            return PowerSeries._trusted([Fraction(v, den) for v in acc])
        out = [self._zero() for _ in range(n)]
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Quotient h with h*other = self at the common precision.

        A power of t shared by both operands is cancelled first, which is
        what makes t/log(1+t) well defined; if the divisor still has a zero
        constant term afterwards the division fails loudly.  Two
        ``Fraction`` series divide on integer numerators (``_divide_ints``);
        a ``Polynomial`` coefficient on either side selects the generic loop.
        """
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        vg = other.valuation()
        if vg is None:
            raise ZeroDivisionError("division by zero series")
        vf = self.valuation()
        shared = vg if vf is None else min(vf, vg)
        n = min(len(self.coeffs), len(other.coeffs)) - shared
        if n < 1:
            raise ValueError("insufficient truncation")
        f = self.coeffs[shared:shared + n]
        g = other.coeffs[shared:shared + n]
        if g[0] == 0:
            raise ValueError("non-unit divisor")
        if isinstance(f[0], Fraction) and isinstance(g[0], Fraction):
            return PowerSeries._trusted(_divide_ints(f, g))
        out = []
        for i in range(n):
            acc = f[i]
            for j, q in enumerate(out):
                acc = acc - q * g[i - j]
            out.append(acc / g[0])
        return PowerSeries(out)

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return PowerSeries([other], order=len(self.coeffs)) / self
        return NotImplemented

    def __pow__(self, exponent: int):
        """Integer power by repeated squaring; negative powers invert first."""
        if not isinstance(exponent, int):
            raise TypeError("series powers must be integers")
        n = len(self.coeffs)
        if exponent < 0:
            if self.coeffs[0] == 0:
                raise ValueError("non-unit base")
            return (PowerSeries([self._one()], order=n) / self) ** (-exponent)
        result = PowerSeries([self._one()], order=n)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- composition structure ------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(t)) by Horner's scheme; inner must have zero constant term."""
        if not isinstance(inner, PowerSeries):
            raise TypeError("can only compose with a PowerSeries")
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs zero constant term")
        n = min(len(self.coeffs), len(inner.coeffs))
        g = inner.truncate(n)
        top = max((j for j in range(n) if self.coeffs[j] != 0), default=0)
        acc = PowerSeries([self.coeffs[top]], order=n)
        for j in range(top - 1, -1, -1):
            acc = acc * g + self.coeffs[j]
        return acc

    def revert(self) -> "PowerSeries":
        """Compositional inverse of a delta series, by Lagrange inversion.

        Needs a zero constant term and a nonzero linear one.  With
        h = t/self, the inverse has [t^m] = [t^(m-1)] h^m / m (Knuth, TAOCP
        vol. 2, section 4.7).  At order n that is one series division and
        n-2 series products of n-1 terms each, O(n^3) coefficient
        operations.  Only ring operations and division by the linear
        coefficient are used, so series with ``Polynomial`` coefficients
        invert too, provided that coefficient is a nonzero constant.
        """
        n = len(self.coeffs)
        if n < 2 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise ValueError("not a delta series")
        h = PowerSeries([self._one()], order=n - 1) / PowerSeries(self.coeffs[1:])
        g = [self._zero(), h.coeffs[0]]
        power = h
        for m in range(2, n):
            power = power * h
            g.append(power.coeffs[m - 1] / m)
        return PowerSeries(g)

    def exp(self) -> "PowerSeries":
        """exp(self) for a series with zero constant term, via the ODE recurrence."""
        if self.coeffs[0] != 0:
            raise ValueError("exponential needs zero constant term")
        n = len(self.coeffs)
        out = [self._one()]
        for m in range(1, n):
            acc = self._zero()
            for j in range(1, m + 1):
                fj = self.coeffs[j]
                if fj != 0:
                    acc = acc + fj * out[m - j] * j
            out.append(acc * Fraction(1, m))
        return PowerSeries(out)

    def __repr__(self):
        return f"PowerSeries({list(self.coeffs)!r})"


def egf_coeff(f: PowerSeries, n: int):
    """n! * [t^n] f, the exponential-generating-function coefficient."""
    return f.coefficient(n) * factorial(n)


# -- stock series ------------------------------------------------------------

def one_series(order: int) -> PowerSeries:
    return PowerSeries([Fraction(1)], order=order)


def t_series(order: int) -> PowerSeries:
    if order < 2:
        return PowerSeries([Fraction(0)], order=order)
    return PowerSeries([Fraction(0), Fraction(1)], order=order)


def log1p_series(order: int) -> PowerSeries:
    """log(1+t) = t - t^2/2 + t^3/3 - ..."""
    if order < 1:
        raise ValueError("order must be positive")
    return PowerSeries(
        [Fraction(0)] + [Fraction((-1) ** (j - 1), j) for j in range(1, order)])


def expm1_series(order: int) -> PowerSeries:
    """e^t - 1 = t + t^2/2! + ..."""
    if order < 1:
        raise ValueError("order must be positive")
    return PowerSeries(
        [Fraction(0)] + [Fraction(1, factorial(j)) for j in range(1, order)])


def one_minus_exp_neg_series(order: int) -> PowerSeries:
    """1 - e^{-t} = t - t^2/2! + t^3/3! - ..."""
    if order < 1:
        raise ValueError("order must be positive")
    return PowerSeries(
        [Fraction(0)] + [Fraction((-1) ** (j - 1), factorial(j)) for j in range(1, order)])


def cauchy1_gf(order: int) -> PowerSeries:
    """t/log(1+t); its EGF coefficients are the classical Cauchy numbers."""
    return t_series(order + 1) / log1p_series(order + 1)


def cauchy2_gf(order: int) -> PowerSeries:
    """t/((1+t)log(1+t)); EGF coefficients are the second-kind Cauchy numbers."""
    one_plus_t = PowerSeries([Fraction(1), Fraction(1)], order=order + 1)
    return t_series(order + 1) / (one_plus_t * log1p_series(order + 1))


def bernoulli_gf(alpha: int, order: int) -> PowerSeries:
    """(t/(e^t-1))^alpha for any integer order alpha."""
    unit = t_series(order + 1) / expm1_series(order + 1)
    return unit ** alpha


def one_plus_t_pow(exponent, order: int) -> PowerSeries:
    """(1+t)^exponent = exp(exponent*log(1+t)).

    The exponent may be an exact scalar or a ``Polynomial``; the latter
    yields a series with polynomial coefficients, e.g. the two-variable
    generating function (1+t)^x.
    """
    return (log1p_series(order) * exponent).exp()


# -- Sheffer machinery ---------------------------------------------------------

def sheffer_polys(g: PowerSeries, f: PowerSeries, n_max: int) -> list[Polynomial]:
    """First n_max+1 members of the Sheffer sequence for the pair (g, f).

    S_n is row n of the connection matrix into the monomials, the Sheffer
    sequence for (1, t): the x^m coefficient of S_n is
    (n!/m!) * [t^n] (fbar^m / g(fbar)), with fbar the compositional inverse
    of f.  deg S_n = n.  The identity pair is sized by f, so the
    truncation needed is that of g and f alone.
    """
    rows = connection_coeffs(g, f, one_series(f.order), t_series(f.order), n_max)
    return [Polynomial(row) for row in rows]


def connection_coeffs(g: PowerSeries, f: PowerSeries,
                      h: PowerSeries, l: PowerSeries, n_max: int) -> list[list[Fraction]]:
    """Triangular matrix expressing the (g, f) Sheffer sequence in the (h, l) one.

    Row n holds C[n][m] = (n!/m!) * [t^n] ( h(fbar)/g(fbar) * l(fbar)^m ) for
    m = 0..n, so that s_n(x) = sum_m C[n][m] q_m(x).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    n = min(g.order, f.order, h.order, l.order)
    if n <= n_max:
        raise ValueError("insufficient truncation")
    if h.coeffs[0] == 0:
        raise ValueError("invertible series required")
    if l.coeffs[0] != 0 or l.order < 2 or l.coeffs[1] == 0:
        raise ValueError("not a delta series")
    fbar = f.revert()
    return _connection_rows(h.compose(fbar) / g.compose(fbar), l.compose(fbar), n_max)


def _connection_rows(base: PowerSeries, l_of_fbar: PowerSeries,
                     n_max: int) -> list[list[Fraction]]:
    """Rows 0..n_max of ``connection_coeffs`` from its composed series.

    base = h(fbar)/g(fbar) and l_of_fbar = l(fbar), both known past t^n_max;
    C[n][m] = (n!/m!) * [t^n] base * l_of_fbar^m.  A caller that connects
    several pairs sharing f reverts f once and composes each series once.
    """
    rows: list[list[Fraction]] = [[Fraction(0)] * (i + 1) for i in range(n_max + 1)]
    power = base
    for m in range(n_max + 1):
        if m > 0:
            power = power * l_of_fbar
        for i in range(m, n_max + 1):
            rows[i][m] = power.coeffs[i] * (factorial(i) // factorial(m))
    return rows
