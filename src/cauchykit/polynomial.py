"""Dense univariate polynomials over exact rationals.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial stores an empty tuple.  All operations are pure and exact, and
instances are immutable, so values can be shared freely between threads.

Besides ring arithmetic the module provides the factorial polynomials

    falling_factorial(n) = x(x-1)...(x-n+1)
    rising_factorial(n)  = x(x+1)...(x+n-1)

whose monomial coefficients are the signed and unsigned Stirling numbers of
the first kind, and exact interpolation (Newton form).

Products, Taylor shifts and evaluation run on Python ints: each operand is
put over the lcm of its coefficient denominators, the inner loops multiply
and add numerators only, and one ``Fraction`` is built per output value
(the design of FLINT's ``fmpq_poly``); ``evaluate`` at a/b runs Horner's
scheme on the numerator b^d D p(a/b).  Coefficients are still stored, and
returned, as ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .rational import _as_fraction

Scalar = Union[int, Fraction]


def _over_common_denominator(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators N_i and one denominator D with cs[i] = N_i / D.

    D is the lcm of the denominators, taken as a running loop: lcm(*generator)
    grows a temporary argument tuple, which raised the peak RSS of a full
    verify by about 0.5 MB.
    """
    den = 1
    for c in cs:
        if den % c.denominator:
            den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in cs], den


class Polynomial:
    """Immutable dense polynomial with ``Fraction`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, cs: Sequence[Fraction]) -> "Polynomial":
        """Wrap ``Fraction`` coefficients already free of trailing zeros."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coefficient: Scalar = 1) -> "Polynomial":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient of x**exponent (zero beyond the stored degree)."""
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return Fraction(0)

    @property
    def constant(self) -> Fraction:
        return self.coefficient(0)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """Product with a scalar or a polynomial.

        Two polynomials are multiplied as integer numerator vectors over
        their common denominators Da and Db (schoolbook convolution on
        Python ints), then each output coefficient becomes one
        ``Fraction(v, Da*Db)``.
        """
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial()
            return Polynomial._trusted([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        na, da = _over_common_denominator(self.coeffs)
        nb, db = _over_common_denominator(other.coeffs)
        out = [0] * (len(na) + len(nb) - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb, i):
                    out[j] += a * b
        den = da * db
        # Leading coefficients are nonzero, so their product is too.
        return Polynomial._trusted([Fraction(v, den) for v in out])

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar or by a nonzero constant polynomial."""
        if isinstance(other, Polynomial):
            if other.degree > 0:
                raise ValueError("polynomial division only by a nonzero constant")
            other = other.constant
        other = _as_fraction(other)
        if other == 0:
            raise ZeroDivisionError("division by zero")
        return self * (Fraction(1) / other)

    def __rtruediv__(self, other):
        if self.degree > 0:
            raise ValueError("polynomial division only by a nonzero constant")
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        return Polynomial((_as_fraction(other) / self.constant,))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Polynomial((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus and substitution -----------------------------------------

    def evaluate(self, point: Scalar) -> Fraction:
        """Exact Horner evaluation on ints; a float point raises ``TypeError``.

        With p = sum_i N_i x^i / D and the point a/b, Horner's scheme runs
        on the numerator b^d D p(a/b) = sum_i N_i a^i b^(d-i), and one
        ``Fraction`` is built at the end.
        """
        point = _as_fraction(point)
        if not self.coeffs:
            return Fraction(0)
        a, b = point.numerator, point.denominator
        nums, den = _over_common_denominator(self.coeffs)
        acc = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= b
            acc = acc * a + c * scale
        return Fraction(acc, den * scale)

    def shift(self, offset: Scalar) -> "Polynomial":
        """p(x + offset), computed on Python ints over one common denominator.

        With p = sum_i N_i x^i / D (D the lcm of the coefficient
        denominators), degree d and offset a/b, the x^j coefficient is

            sum_i N_i C(i,j) a^(i-j) b^(d-i+j) / (D b^d).

        The numerators come from a Taylor shift by the integer a of
        r(y) = sum_i N_i b^(d-i) y^i (Ruffini's repeated synthetic division,
        d(d+1)/2 integer multiply-adds): r(y + a) = b^d D p((y + a)/b), so
        its y^j coefficient times b^j is the numerator above.  One
        ``Fraction`` is built per output coefficient.
        """
        offset = _as_fraction(offset)
        cs = self.coeffs
        if offset == 0 or not cs:
            return self
        a, b = offset.numerator, offset.denominator
        d = len(cs) - 1
        r, den = _over_common_denominator(cs)
        scale = 1
        for i in range(d, -1, -1):
            r[i] *= scale
            scale *= b
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                r[j] += a * r[j + 1]
        total = den * b ** d
        out = []
        scale = 1
        for rj in r:
            out.append(Fraction(rj * scale, total))
            scale *= b
        return Polynomial._trusted(out)

    def reflect(self) -> "Polynomial":
        """p(-x): sign flip on odd powers."""
        return Polynomial(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(c * i for i, c in enumerate(self.coeffs) if i >= 1))

    def antiderivative(self) -> "Polynomial":
        """The antiderivative P with P' = p and P(0) = 0."""
        return Polynomial((Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
                if c < 0:
                    term = "-" + term
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    return NotImplemented


def falling_factorial(n: int) -> Polynomial:
    """x(x-1)...(x-n+1); the coefficient of x^l is the signed Stirling number."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = Polynomial.one()
    for i in range(n):
        result = result * Polynomial((-i, 1))
    return result


def rising_factorial(n: int) -> Polynomial:
    """x(x+1)...(x+n-1); the coefficient of x^m is the unsigned Stirling number."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = Polynomial.one()
    for i in range(n):
        result = result * Polynomial((i, 1))
    return result


def interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> Polynomial:
    """Exact interpolation through distinct sample points, in Newton form.

    The divided differences c_i = f[x_0, ..., x_i] take n(n-1)/2 scalar
    subtractions and divisions; the polynomial

        c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...))

    is then expanded by Horner's scheme over the linear factors, O(n) per
    factor.  Both stages are O(n^2) scalar operations.  No points give the
    zero polynomial; repeated nodes raise ``ValueError``.
    """
    xs = [_as_fraction(p[0]) for p in points]
    ys = [_as_fraction(p[1]) for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    if n == 0:
        return Polynomial.zero()
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    acc = [c[n - 1]]
    for i in range(n - 2, -1, -1):
        xi = xs[i]
        # acc * (x - xi) + c[i], coefficient by coefficient
        nxt = [c[i] - xi * acc[0]]
        for m in range(1, len(acc)):
            nxt.append(acc[m - 1] - xi * acc[m])
        nxt.append(acc[-1])
        acc = nxt
    return Polynomial(acc)
