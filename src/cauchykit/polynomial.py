"""Dense univariate polynomials over exact rationals, and the layout they share with series.

A polynomial sum_i N_i x^i / D is stored as one tuple of int numerators
N_0..N_d and one positive int denominator D, in lowest terms:
gcd(D, N_0, ..., N_d) = 1 and N_d != 0, with the zero polynomial stored as
((), 1).  This is the layout of FLINT's ``fmpq_poly`` (Hart, ICMS 2010).
Every operation runs on the ints, and each that returns a polynomial ends
in the one normalising constructor, ``from_numerators``, which strips
trailing zeros and divides out one gcd.  Equality is a plain tuple
comparison, and a constant hashes as the scalar it equals.  Instances
are immutable, so values can be shared freely between threads.

``series.PowerSeries`` keeps the same layout, so what the two types do alike
is written once, in their private base class ``_Numerators``:
``from_numerators`` (the one place that checks the denominator),
immutability and pickling, ``coeffs`` (the coefficients as ``Fraction``
values, built on each read), negation and subtraction, the sum over
lcm(Da, Db), scaling by and division by an exact scalar, square-and-multiply
powers and ``repr``.  ``_convolve`` is the one product loop and ``_as_ratio``
the one scalar reader.  Each type keeps its ``_store`` (a polynomial strips
trailing zeros; a series keeps ``order`` terms), equality, hashing,
coefficient reads and the operations only it has.

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

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .rational import _as_fraction

Scalar = int | Fraction


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


def _linear_combination(terms: Iterable[tuple[Polynomial, Scalar]]) -> Polynomial:
    """sum c p over the (p, c) pairs as int sums over one lcm; a float c raises TypeError."""
    scaled, out, den = [], [], 1
    for p, c in terms:
        ratio = _as_ratio(c)
        if ratio is None:
            raise TypeError(f"a weight must be an int or a Fraction: {c!r}")
        num, d = ratio[0], ratio[1] * p.denominator
        if num:
            scaled.append((p.numerators, num, d))
            den = lcm(den, d)
    for nums, num, d in scaled:
        num *= den // d
        out = [o + v * num for o, v in zip_longest(out, nums, fillvalue=0)]
    return Polynomial.from_numerators(out, den)


def _lowest_terms(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums and den divided by gcd(den, *nums), for a positive den.

    The tuples are built from lists: a tuple built from a generator is
    resized on the way, so each call would leave one more block in CPython's
    per-size tuple free lists (0.7 MB of peak RSS on a default-grid verify
    under CPython 3.11).
    """
    g = gcd(den, *nums)
    if g != 1:
        return tuple([v // g for v in nums]), den // g
    return tuple(nums), den


def _as_ratio(value):
    """(numerator, denominator) of an int or a ``Fraction``.

    None for anything else, which the operators answer with ``NotImplemented``.
    """
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    return None


def _convolve(na, nb, n: int) -> list:
    """The first n terms of the product of the int numerator sequences na and nb, zero-padded."""
    out = [na[0] * b for b in nb[:n]] if na else []
    out += [0] * (n - len(out))
    for i, a in enumerate(na[1:n], 1):
        if a:
            for j, b in enumerate(nb[:n - i], i):
                out[j] += a * b
    return out


class _Numerators:
    """``numerators`` over one positive int ``denominator``; a subclass sets both in ``_store``."""

    __slots__ = ("numerators", "denominator")

    @classmethod
    def from_numerators(cls, nums, den: int = 1):
        """sum_j nums[j] X^j / den, brought to lowest terms; den must be a positive int."""
        if not isinstance(den, int):
            raise TypeError(f"the denominator must be an int: {den!r}")
        if den < 1:
            raise ValueError("the denominator must be a positive int")
        obj = object.__new__(cls)
        obj._store(nums, den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self).from_numerators, (self.numerators, self.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, lowest degree first, as ``Fraction`` values built on each read."""
        den = self.denominator
        return tuple([Fraction(v, den) for v in self.numerators])

    def _sum(self, nb, db: int):
        """self + nb/db over lcm(Da, Db), the shorter numerator sequence padded with zeros."""
        da = self.denominator
        den = lcm(da, db)
        sa, sb = den // da, den // db
        return self.from_numerators(
            [a * sa + b * sb for a, b in zip_longest(self.numerators, nb, fillvalue=0)], den)

    def _scale(self, num, den: int):
        """self * num/den: each numerator times num, over D*den."""
        return self.from_numerators([v * num for v in self.numerators], self.denominator * den)

    def _power(self, one, exponent: int):
        """self**exponent for exponent >= 0 by square-and-multiply; `one` is the 0th power.

        The result starts from the lowest power of two in the exponent, so
        ``s ** 1`` takes no product and ``s ** 2**j`` takes j.
        """
        if not exponent:
            return one
        result, base = None, self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def __neg__(self):
        return self.from_numerators([-v for v in self.numerators], self.denominator)

    def __sub__(self, other):
        if isinstance(other, (_Numerators, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __truediv__(self, other):
        """self * (1/other) for an exact scalar other."""
        ratio = _as_ratio(other)
        if ratio is None:
            return NotImplemented
        num, den = ratio
        if not num:
            raise ZeroDivisionError("division by zero")
        return self * Fraction(den, num)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"


class Polynomial(_Numerators):
    """Immutable dense polynomial: int ``numerators`` over one int ``denominator``."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self._store(*_over_common_denominator([_as_fraction(c) for c in coeffs]))

    def _store(self, nums: Iterable[int], den: int) -> None:
        """Set the slots to nums/den in lowest terms, trailing zeros stripped."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        nums, den = _lowest_terms(nums, den)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

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
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.numerators) - 1

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
        if isinstance(other, Polynomial):
            return self._sum(other.numerators, other.denominator)
        ratio = _as_ratio(other)
        return NotImplemented if ratio is None else self._sum((ratio[0],), ratio[1])

    __radd__ = __add__

    def __mul__(self, other):
        """Product with a scalar or a polynomial.

        Two polynomials are multiplied as their numerator vectors
        (schoolbook convolution on Python ints) over the product of the
        denominators.
        """
        if isinstance(other, Polynomial):
            na, nb = self.numerators, other.numerators
            return Polynomial.from_numerators(_convolve(na, nb, len(na) + len(nb) - 1),
                                              self.denominator * other.denominator)
        ratio = _as_ratio(other)
        return NotImplemented if ratio is None else self._scale(*ratio)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return self._power(Polynomial.one(), exponent)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.denominator == other.denominator and self.numerators == other.numerators
        if isinstance(other, (int, Fraction)):
            return self.degree < 1 and self.constant == other
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the scalar it equals
        return hash(self.constant if self.degree < 1 else (self.numerators, self.denominator))


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


def _factorial_poly(n: int, step: int) -> Polynomial:
    """x(x+step)...(x+(n-1)step): p <- x p + i step p on an int list, in place, i = 0..n-1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    nums = [1]
    for i in range(n):
        c = i * step
        nums.append(nums[-1])
        for j in range(len(nums) - 2, 0, -1):
            nums[j] = nums[j - 1] + c * nums[j]
        nums[0] *= c
    return Polynomial.from_numerators(nums)


def falling_factorial(n: int) -> Polynomial:
    """x(x-1)...(x-n+1); the coefficient of x^l is the signed Stirling number."""
    return _factorial_poly(n, -1)


def rising_factorial(n: int) -> Polynomial:
    """x(x+1)...(x+n-1); the coefficient of x^m is the unsigned Stirling number."""
    return _factorial_poly(n, 1)
