"""Bernoulli numbers and polynomials of arbitrary integer order.

B_n^(alpha)(x) is defined through the generating function
(t/(e^t-1))^alpha * e^{xt}.  The classical definition takes alpha a positive
integer, but t/(e^t-1) is a unit series, so integer powers of any sign are
well defined and the family extends to every alpha in Z; the identities
relating Cauchy and Bernoulli families evaluate at order n-k+1, which is
frequently zero or negative, making the extension mandatory here.

The coefficients c_j^(alpha) = [t^j] (t/(e^t-1))^alpha are climbed order by
order by Noerlund's order recurrence (N. E. Noerlund, *Vorlesungen ueber
Differenzenrechnung*, 1924).  F_alpha = (t/(e^t-1))^alpha satisfies
t F_alpha' = alpha F_alpha - alpha t F_alpha - alpha F_(alpha+1), so at t^j

    c_j^(alpha+1) = ((alpha - j) c_j^(alpha) - alpha c_(j-1)^(alpha)) / alpha,   alpha >= 1,
    c_j^(alpha)   = alpha (c_j^(alpha+1) + c_(j-1)^(alpha)) / (alpha - j),       alpha <= -1,

the first climbing up from the classical Bernoulli numbers (alpha = 1), the
second down from F_0 = 1.  Each order costs O(n) int steps, where a series
power costs O(n^2) per product, and no climbed order reads a series or a
Stirling table: below the cap the Bernoulli side of a check shares nothing
above the arithmetic layer with the Cauchy generating functions.  The climb
takes |alpha| steps where a power takes about log|alpha| products, so past
the cap |alpha| <= n + 2 the order is read from the table of unit powers,
``series._unit_power``, as ``bernoulli_hi_numbers(5, 10**6)`` reads it.

``_ORDERS`` holds the orders asked for, and the seed, as int numerators over
one denominator, all at one length.  A read past that length extends every
held order to at least twice it: only the entries past the held ones are
stepped, and an order between two held ones is climbed through and dropped.
The table grows under its lock, as the Stirling tables do; a reader whose
order is held takes no lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial, gcd, lcm, perm
from operator import add, mul

from .polynomial import Polynomial, _lowest_terms
from .series import _expm1_over_t, _unit_power

Coefficients = tuple[tuple[int, ...], int]

# alpha -> numerators and denominator of c_j^(alpha), j < the table's length
_ORDERS: dict[int, Coefficients] = {}
_ORDERS_LOCK = threading.Lock()


def _seed(length: int) -> Coefficients:
    """c_j^(1) = B_j / j!, j < length, on ints.

    With Q = lcm(1..length), Q B_j is an int (von Staudt and Clausen: the
    denominator of B_j is a product of primes p <= j + 1), and
    (n+1) B_n = -sum_(j<n) C(n+1, j) B_j divides exactly.
    """
    numbers, row = [lcm(*range(1, length + 1))], [1, 1]
    for n in range(1, length):
        row = list(map(add, row + [0], [0] + row))  # C(n+1, j), j <= n+1
        numbers.append(0 if n % 2 and n > 1 else  # B_n = 0 at odd n > 1
                       -sum(map(mul, row, numbers)) // (n + 1))
    return _lowest_terms([b * perm(length - 1, length - 1 - j) for j, b in enumerate(numbers)],
                         numbers[0] * factorial(length - 1))


def _up(alpha: int, lower: Coefficients, held: Coefficients | None) -> Coefficients:
    """Order alpha >= 2 from order alpha - 1 = a, at the lower order's length.

    N'_j = (a - j) N_j - a N_(j-1) over a D, then one gcd pass.  A shorter
    ``held`` order alpha keeps its numerators, rescaled (its denominator
    divides a D); only the entries past them are stepped.
    """
    a, (nums, den) = alpha - 1, lower
    d = a * den
    start, out = (len(held[0]), [v * (d // held[1]) for v in held[0]]) if held else (0, [])
    prev = nums[start - 1] if start else 0
    for j in range(start, len(nums)):
        x = nums[j]
        out.append((a - j) * x - a * prev)
        prev = x
    g = gcd(d, *reversed(out))  # the last entries shed the shared factors soonest
    return tuple([v // g for v in out]), d // g


def _down(alpha: int, upper: Coefficients, held: Coefficients | None) -> Coefficients:
    """Order alpha <= -1 from order alpha + 1, at the upper order's length L.

    With m = -alpha, c_j^(-m) = m! S2(j+m, m) / (j+m)!, so (L-1+m)!/m! is a
    denominator of the whole order and the numerators N_j stay ints with no
    gcd: N_j = (f U_j + m N_(j-1)) / (m + j), where U is the upper order over
    D_U and f = m (L-1+m)!/m! / D_U.  A shorter ``held`` order alpha keeps its
    numerators, rescaled; only the entries past them are stepped.
    """
    m, (nums, den_upper) = -alpha, upper
    den = perm(len(nums) - 1 + m, len(nums) - 1)
    f = m * den // den_upper
    start, out = (len(held[0]), [v * (den // held[1]) for v in held[0]]) if held else (0, [])
    prev = out[-1] if start else 0
    for j in range(start, len(nums)):
        prev = (f * nums[j] + m * prev) // (m + j)
        out.append(prev)
    return tuple(out), den


def _climb(alpha: int, length: int) -> Coefficients:
    """Order alpha at ``length`` terms, climbed from the nearest held order toward 0.

    Every held order nearer 0 is at ``length`` already; a held alpha is
    extended, not rebuilt.  Call under ``_ORDERS_LOCK``.
    """
    step, base, toward = (_up, 1, -1) if alpha > 0 else (_down, 0, 1)
    b = next((a for a in range(alpha + toward, base + toward, toward) if a in _ORDERS), base)
    if b == alpha or b not in _ORDERS:  # the seed, or F_0 = 1, afresh
        coeffs = _seed(length) if base else ((1,) + (0,) * (length - 1), 1)
    else:
        coeffs = _ORDERS[b]
    while b != alpha:
        b -= toward
        coeffs = step(b, coeffs, _ORDERS.get(alpha) if b == alpha else None)
    return coeffs


def _coefficients(n: int, alpha: int, name: str = "n") -> Coefficients:
    """Numerators and denominator of c_j^(alpha) for j <= n at least.

    A non-int n or alpha raises ``TypeError``, and n < 0 ``ValueError``,
    before any table is read.
    """
    if not (isinstance(n, int) and isinstance(alpha, int)):
        raise TypeError(f"{name} and alpha must be ints: {n!r}, {alpha!r}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    if abs(alpha) > n + 2:
        gf = _unit_power(_expm1_over_t, alpha, n + 1)
        return gf.numerators, gf.denominator
    held = _ORDERS.get(alpha)
    if held is None or len(held[0]) <= n:
        with _ORDERS_LOCK:
            length = len(next(iter(_ORDERS.values()))[0]) if _ORDERS else 0
            if n >= length:
                length = max(n + 1, 2 * length)
                for a in sorted(_ORDERS, key=abs):  # each climbs from orders grown before it
                    _ORDERS[a] = _climb(a, length)
            if alpha > 1 and 1 not in _ORDERS:
                _ORDERS[1] = _seed(length)
            if alpha not in _ORDERS:
                _ORDERS[alpha] = _climb(alpha, length)
            held = _ORDERS[alpha]
    return held


def bernoulli_hi_numbers(n_max: int, alpha: int) -> list[Fraction]:
    """B_0^(alpha) .. B_n_max^(alpha), the EGF coefficients of (t/(e^t-1))^alpha."""
    nums, den = _coefficients(n_max, alpha, "n_max")
    out, scale = [], 1
    for j in range(n_max + 1):
        scale *= j or 1
        out.append(Fraction(nums[j] * scale, den))
    return out


def bernoulli_hi_number(n: int, alpha: int) -> Fraction:
    nums, den = _coefficients(n, alpha)
    return Fraction(nums[n] * factorial(n), den)


def bernoulli_hi_poly(n: int, alpha: int) -> Polynomial:
    """B_n^(alpha)(x) = sum_j C(n,j) B_j^(alpha) x^(n-j); monic of degree n.

    With the order's numerators N_j over D, B_j^(alpha) = j! N_j / D, so the
    x^(n-j) coefficient is perm(n, j) N_j / D, built on ints.
    """
    nums, den = _coefficients(n, alpha)
    return Polynomial.from_numerators([perm(n, j) * nums[j] for j in range(n, -1, -1)], den)
