"""Exact Newton interpolation, the sampling reference.

The package builds its integral-oracle polynomials by iterated integration
(``cauchy.cauchy_hi_poly_oracle``) and samples nothing; the tests check
that construction against the polynomial interpolated through sampled
values, built here.
"""

from typing import Sequence

from cauchykit.polynomial import Polynomial, Scalar
from cauchykit.rational import _as_fraction


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
