"""Mechanical verification of the identity catalogue over exact rationals.

Every named check re-derives both sides of one identity through independent
code paths and compares them exactly, polynomial identities by coefficient
vectors, never by sampling.  A check whose registry entry names a corrected
reading (an evident typo fix) yields, on each case where the two readings
differ, both left sides: ``(params, printed_lhs, rhs, corrected_lhs)``.
Every other case is ``(params, lhs, rhs)`` and reads the same either way.
One pass settles both readings: ``pass`` when the printed form holds,
``pass_with_correction`` when it fails but the registered corrected form
holds on every case (the report keeps the printed-form counterexamples),
``fail`` otherwise.  The point is to distinguish "true as printed" from
"true under the obvious fix" and to hide neither outcome.

Reports are plain data: deterministic, JSON-serialisable, byte-stable
across runs for a fixed grid.  ``Grid``, ``Counterexample`` and
``TheoremReport`` are immutable ``collections.namedtuple`` subclasses, so
each compares, hashes and unpacks as the plain tuple of its fields: a
``Grid`` equals ``(n_max, k_max, alpha_max, x_samples)``.  Checks are
independent of each other and of execution order.  The registry's keys define the check ids, ``CheckId``.
Every check sweeps n = 0..n_max, so a grid with n_max < 0 is vacuous: each
check reports zero cases.  Both sides of a check may share the arithmetic
layer and nothing above it: the sums of T5, T8, T9, T10, T13 and EQ58 all
run through one int kernel, ``polynomial._linear_combination``, and the
higher-order Cauchy generating functions through one table of unit powers,
``series._unit_power``.  The Bernoulli orders climb their own recurrence and
read that table only past the cap |alpha| <= n + 2.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm, perm

from .bernoulli import bernoulli_hi_poly
from .cauchy import (
    CauchyKind,
    CauchyMethod,
    cauchy_hi1,
    cauchy_hi_numbers,
    cauchy_hi_poly1,
    cauchy_hi_poly2,
    cauchy_hi_poly_bridge,
    cauchy_hi_poly_oracle,
    poly_cauchy1,
    poly_cauchy2,
    poly_cauchy_poly1,
    poly_cauchy_poly2,
    product_integrate,
)
from .polynomial import (Polynomial, _linear_combination, _over_common_denominator,
                         falling_factorial, rising_factorial)
from .rational import _unlimited_int_text, format_rational
from .series import (
    PowerSeries,
    cauchy1_gf,
    connection_coeffs,
    expm1_series,
    log1p_series,
    one_minus_exp_neg_series,
    one_series,
    t_series,
)
from .stirling import StirlingKind, stirling1_signed, stirling2

PASS = "pass"
FAIL = "fail"
PASS_WITH_CORRECTION = "pass_with_correction"


TAG_T13_INDEX = "expansion term B_n^(alpha)(x) read as B_m^(alpha)(x) under the summation index m"
TAG_SIGN_FIRST_KIND = "first-kind umbral expansion sign (-1)^(k-m) read as (-1)^m (stray (-1)^k dropped)"
TAG_POLYC_INDEX = "defining-integral index m read as n"


class Grid(namedtuple("Grid", "n_max k_max alpha_max x_samples", defaults=(
        15, 4, 3, (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 7))))):
    """Parameter ranges swept by a check; negative bounds give empty ranges.

    ``x_samples`` is a tuple of ``Fraction`` points.
    """

    __slots__ = ()

    def ns(self) -> range:
        return range(0, self.n_max + 1)

    def ks(self) -> range:
        return range(1, self.k_max + 1)

    def alphas(self) -> range:
        return range(1, self.alpha_max + 1)


DEFAULT_GRID = Grid()


class Counterexample(namedtuple("Counterexample", "params lhs rhs")):
    """One failing case: its parameter dict and both sides as canonical text."""

    __slots__ = ()


class TheoremReport(namedtuple("TheoremReport", "id grid status cases_checked "
                               "counterexamples corrected_reading", defaults=((), None))):
    """One check's outcome: its ``CheckId``, ``Grid``, status and case count.

    ``counterexamples`` is a tuple of at most five ``Counterexample``s of the
    printed form; ``corrected_reading`` is the tag of the reading that made
    the check pass, or ``None``.
    """

    __slots__ = ()

    @property
    def vacuous(self) -> bool:
        return self.cases_checked == 0


# (params, lhs, rhs), or (params, printed_lhs, rhs, corrected_lhs) where the
# registered corrected reading changes the left side
Case = tuple[dict, object, object] | tuple[dict, object, object, object]
_MAX_COUNTEREXAMPLES = 5


def _fmt(value) -> str:
    with _unlimited_int_text():
        if isinstance(value, Polynomial):
            return "[" + ",".join(format_rational(c) for c in value.coeffs) + "]"
        return format_rational(value)


# -- individual checks ------------------------------------------------------------
#
# Each generator yields its cases in a fixed nested order, so the first
# failure is the lexicographically minimal one for that ordering.

def _cases_t1(grid: Grid) -> Iterator[Case]:
    """T1: order-k first-kind numbers equal Bernoulli values B_n^(n-k+1)(1)."""
    for n in grid.ns():
        for k in grid.ks():
            yield ({"n": n, "k": k},
                   cauchy_hi1(n, k, CauchyMethod.GF_COEFF),
                   bernoulli_hi_poly(n, n - k + 1).evaluate(1))


def _cases_t2(grid: Grid) -> Iterator[Case]:
    """T2: multinomial convolution and Stirling sum both give the defining integral."""
    for n in grid.ns():
        for k in grid.ks():
            oracle = cauchy_hi1(n, k, CauchyMethod.INTEGRAL_ORACLE)
            yield ({"n": n, "k": k, "form": "convolution"},
                   cauchy_hi1(n, k, CauchyMethod.CONVOLUTION), oracle)
            yield ({"n": n, "k": k, "form": "stirling_sum"},
                   cauchy_hi1(n, k, CauchyMethod.STIRLING_SUM), oracle)


def _cases_t3(grid: Grid) -> Iterator[Case]:
    """T3: S2(m+k,k) from binomially weighted first-kind numbers (both displays)."""
    columns = {k: (_over_common_denominator(cauchy_hi_numbers(CauchyKind.FIRST, grid.n_max, k)),
                   _over_common_denominator([bernoulli_hi_poly(n, n - k + 1).evaluate(1)
                                             for n in grid.ns()]))
               for k in grid.ks()}
    for m in grid.ns():
        for k in grid.ks():
            lhs = Fraction(stirling2(m + k, k))
            front = comb(m + k, m)
            for form, (nums, den) in zip(("cauchy_sum", "bernoulli_sum"), columns[k]):
                yield ({"m": m, "k": k, "form": form}, lhs,
                       Fraction(front * sum(nums[n] * stirling2(m, n) for n in range(m + 1)), den))


def _cases_poly_paths(grid: Grid, kind: CauchyKind) -> Iterator[Case]:
    """T4: first-kind polynomials: triple sum and B_n^(n-k+1)(1-x) and the integral.

    T7: second-kind polynomials: triple sum and B_n^(n-k+1)(x-k+1) and the integral.
    """
    poly = cauchy_hi_poly1 if kind is CauchyKind.FIRST else cauchy_hi_poly2
    for n in grid.ns():
        for k in grid.ks():
            by_sum = poly(n, k)
            yield ({"n": n, "k": k, "form": "bernoulli_bridge"},
                   by_sum, cauchy_hi_poly_bridge(kind, n, k))
            yield ({"n": n, "k": k, "form": "integral_oracle"},
                   by_sum, cauchy_hi_poly_oracle(kind, n, k))


# The paper prints most identities once per kind.  Each display is built
# here from one weight polynomial w, transcribed once: the first kind reads
# it in powers of -x, w.reflect(), and the second kind in powers of x-k,
# w.shift(-k), because Chat_n^(k)(x) = C_n^(k)(k-x).  T6's second-kind
# numbers are that display at x = 0, w(-k).

def _s2_weights(m: int, k: int) -> Polynomial:
    # _cases_s2_resummation (T5/T8), T6: sum_n C(m,n)/C(n+k,n) S2(n+k,k) y^(m-n), over lcm C(n+k,n)
    den = lcm(*[comb(n + k, n) for n in range(m + 1)])
    return Polynomial.from_numerators([comb(m, n) * (den // comb(n + k, n)) * stirling2(n + k, k)
                                       for n in range(m, -1, -1)], den)


def _cases_s2_resummation(grid: Grid, kind: CauchyKind) -> Iterator[Case]:
    """T5: first-kind polynomial / S2 resummation identity.

    T8: second-kind polynomial / S2 resummation identity with (x-k) powers.
    """
    poly = cauchy_hi_poly1 if kind is CauchyKind.FIRST else cauchy_hi_poly2
    for m in grid.ns():
        for k in grid.ks():
            total = _linear_combination((poly(n, k), stirling2(m, n)) for n in range(m + 1))
            if kind is CauchyKind.FIRST:
                yield ({"m": m, "k": k}, _s2_weights(m, k).reflect(), total)
            else:
                yield ({"m": m, "k": k}, total, _s2_weights(m, k).shift(-k))


def _cases_t6(grid: Grid) -> Iterator[Case]:
    """T6: second-kind numbers / S2 resummation identity with (-k) powers."""
    numbers = {k: _over_common_denominator(cauchy_hi_numbers(CauchyKind.SECOND, grid.n_max, k))
               for k in grid.ks()}
    for n in grid.ns():
        for k in grid.ks():
            nums, den = numbers[k]
            rhs = Fraction(sum(nums[m] * stirling2(n, m) for m in range(n + 1)), den)
            yield ({"n": n, "k": k}, _s2_weights(n, k).evaluate(-k), rhs)


def _cases_reciprocity(grid: Grid, kind: CauchyKind) -> Iterator[Case]:
    """T9: reciprocity: (-1)^n C_n^(k)(x)/n! as a binomial sum of second-kind terms.

    T10: reciprocity: (-1)^n Chat_n^(k)(x)/n! as a binomial sum of first-kind terms.
    """
    poly, other = ((cauchy_hi_poly1, cauchy_hi_poly2) if kind is CauchyKind.FIRST
                   else (cauchy_hi_poly2, cauchy_hi_poly1))
    for n in grid.ns():
        if n < 1:
            continue
        for k in grid.ks():
            lhs = poly(n, k) * Fraction((-1) ** n, factorial(n))
            rhs = _linear_combination((other(m, k), Fraction(comb(n - 1, n - m), factorial(m)))
                                      for m in range(1, n + 1))
            yield ({"n": n, "k": k}, lhs, rhs)


def _cases_l11(grid: Grid) -> Iterator[Case]:
    """L11: difference equations n*C_(n-1)^(k)(x) = C_n^(k)(x-1) - C_n^(k)(x), both kinds."""
    kinds = (("first_kind", cauchy_hi_poly1, -1), ("second_kind", cauchy_hi_poly2, 1))
    for n in grid.ns():
        for k in grid.ks():
            for form, poly, step in kinds:
                p = poly(n, k)
                lhs = poly(n - 1, k) * n if n >= 1 else Polynomial.zero()
                yield ({"n": n, "k": k, "form": form}, lhs, p.shift(step) - p)


def _umbral_weights(row: tuple[int, ...], k: int) -> Polynomial:
    # T12: sum over l,m of C(l,m)/C(k+l-m,k) S2(k+l-m,k) S1(n,l) y^m, over lcm_j C(k+j,k),
    # with row[l] = S1(n,l)
    n = len(row) - 1
    den = lcm(*[comb(k + j, k) for j in range(n + 1)])
    col = [stirling2(k + j, k) for j in range(n + 1)]
    weights = [0] * (n + 1)
    for l, s1 in enumerate(row):
        if s1 == 0:
            continue
        for m in range(l + 1):
            weights[m] += comb(l, m) * (den // comb(k + l - m, k)) * col[l - m] * s1
    return Polynomial.from_numerators(weights, den)


def _operator_weights(row: tuple[int, ...], k: int) -> Polynomial:
    # EQ59-61: sum over l,m of k!/(k+m)! (l)_m S2(k+m,k) S1(n,l) y^(l-m), over (k+n)!/k!,
    # with row[l] = S1(n,l)
    n = len(row) - 1
    col = [stirling2(k + j, k) for j in range(n + 1)]
    weights = [0] * (n + 1)
    for l, s1 in enumerate(row):
        if s1 == 0:
            continue
        for m in range(l + 1):
            weights[l - m] += perm(k + n, n - m) * perm(l, m) * col[m] * s1
    return Polynomial.from_numerators(weights, perm(k + n, n))


def _cases_umbral(grid: Grid, weights_of: Callable[[tuple, int], Polynomial]) -> Iterator[Case]:
    """T12: umbral closed forms of both polynomial kinds in the monomial/(x-k) bases.

    EQ59_61: operator expansions behind the umbral closed forms, as printed.

    The printed first-kind sign carries a stray (-1)^k; the corrected
    reading drops it.  The weights read S1(n,l) off the coefficients of
    (x)_n, apart from the Stirling table that the right side reads.
    """
    for n in grid.ns():
        row = falling_factorial(n).numerators
        for k in grid.ks():
            weights = weights_of(row, k)
            corrected = weights.reflect()
            yield ({"n": n, "k": k, "form": "first_kind"},
                   corrected * (-1) ** k, cauchy_hi_poly1(n, k), corrected)
            yield ({"n": n, "k": k, "form": "second_kind"},
                   weights.shift(-k), cauchy_hi_poly2(n, k))


def _sheffer_frame(kind: CauchyKind, order: int) -> tuple[PowerSeries, PowerSeries]:
    """(1/u(fbar), fbar) for the kind's printed Sheffer pair (u^k, f), f at `order`.

    ((t/(1-e^-t))^k, e^-t - 1) for the first kind (EQ52) and ((te^t/(e^t-1))^k,
    e^t - 1) for the second (EQ53, T13).  f is reverted once and u composed
    once for every k: composing with fbar is a ring homomorphism of truncated
    series, so 1/g(fbar) = (1/u(fbar))^k exactly, at the same order.
    """
    if kind is CauchyKind.FIRST:
        unit = t_series(order + 1) / one_minus_exp_neg_series(order + 1)
        fbar = (-one_minus_exp_neg_series(order)).revert()
    else:
        unit = (t_series(order) * (expm1_series(order) + 1)) / expm1_series(order + 1)
        fbar = expm1_series(order).revert()
    return 1 / unit.compose(fbar), fbar


def _t13_coefficients(n_max: int, k: int, alpha: int,
                      s1: list[list[int]]) -> list[list[Fraction]]:
    """Rows n = 0..n_max of sum_l C(n,l) S1(n-l,m) Chat_l^(k+alpha)(alpha), m = 0..n.

    s1[j][m] is S1(j,m) for j <= n_max.  The values Chat_l^(k+alpha)(alpha)
    go over their lcm denominator, so each entry is an integer sum and one
    ``Fraction``.
    """
    nums, den = _over_common_denominator(
        [cauchy_hi_poly2(l, k + alpha).evaluate(alpha) for l in range(n_max + 1)])
    return [[Fraction(sum(comb(n, l) * s1[n - l][m] * nums[l] for l in range(n - m + 1)), den)
             for m in range(n + 1)]
            for n in range(n_max + 1)]


def _cases_t13(grid: Grid) -> Iterator[Case]:
    """T13: second-kind polynomials expanded in Bernoulli polynomials of order alpha.

    Per (alpha, k): the Sheffer connection matrix and the coefficient
    table, which share no code path with each other.  The printed reading
    resums with B_n^(alpha), the corrected one with B_m^(alpha).
    """
    order = grid.n_max + 2
    inverse, fbar = _sheffer_frame(CauchyKind.SECOND, order)
    h_of_fbar = (expm1_series(order + 1) / t_series(order + 1)).compose(fbar)
    s1 = [[stirling1_signed(j, m) for m in range(j + 1)] for j in grid.ns()]
    for alpha in grid.alphas():
        bases = [bernoulli_hi_poly(m, alpha) for m in grid.ns()]
        h_alpha = h_of_fbar ** alpha
        for k in grid.ks():
            matrix = connection_coeffs(h_alpha * inverse ** k, fbar, grid.n_max)
            coefficients = _t13_coefficients(grid.n_max, k, alpha, s1)
            for n in grid.ns():
                row = coefficients[n]
                yield ({"alpha": alpha, "k": k, "n": n, "form": "resummation"},
                       bases[n] * sum(row, Fraction(0)), cauchy_hi_poly2(n, k),
                       _linear_combination(zip(bases, row)))
                for m in range(n + 1):
                    yield ({"alpha": alpha, "k": k, "n": n, "m": m,
                            "form": "connection_matrix"},
                           row[m], matrix[n][m])


def _cases_stirling_gf(grid: Grid, kind: StirlingKind) -> Iterator[Case]:
    """EQ6: powers of log(1+t) generate signed first-kind Stirling numbers.

    EQ7: powers of e^t-1 generate second-kind Stirling numbers.
    """
    series, stirling = ((log1p_series, stirling1_signed) if kind is StirlingKind.SIGNED_FIRST
                        else (expm1_series, stirling2))
    order = grid.n_max + 3
    base = series(order)
    power = one_series(order)
    for n in grid.ns():
        if n:
            power = power * base
        for l in range(order):
            yield ({"n": n, "l": l},
                   power.coefficient(l),
                   Fraction(factorial(n) * stirling(l, n), factorial(l)))


def _cases_eq19_28(grid: Grid, shift: int) -> Iterator[Case]:
    """EQ19 (shift 0): (t/log(1+t))^e (1+t)^(x-1) generates B_j^(j-e+1)(x).

    EQ28 (shift 1): (t/log(1+t))^e (1+t)^x generates B_j^(j-e+1)(x+1).

    The left side stays on scalar series.  With (1+t)^x read as
    sum_m x^m log(1+t)^m / m!, the x^m coefficient of the j-th EGF
    coefficient is (j!/m!) [t^j] (t/log(1+t))^e (1+t)^(shift-1) log(1+t)^m,
    which is entry (j, m) of ``connection_coeffs`` on a running power of
    log(1+t), as EQ6 reads its powers.
    """
    order = grid.n_max + 1
    log = log1p_series(order)
    unit_power = PowerSeries([1, 1], order=order) ** (shift - 1)
    for e in grid.ks():
        rows = connection_coeffs((cauchy1_gf(order) ** e) * unit_power, log, grid.n_max)
        for j in grid.ns():
            yield ({"e": e, "j": j}, Polynomial(rows[j]),
                   bernoulli_hi_poly(j, j - e + 1).shift(shift))


def _cases_sheffer(grid: Grid, kind: CauchyKind) -> Iterator[Case]:
    """EQ52: first-kind polynomials are the Sheffer sequence for ((t/(1-e^-t))^k, e^-t-1).

    EQ53: second-kind polynomials are the Sheffer sequence for ((te^t/(e^t-1))^k, e^t-1).
    """
    poly = cauchy_hi_poly1 if kind is CauchyKind.FIRST else cauchy_hi_poly2
    inverse, fbar = _sheffer_frame(kind, grid.n_max + 2)
    for k in grid.ks():
        rows = connection_coeffs(inverse ** k, fbar, grid.n_max)
        for n in grid.ns():
            yield ({"k": k, "n": n}, Polynomial(rows[n]), poly(n, k))


def _apply_series_operator(op: PowerSeries, p: Polynomial) -> Polynomial:
    """Evaluate op(d/dx) p(x): the t^j coefficient of op multiplies the j-th derivative."""
    derivatives = [p]
    while len(derivatives) < op.order and derivatives[-1]:
        derivatives.append(derivatives[-1].derivative())
    return _linear_combination(zip(derivatives, op.coeffs))


def _cases_eq58(grid: Grid) -> Iterator[Case]:
    """EQ58: (t/(1-e^-t))^k maps C_n^(k)(x) to the signed rising factorial."""
    unit = t_series(grid.n_max + 2) / one_minus_exp_neg_series(grid.n_max + 2)
    for k in grid.ks():
        op = unit ** k
        for n in grid.ns():
            signed_rising = rising_factorial(n) * (-1) ** n
            yield ({"k": k, "n": n, "form": "operator"},
                   _apply_series_operator(op, cauchy_hi_poly1(n, k)), signed_rising)
            yield ({"k": k, "n": n, "form": "stirling_expansion"},
                   signed_rising,
                   Polynomial([(-1) ** l * stirling1_signed(n, l) for l in range(n + 1)]))


def _cases_polyc(grid: Grid) -> Iterator[Case]:
    """POLYC_ORACLE: poly-Cauchy explicit formulas against the product-integral oracle.

    The defining-integral index is read as n throughout (the printed index
    m is unbound); the oracle never touches Stirling numbers.
    """
    for n in grid.ns():
        ff = falling_factorial(n)
        reflected = ff.reflect()
        shifted = [(z, ff.shift(-z), reflected.shift(-z)) for z in grid.x_samples]
        for k in grid.ks():
            yield ({"n": n, "k": k, "form": "numbers_first"},
                   poly_cauchy1(n, k), product_integrate(ff, k))
            yield ({"n": n, "k": k, "form": "numbers_second"},
                   poly_cauchy2(n, k), product_integrate(reflected, k))
            for z, first, second in shifted:
                yield ({"n": n, "k": k, "z": format_rational(z), "form": "poly_first"},
                       poly_cauchy_poly1(n, k, z), product_integrate(first, k))
                yield ({"n": n, "k": k, "z": format_rational(z), "form": "poly_second"},
                       poly_cauchy_poly2(n, k, z), product_integrate(second, k))


class _Check(namedtuple("_Check", "cases correction structural", defaults=(None, None))):
    """One registry entry: how a check's cases are built, and its readings.

    ``cases(grid)`` yields the check's cases; the statement checked is its
    docstring.  ``correction`` tags the corrected reading that the 4-tuple
    cases carry; it is reported only when the printed form fails.
    ``structural`` tags a reading applied before anything can run, because
    the printed form is not executable (an unbound index); such a check
    never reports a plain pass.  Each reading is an evident-typo fix, never a silent repair.
    """

    __slots__ = ()


_REGISTRY: dict[str, _Check] = {
    "T1": _Check(_cases_t1),
    "T2": _Check(_cases_t2),
    "T3": _Check(_cases_t3),
    "T4": _Check(partial(_cases_poly_paths, kind=CauchyKind.FIRST)),
    "T5": _Check(partial(_cases_s2_resummation, kind=CauchyKind.FIRST)),
    "T6": _Check(_cases_t6),
    "T7": _Check(partial(_cases_poly_paths, kind=CauchyKind.SECOND)),
    "T8": _Check(partial(_cases_s2_resummation, kind=CauchyKind.SECOND)),
    "T9": _Check(partial(_cases_reciprocity, kind=CauchyKind.FIRST)),
    "T10": _Check(partial(_cases_reciprocity, kind=CauchyKind.SECOND)),
    "L11": _Check(_cases_l11),
    "T12": _Check(partial(_cases_umbral, weights_of=_umbral_weights),
                  correction=TAG_SIGN_FIRST_KIND),
    "T13": _Check(_cases_t13, correction=TAG_T13_INDEX),
    "EQ6": _Check(partial(_cases_stirling_gf, kind=StirlingKind.SIGNED_FIRST)),
    "EQ7": _Check(partial(_cases_stirling_gf, kind=StirlingKind.SECOND)),
    "EQ19": _Check(partial(_cases_eq19_28, shift=0)),
    "EQ28": _Check(partial(_cases_eq19_28, shift=1)),
    "EQ52": _Check(partial(_cases_sheffer, kind=CauchyKind.FIRST)),
    "EQ53": _Check(partial(_cases_sheffer, kind=CauchyKind.SECOND)),
    "EQ58": _Check(_cases_eq58),
    "EQ59_61": _Check(partial(_cases_umbral, weights_of=_operator_weights),
                      correction=TAG_SIGN_FIRST_KIND),
    "POLYC_ORACLE": _Check(_cases_polyc, structural=TAG_POLYC_INDEX),
}

CheckId = enum.Enum("CheckId", [(name, name) for name in _REGISTRY], module=__name__)
CheckId.__doc__ = "Identifiers of the executable identity checks, in suite order."
_CHECKS: dict[CheckId, _Check] = dict(zip(CheckId, _REGISTRY.values()))


def verify(check_id: CheckId, grid: Grid | None = None) -> TheoremReport:
    """Run one check over the grid, settling both of its readings in one pass."""
    if not isinstance(check_id, CheckId):
        raise ValueError(f"unknown check id: {check_id!r}")
    grid = DEFAULT_GRID if grid is None else grid
    check = _CHECKS[check_id]
    checked = 0
    failures: list[Counterexample] = []
    corrected_holds = True
    # every check sweeps n = 0..n_max, so a grid with n_max < 0 has no cases
    for params, lhs, rhs, *corrected in check.cases(grid) if grid.n_max >= 0 else ():
        checked += 1
        printed_holds = lhs == rhs
        if not printed_holds and len(failures) < _MAX_COUNTEREXAMPLES:
            failures.append(Counterexample(dict(params), _fmt(lhs), _fmt(rhs)))
        if corrected_holds:
            corrected_holds = corrected[0] == rhs if corrected else printed_holds
    reading = check.structural
    if failures:
        if check.correction is None or not corrected_holds:
            return TheoremReport(check_id, grid, FAIL, checked, tuple(failures))
        reading = check.correction if reading is None else f"{reading}; {check.correction}"
    return TheoremReport(check_id, grid, PASS if reading is None else PASS_WITH_CORRECTION,
                         checked, tuple(failures), reading)


def run_suite(grid: Grid | None = None,
              checks: Iterable[CheckId] | None = None) -> list[TheoremReport]:
    """Run the selected checks (all by default) in declaration order; unknown ids raise."""
    grid = DEFAULT_GRID if grid is None else grid
    selected = set(CheckId) if checks is None else set(checks)
    unknown = selected.difference(CheckId)
    if unknown:
        raise ValueError(f"unknown check id: {', '.join(sorted(map(repr, unknown)))}")
    return [verify(cid, grid) for cid in CheckId if cid in selected]


def suite_exit_code(reports: Iterable[TheoremReport]) -> int:
    return 1 if any(r.status == FAIL for r in reports) else 0


def _report_json(report: TheoremReport) -> dict:
    """A report as JSON data, its fields in declaration order.

    A ``None`` field is left out, the ``CheckId`` is its value and each
    ``Fraction`` its canonical text.
    """
    grid = report.grid
    obj = {"id": report.id.value,
           "grid": {"n_max": grid.n_max, "k_max": grid.k_max, "alpha_max": grid.alpha_max,
                    "x_samples": [format_rational(x) for x in grid.x_samples]},
           "status": report.status,
           "cases_checked": report.cases_checked,
           "counterexamples": [{"params": ce.params, "lhs": ce.lhs, "rhs": ce.rhs}
                               for ce in report.counterexamples]}
    if report.corrected_reading is not None:
        obj["corrected_reading"] = report.corrected_reading
    return obj


def reports_to_json(reports: Iterable[TheoremReport]) -> str:
    return json.dumps([_report_json(r) for r in reports], separators=(",", ":"))


def reports_to_text(reports: Iterable[TheoremReport]) -> str:
    lines = []
    reports = list(reports)
    for r in reports:
        status = r.status + (" (vacuous)" if r.vacuous else "")
        lines.append(f"{r.id.value:<13} {status:<28} cases={r.cases_checked}")
        if r.corrected_reading is not None:
            lines.append(f"    corrected reading: {r.corrected_reading}")
        for ce in r.counterexamples:
            params = ", ".join(f"{key}={val}" for key, val in ce.params.items())
            lines.append(f"    printed form fails at {params}: {ce.lhs} != {ce.rhs}")
    failed = [r.id.value for r in reports if r.status == FAIL]
    lines.append("result: " + ("FAIL " + ",".join(failed) if failed else "ok"))
    return "\n".join(lines)
