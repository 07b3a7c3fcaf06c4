"""Cauchy families: classical, poly-, higher-order; all computation paths."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchykit import cauchy, polynomial, stirling
from cauchykit.cauchy import (
    CauchyKind,
    CauchyMethod,
    cauchy1,
    cauchy2,
    cauchy_hi1,
    cauchy_hi2,
    cauchy_hi_poly1,
    cauchy_hi_poly2,
    cauchy_hi_poly_oracle,
    cauchy_hi_poly_sum,
    classical_cauchy,
    cube_integrate,
    poly_cauchy1,
    poly_cauchy2,
    poly_cauchy_poly1,
    poly_cauchy_poly2,
    product_integrate,
)
from cauchykit.bernoulli import bernoulli_hi_poly
from cauchykit.polynomial import Polynomial, falling_factorial, rising_factorial
from cauchykit.stirling import stirling1_signed, stirling1_unsigned
from combinatorial_reference import compositions, multinomial
from interpolation_reference import interpolate

F = Fraction

ALL_METHODS = tuple(CauchyMethod)
SECOND_KIND_METHODS = tuple(m for m in CauchyMethod if m is not CauchyMethod.CONVOLUTION)
GRID_ZS = [F(0), F(1), F(-1), F(1, 2), F(-3, 7)]

# values fixed from the iterated-integral oracle
CLASSICAL_FIRST = [F(1), F(1, 2), F(-1, 6), F(1, 4), F(-19, 30), F(9, 4),
                   F(-863, 84), F(1375, 24)]
CLASSICAL_SECOND = [F(1), F(-1, 2), F(5, 6), F(-9, 4), F(251, 30), F(-475, 12),
                    F(19087, 84), F(-36799, 24)]


def test_classical_first_kind_table():
    assert [cauchy1(n) for n in range(8)] == CLASSICAL_FIRST


def test_classical_second_kind_table():
    assert [cauchy2(n) for n in range(8)] == CLASSICAL_SECOND


def test_classical_against_integral_oracle():
    for n in range(12):
        assert cauchy1(n) == cube_integrate(falling_factorial(n), 1)
        assert cauchy2(n) == cube_integrate(falling_factorial(n).reflect(), 1)


def test_classical_kind_dispatch():
    assert classical_cauchy(4, CauchyKind.FIRST) == F(-19, 30)
    assert classical_cauchy(2, CauchyKind.SECOND) == F(5, 6)


# -- integration oracles ------------------------------------------------------

def test_cube_integrate_constant():
    for k in range(1, 6):
        assert cube_integrate(Polynomial.one(), k) == 1


def test_cube_integrate_linear():
    assert cube_integrate(Polynomial.x(), 1) == F(1, 2)


def test_cube_integrate_falling_factorial():
    assert cube_integrate(falling_factorial(2), 2) == F(1, 6)


def test_cube_integrate_needs_positive_k():
    with pytest.raises(ValueError):
        cube_integrate(Polynomial.one(), 0)


def test_product_integrate_monomials():
    # int over the k-cube of (x_1...x_k)^m is 1/(m+1)^k
    for k in range(1, 5):
        for m in range(5):
            assert product_integrate(Polynomial.monomial(m), k) == F(1, (m + 1) ** k)


def test_product_and_cube_agree_for_one_variable():
    p = Polynomial((F(1, 3), -2, 0, 5))
    assert product_integrate(p, 1) == cube_integrate(p, 1)


# -- poly-Cauchy family ----------------------------------------------------------

def test_poly_cauchy_first_examples():
    assert poly_cauchy1(1, 2) == F(1, 4)
    assert poly_cauchy1(2, 2) == F(-5, 36)
    for n in range(11):
        assert poly_cauchy1(n, 1) == cauchy1(n)


def test_poly_cauchy_second_examples():
    for k in range(1, 4):
        assert poly_cauchy2(0, k) == 1
    assert poly_cauchy2(1, 2) == F(-1, 4)
    for n in range(11):
        assert poly_cauchy2(n, 1) == cauchy2(n)


def test_poly_cauchy_against_product_oracle():
    for n in range(9):
        ff = falling_factorial(n)
        for k in range(1, 4):
            assert poly_cauchy1(n, k) == product_integrate(ff, k)
            assert poly_cauchy2(n, k) == product_integrate(ff.reflect(), k)


def test_poly_cauchy_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poly_cauchy1(-1, 2)
    with pytest.raises(ValueError):
        poly_cauchy1(3, 0)


@pytest.mark.parametrize("z", [F(0), F(1), F(-1), F(1, 2), F(-3, 7)])
def test_poly_cauchy_polynomials_linear_case(z):
    assert poly_cauchy_poly1(1, 1, z) == F(1, 2) - z
    assert poly_cauchy_poly2(1, 1, z) == z - F(1, 2)


def test_poly_cauchy_polynomials_reject_float_argument():
    with pytest.raises(TypeError):
        poly_cauchy_poly1(3, 2, 0.1)
    with pytest.raises(TypeError):
        poly_cauchy_poly2(3, 2, 0.1)


@pytest.mark.parametrize("entry, ints, inexact", [
    (cauchy1, (3,), (3.0,)),
    (cauchy1, (3,), (F(3),)),
    (cauchy_hi_poly1, (3, 2), (3.0, 2)),
    (cauchy_hi_poly2, (3, 2), (3, 2.0)),
    (cauchy_hi1, (5, 2), (5, 2.0)),
    (cauchy_hi1, (5, 2, CauchyMethod.CONVOLUTION), (5.0, 2, CauchyMethod.CONVOLUTION)),
    (bernoulli_hi_poly, (4, 2), (4, 2.0)),
], ids=["cauchy1-float", "cauchy1-fraction", "hi_poly1", "hi_poly2", "hi_gf",
        "convolution", "bernoulli_gf"])
def test_memo_hit_does_not_admit_an_inexact_index(entry, ints, inexact):
    # 3.0 and Fraction(3) hash like 3, so an untyped memo would answer them
    # from the int entry once that is cached, and reject them only when cold
    entry(*ints)
    with pytest.raises(TypeError):
        entry(*inexact)


def test_poly_cauchy_polynomials_at_zero_reduce_to_numbers():
    for n in range(7):
        for k in range(1, 4):
            assert poly_cauchy_poly1(n, k, F(0)) == poly_cauchy1(n, k)
            assert poly_cauchy_poly2(n, k, F(0)) == poly_cauchy2(n, k)


def test_poly_cauchy_polynomial_shifted_value():
    # (u-1)_2 integrated once: u^2-3u+2 -> 1/3 - 3/2 + 2
    assert poly_cauchy_poly1(2, 1, F(1)) == F(5, 6)
    assert poly_cauchy_poly1(2, 1, F(1)) == product_integrate(
        falling_factorial(2).shift(-1), 1)


def test_poly_cauchy_polynomial_against_oracle():
    for n in range(7):
        ff = falling_factorial(n)
        for k in range(1, 4):
            for z in GRID_ZS:
                assert poly_cauchy_poly1(n, k, z) == product_integrate(ff.shift(-z), k)
                assert poly_cauchy_poly2(n, k, z) == product_integrate(
                    ff.reflect().shift(-z), k)


def unsigned_poly_cauchy_poly2(n, k, z):
    """Reference: the paper's second-kind formula in unsigned Stirling numbers,
    (-1)^n sum_m [n m] sum_i C(m,i)(-z)^i/(m-i+1)^k."""
    total = sum((stirling1_unsigned(n, m)
                 * sum((comb(m, i) * (-z) ** i * F(1, (m - i + 1) ** k) for i in range(m + 1)),
                       F(0))
                 for m in range(n + 1)), F(0))
    return -total if n % 2 else total


def test_second_kind_matches_the_unsigned_stirling_formula():
    for n in range(13):
        for k in range(1, 5):
            assert poly_cauchy2(n, k) == unsigned_poly_cauchy_poly2(n, k, F(0)), (n, k)
            for z in GRID_ZS:
                assert poly_cauchy_poly2(n, k, z) == unsigned_poly_cauchy_poly2(n, k, z), (n, k, z)


def signed_row(kind, n):
    sign = 1 if kind is CauchyKind.FIRST else -1
    return [sign ** m * stirling1_signed(n, m) for m in range(n + 1)]


def fraction_loop_poly_cauchy(kind, n, k):
    """Reference: sum_m row(n,m)/(m+1)^k added one Fraction at a time."""
    return sum((c * F(1, (m + 1) ** k) for m, c in enumerate(signed_row(kind, n))), F(0))


def fraction_loop_poly_cauchy_poly(kind, n, k, z):
    """Reference: sum_m row(n,m) sum_i C(m,i)(-z)^i/(m-i+1)^k, one Fraction at a time."""
    total = F(0)
    for m, c in enumerate(signed_row(kind, n)):
        if c == 0:
            continue
        inner = sum((comb(m, i) * (-z) ** i * F(1, (m - i + 1) ** k) for i in range(m + 1)),
                    F(0))
        total += c * inner
    return total


wide_zs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(list(CauchyKind)), st.integers(0, 14), st.integers(1, 5), wide_zs)
@example(CauchyKind.FIRST, 0, 1, F(0))
@example(CauchyKind.SECOND, 0, 4, F(-3, 7))
@example(CauchyKind.FIRST, 14, 5, F(0))
@example(CauchyKind.SECOND, 14, 5, F(-999_999, 1_000_000))
def test_int_kernels_match_the_fraction_loops(kind, n, k, z):
    assert cauchy.poly_cauchy(kind, n, k) == fraction_loop_poly_cauchy(kind, n, k)
    assert (cauchy.poly_cauchy_poly(kind, n, k, z)
            == fraction_loop_poly_cauchy_poly(kind, n, k, z))


@pytest.mark.parametrize("kind", list(CauchyKind))
def test_int_kernels_match_the_fraction_loops_at_large_k(kind):
    # the common denominator lcm(1..11)^200 has 889 digits
    n, k = 10, 200
    assert cauchy.poly_cauchy(kind, n, k) == fraction_loop_poly_cauchy(kind, n, k)
    for z in GRID_ZS:
        assert (cauchy.poly_cauchy_poly(kind, n, k, z)
                == fraction_loop_poly_cauchy_poly(kind, n, k, z))


def antiderivative_rounds(p, k):
    """Reference product integral: k rounds of the antiderivative, constant dropped, at 1."""
    q = p
    for _ in range(k):
        q = Polynomial(q.antiderivative().coeffs[1:])
    return sum(q.coeffs, F(0))


product_integrands = st.one_of(
    st.integers(0, 14).map(falling_factorial),
    st.lists(wide_zs, max_size=15).map(Polynomial))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(product_integrands, st.integers(1, 6))
@example(Polynomial(), 3)
@example(Polynomial((F(-2, 3),)), 1)
@example(falling_factorial(10), 200)
@example(Polynomial((F(1, 999_983), 0, F(-7, 10**6), F(5, 3))), 200)
def test_product_integrate_matches_antiderivative_rounds(p, k):
    value = product_integrate(p, k)
    assert type(value) is F
    assert value == antiderivative_rounds(p, k)


def test_product_integrate_needs_no_stirling_numbers(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the product integral reached a path it is meant to check")

    monkeypatch.setattr(cauchy, "stirling1_signed", forbidden)
    monkeypatch.setattr(cauchy, "_stirling_row", forbidden)
    monkeypatch.setattr(cauchy, "poly_cauchy_poly", forbidden)
    ff = falling_factorial(4)
    assert product_integrate(ff, 1) == F(-19, 30)
    assert product_integrate(ff.shift(F(-1, 2)), 3) == antiderivative_rounds(ff.shift(F(-1, 2)), 3)


def test_kernels_run_on_the_stored_numerators(monkeypatch):
    # The polynomials are built first: the constructor from scalars may convert.
    p = Polynomial((F(1, 3), -2, 0, F(5, 7)))
    q = falling_factorial(5).reflect()

    def run():
        return (p * q, p * F(-2, 3), p.shift(F(1, 2)), p.evaluate(F(-3, 5)), p + q,
                p.reflect(), p.antiderivative(), product_integrate(p, 3),
                cauchy.poly_cauchy_poly(CauchyKind.FIRST, 6, 2, F(1, 3)),
                cauchy.poly_cauchy_poly(CauchyKind.SECOND, 6, 2, F(-2, 5)))

    expected = run()

    def forbidden(*args):
        raise AssertionError("a kernel put Fraction coefficients over a common denominator")

    monkeypatch.setattr(polynomial, "_over_common_denominator", forbidden)
    monkeypatch.setattr(cauchy, "_over_common_denominator", forbidden)
    assert run() == expected


def fraction_loop_convolution(n, k):
    """Reference convolution: the binomial fold in k, one Fraction per term."""
    classical = [cauchy1(j) for j in range(n + 1)]
    row = [F(1)] + [F(0)] * n
    for _ in range(k):
        row = [sum((comb(m, j) * row[j] * classical[m - j] for j in range(m + 1)), F(0))
               for m in range(n + 1)]
    return row[n]


def fraction_loop_hi_poly_sum(kind, n, k):
    """Reference triple sum, one Fraction per term."""
    coeffs = [F(0)] * (n + 1)
    for l, c in enumerate(signed_row(kind, n)):
        if c == 0:
            continue
        for j in range(l + 1):
            coeffs[l - j] += c * comb(l, j) * cauchy._sum_power_volume(j, k) * (-1) ** (l - j)
    return Polynomial(coeffs)


@pytest.mark.parametrize("kind", list(CauchyKind))
def test_int_sums_match_the_fraction_loops_exhaustively(kind):
    # every n <= 14, k <= 5: the fold on the uncached kernel, the triple sum at k >= 1
    for n in range(15):
        for k in range(6):
            if kind is CauchyKind.FIRST:
                assert (cauchy._convolution_first.__wrapped__(n, k)
                        == fraction_loop_convolution(n, k)), (n, k)
            if k >= 1:
                poly = cauchy_hi_poly_sum(kind, n, k)
                assert poly.coeffs == fraction_loop_hi_poly_sum(kind, n, k).coeffs, (n, k)
                assert all(type(c) is F for c in poly.coeffs)


# -- higher-order numbers -----------------------------------------------------------

def test_hi1_base_cases():
    for k in range(6):
        for method in ALL_METHODS:
            if k == 0 and method is CauchyMethod.INTEGRAL_ORACLE:
                continue
            assert cauchy_hi1(0, k, method) == 1


def test_hi1_examples():
    for method in ALL_METHODS:
        assert cauchy_hi1(1, 2, method) == 1
        assert cauchy_hi1(2, 2, method) == F(1, 6)


def test_hi1_small_table():
    assert [cauchy_hi1(n, 2) for n in range(6)] == [
        F(1), F(1), F(1, 6), F(0), F(-1, 10), F(1, 2)]


def test_hi2_examples():
    for method in SECOND_KIND_METHODS:
        assert cauchy_hi2(0, 3, method) == 1
        assert cauchy_hi2(1, 2, method) == -1
        assert cauchy_hi2(2, 1, method) == F(5, 6)


def test_hi2_small_table():
    assert [cauchy_hi2(n, 2) for n in range(6)] == [
        F(1), F(-1), F(13, 6), F(-7), F(299, 10), F(-317, 2)]


def test_all_methods_agree_on_a_grid():
    for n in range(9):
        for k in range(1, 4):
            first = {m: cauchy_hi1(n, k, m) for m in ALL_METHODS}
            assert len(set(first.values())) == 1, (n, k, first)
            second = {m: cauchy_hi2(n, k, m) for m in SECOND_KIND_METHODS}
            assert len(set(second.values())) == 1, (n, k, second)


def enumerated_volume(l, k):
    """Reference cube volume: the composition sum, term by term."""
    if k == 0:
        return F(int(l == 0))
    total = F(0)
    for parts in compositions(l, k):
        denom = 1
        for p in parts:
            denom *= p + 1
        total += F(multinomial(l, parts), denom)
    return total


def enumerated_convolution(n, k):
    """Reference convolution: multinomial-weighted products of classical values."""
    if k == 0:
        return F(int(n == 0))
    total = F(0)
    for parts in compositions(n, k):
        prod = F(multinomial(n, parts))
        for p in parts:
            prod *= cauchy1(p)
        total += prod
    return total


@pytest.mark.parametrize("k", range(5))
def test_binomial_folds_match_composition_enumeration(k):
    # every (l, k) with l <= 8, k <= 4, on the uncached kernels
    for l in range(9):
        assert cauchy._sum_power_volume.__wrapped__(l, k) == enumerated_volume(l, k), (l, k)
        assert cauchy._convolution_first.__wrapped__(l, k) == enumerated_convolution(l, k), (l, k)


def test_large_order_needs_no_deep_recursion():
    # the folds are iterative in k, so k far beyond the recursion limit works
    k = 1500
    expected = cauchy_hi1(3, k, CauchyMethod.GF_COEFF)
    assert cauchy_hi1(3, k, CauchyMethod.STIRLING_SUM) == expected
    assert cauchy_hi1(3, k, CauchyMethod.CONVOLUTION) == expected
    assert cauchy_hi2(3, k, CauchyMethod.STIRLING_SUM) == cauchy_hi2(3, k, CauchyMethod.GF_COEFF)


def test_k_zero_convention():
    for method in (CauchyMethod.STIRLING_SUM, CauchyMethod.CONVOLUTION,
                   CauchyMethod.GF_COEFF, CauchyMethod.BERNOULLI_BRIDGE):
        assert cauchy_hi1(0, 0, method) == 1
        for n in range(1, 6):
            assert cauchy_hi1(n, 0, method) == 0
    for method in (CauchyMethod.STIRLING_SUM, CauchyMethod.GF_COEFF,
                   CauchyMethod.BERNOULLI_BRIDGE):
        assert cauchy_hi2(0, 0, method) == 1
        for n in range(1, 6):
            assert cauchy_hi2(n, 0, method) == 0


def test_bridge_numbers_take_no_taylor_shift(monkeypatch):
    # the number path reads the bridge polynomial at x = 0 by evaluation alone
    expected = {(kind, n, k): cauchy.cauchy_hi(kind, n, k, CauchyMethod.GF_COEFF)
                for kind in CauchyKind for n in range(31) for k in range(n + 4)}

    def no_shift(self, offset):
        raise AssertionError("the bridge number ran a Taylor shift")

    monkeypatch.setattr(Polynomial, "shift", no_shift)
    for (kind, n, k), value in expected.items():
        assert cauchy.cauchy_hi(kind, n, k, CauchyMethod.BERNOULLI_BRIDGE) == value


def test_integral_oracle_needs_positive_k():
    with pytest.raises(ValueError):
        cauchy_hi1(3, 0, CauchyMethod.INTEGRAL_ORACLE)


def test_second_kind_has_no_convolution_path():
    with pytest.raises(ValueError, match="first kind"):
        cauchy_hi2(3, 2, CauchyMethod.CONVOLUTION)


def test_argument_validation():
    with pytest.raises(ValueError):
        cauchy_hi1(-1, 2)
    with pytest.raises(ValueError):
        cauchy_hi2(2, -1)


def test_unknown_method_rejected():
    # a method that is not a CauchyMethod must not fall through to a path
    with pytest.raises(ValueError, match="unknown method"):
        cauchy_hi2(5, 2, "convolution")
    with pytest.raises(ValueError, match="unknown method"):
        cauchy_hi1(5, 2, None)
    with pytest.raises(ValueError, match="unknown method"):
        cauchy_hi1(4, 0, "gf_coeff")


@pytest.mark.parametrize("kind", ["first", "second", CauchyMethod.GF_COEFF, None, 1])
def test_unknown_kind_rejected(kind):
    # a kind that is not a CauchyKind must not be read as the second kind,
    # which would make classical_cauchy(3, "first") Chat_3 = -9/4, not C_3 = 1/4
    calls = [
        lambda: classical_cauchy(3, kind),
        lambda: cauchy.poly_cauchy(kind, 3, 2),
        lambda: cauchy.poly_cauchy_poly(kind, 3, 2, F(1, 2)),
        lambda: cauchy.cauchy_hi_numbers(kind, 3, 2),
        lambda: cauchy.cauchy_hi_poly_bridge(kind, 3, 2),
        lambda: cauchy_hi_poly_sum(kind, 3, 2),
        lambda: cauchy_hi_poly_oracle(kind, 3, 2),
        *[lambda method=method: cauchy.cauchy_hi(kind, 3, 2, method) for method in ALL_METHODS],
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown kind"):
            call()
    assert classical_cauchy(3, CauchyKind.FIRST) == F(1, 4)


POLY_PATHS = [cauchy_hi_poly_sum, cauchy.cauchy_hi_poly_bridge, cauchy_hi_poly_oracle]


@pytest.mark.parametrize("path", POLY_PATHS, ids=[p.__name__ for p in POLY_PATHS])
@pytest.mark.parametrize("kind", list(CauchyKind), ids=lambda kind: kind.name.lower())
def test_polynomial_paths_reject_k_zero(path, kind):
    # T4/T7 compare the three paths, so they take the same k; only the numbers define k = 0
    with pytest.raises(ValueError, match="k must be positive"):
        path(kind, 3, 0)


def test_k_one_degenerates_to_classical():
    for n in range(21):
        assert cauchy_hi1(n, 1) == cauchy1(n)
        assert cauchy_hi2(n, 1) == cauchy2(n)


# -- higher-order polynomials ----------------------------------------------------------

def test_hi_poly1_linear():
    assert cauchy_hi_poly1(1, 1) == Polynomial((F(1, 2), -1))


def test_hi_poly1_quadratic_flat():
    # fixed from the integral oracle: x^2 - x + 1/6
    assert cauchy_hi_poly1(2, 2) == Polynomial((F(1, 6), -1, 1))
    assert cauchy_hi_poly1(2, 2) == cauchy_hi_poly_oracle(CauchyKind.FIRST, 2, 2)


def test_hi_poly1_cubic():
    assert cauchy_hi_poly1(3, 2) == Polynomial((0, F(1, 2), 0, -1))


def test_hi_poly2_examples():
    assert cauchy_hi_poly2(1, 1) == Polynomial((F(-1, 2), 1))
    assert cauchy_hi_poly2(1, 2) == Polynomial((-1, 1))
    assert cauchy_hi_poly2(2, 2) == Polynomial((F(13, 6), -3, 1))


def test_hi_poly_constant_terms_are_numbers():
    for n in range(9):
        for k in range(1, 4):
            assert cauchy_hi_poly1(n, k).constant == cauchy_hi1(n, k)
            assert cauchy_hi_poly2(n, k).constant == cauchy_hi2(n, k)


def test_hi_poly_degrees():
    for n in range(9):
        for k in range(1, 4):
            assert cauchy_hi_poly1(n, k).degree == n
            assert cauchy_hi_poly2(n, k).degree == n


def test_reflection_structure():
    # first kind equals the reflected Bernoulli polynomial of order n-k+1
    for n in range(11):
        for k in range(1, 4):
            bridge = bernoulli_hi_poly(n, n - k + 1)
            assert cauchy_hi_poly1(n, k) == bridge.reflect().shift(-1)
            assert cauchy_hi_poly2(n, k) == bridge.shift(1 - k)


def sampled_oracle(kind, n, k):
    """Reference: cube-integrate the integrand at x0 = 0..n and interpolate."""
    ff = falling_factorial(n)
    if kind is CauchyKind.SECOND:
        ff = ff.reflect()
    return interpolate([(F(x0), cube_integrate(ff.shift(-x0), k)) for x0 in range(n + 1)])


def test_hi_poly_against_interpolated_oracle():
    for n in range(8):
        for k in range(1, 4):
            assert cauchy_hi_poly1(n, k) == cauchy_hi_poly_oracle(CauchyKind.FIRST, n, k)
            assert cauchy_hi_poly2(n, k) == cauchy_hi_poly_oracle(CauchyKind.SECOND, n, k)


@pytest.mark.parametrize("kind", list(CauchyKind))
def test_operator_power_oracle_matches_sample_and_interpolate(kind):
    for n in range(13):
        for k in range(1, 5):
            assert cauchy_hi_poly_oracle(kind, n, k) == sampled_oracle(kind, n, k), (n, k)


def test_polynomial_oracle_needs_no_stirling_series_or_interpolation(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the oracle reached a path it is meant to check")

    monkeypatch.setattr(cauchy, "stirling1_signed", forbidden)
    monkeypatch.setattr(cauchy, "bernoulli_hi_poly", forbidden)
    monkeypatch.setattr(cauchy, "egf_coeff", forbidden)
    monkeypatch.setattr(cauchy, "interpolate", forbidden, raising=False)
    assert cauchy_hi_poly_oracle(CauchyKind.FIRST, 2, 2) == Polynomial((F(1, 6), -1, 1))
    assert cauchy_hi_poly_oracle(CauchyKind.SECOND, 2, 2) == Polynomial((F(13, 6), -3, 1))
    assert cauchy_hi1(6, 3, CauchyMethod.INTEGRAL_ORACLE) == F(16, 21)


def test_factorials_and_polynomial_oracle_read_no_stirling_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a factorial reached the Stirling recurrence it is meant to check")

    expected = {kind: cauchy_hi_poly_sum(kind, 12, 3) for kind in CauchyKind}
    for name in ("value", "row", "_grow"):
        monkeypatch.setattr(stirling.StirlingTable, name, forbidden)
    monkeypatch.setattr(stirling, "next_row", forbidden)
    assert falling_factorial(12).evaluate(12) == factorial(12)
    assert rising_factorial(12).evaluate(1) == factorial(12)
    for kind in CauchyKind:
        assert cauchy_hi_poly_oracle(kind, 12, 3) == expected[kind]


def test_oracle_supremacy_for_numbers():
    # every closed-form path equals the cube oracle on the stated grid
    for n in range(13):
        ff = falling_factorial(n)
        for k in range(1, 5):
            by_oracle = cube_integrate(ff, k)
            for method in ALL_METHODS:
                assert cauchy_hi1(n, k, method) == by_oracle
            by_oracle2 = cube_integrate(ff.reflect(), k)
            for method in SECOND_KIND_METHODS:
                assert cauchy_hi2(n, k, method) == by_oracle2
