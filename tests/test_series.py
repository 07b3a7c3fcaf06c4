"""Power-series engine: arithmetic, composition, reversion, Sheffer machinery."""

import copy
import pickle
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cauchykit.series as series_module
from cauchykit.bernoulli import bernoulli_hi_poly
from cauchykit.cauchy import cauchy_hi_poly1, cube_integrate
from cauchykit.polynomial import Polynomial, falling_factorial
from cauchykit.series import (
    PowerSeries,
    bernoulli_gf,
    cauchy1_gf,
    cauchy2_gf,
    connection_coeffs,
    egf_coeff,
    expm1_series,
    log1p_series,
    one_minus_exp_neg_series,
    one_series,
    sheffer_polys,
    t_series,
)
from cauchykit.stirling import stirling1_signed, stirling2

F = Fraction


def series(*coeffs, order=None):
    return PowerSeries([F(c) if isinstance(c, int) else c for c in coeffs], order=order)


def one_plus_t_to(a, order):
    # (1+t)^a for a rational a, from binom(a, j) = (a)_j / j!
    return PowerSeries([falling_factorial(j).evaluate(a) / factorial(j) for j in range(order)])


# -- multiplication -----------------------------------------------------------

def test_mul_difference_of_squares():
    one_plus = series(1, 1, order=4)
    one_minus = series(1, -1, order=4)
    assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1), F(0))


def test_mul_identity():
    f = series(2, F(1, 3), 0, 5)
    assert f * one_series(4) == f


def test_mul_log_against_cauchy_gf_gives_t():
    product = log1p_series(8) * cauchy1_gf(8)
    assert product == t_series(8)


# -- division -----------------------------------------------------------------

def test_div_cancels_shared_power_of_t():
    quotient = t_series(5) / log1p_series(5)
    assert quotient.coeffs == (F(1), F(1, 2), F(-1, 12), F(1, 24))
    # EGF coefficients are the classical Cauchy numbers C_0..C_3
    assert [egf_coeff(quotient, n) for n in range(4)] == [F(1), F(1, 2), F(-1, 6), F(1, 4)]


def test_div_by_one():
    f = series(3, -1, F(2, 7), order=6)
    assert f / one_series(6) == f


def test_div_shifted_exponential():
    quotient = expm1_series(4) / t_series(4)
    assert quotient.coeffs == (F(1), F(1, 2), F(1, 6))


def test_div_zero_series_rejected():
    with pytest.raises(ZeroDivisionError):
        t_series(4) / PowerSeries([0], order=4)


def test_div_non_unit_divisor_rejected():
    t2 = series(0, 0, 1, order=5)
    with pytest.raises(ValueError, match="non-unit divisor"):
        t_series(5) / t2


@pytest.mark.parametrize("num, den", [
    (one_series(3), Polynomial((2,))),
    (series(1, F(1, 2), 0, F(-3, 4)), Polynomial((F(-3, 5),))),
    (Polynomial((1, 2)), one_series(3)),
    (Polynomial((F(1, 2),)), cauchy1_gf(4)),
], ids=["series/2", "series/fraction", "poly/one", "constant/gf"])
def test_division_with_a_polynomial_operand(num, den):
    # series coefficients are exact scalars only: a polynomial, constant or
    # not, neither divides a series nor is divided by one
    for divisor in (den, Polynomial.x(), Polynomial.zero(), 0.5, "x"):
        assert num.__truediv__(divisor) is NotImplemented
        with pytest.raises(TypeError):
            num / divisor


def test_mixed_type_subtraction():
    f = series(1, F(1, 2), F(-1, 3), order=4)
    p = Polynomial((F(1, 2), 1))
    for got, expected in [
        (F(1, 3) - f, (F(-2, 3), F(-1, 2), F(1, 3), 0)),
        (f - 2, (F(-1), F(1, 2), F(-1, 3), 0)),
    ]:
        assert isinstance(got, PowerSeries)
        assert got.coeffs == expected
    # a polynomial is not a series coefficient, so it is not subtracted either way
    for left, right in [(p, f), (f, p), (f, 0.5), (0.5, f), (p, 0.5), (0.5, p), (f, "x"),
                        ("x", f), (p, "x"), ("x", p)]:
        with pytest.raises(TypeError):
            left - right


def test_mul_div_round_trip_property():
    g = series(1, 4, -2, F(1, 5), 3, order=8)
    assert (one_series(8) / g) * g == one_series(8)


# -- integer powers --------------------------------------------------------------

def test_pow_zero_is_one():
    f = series(0, 2, 3, order=5)
    assert f ** 0 == one_series(5)


def test_pow_square():
    assert (series(1, 1, order=3) ** 2).coeffs == (F(1), F(2), F(1))


def test_negative_pow_gives_bernoulli_numbers():
    unit = expm1_series(4) / t_series(4)  # (e^t - 1)/t at order 3
    inverse = unit ** -1
    assert inverse.coeffs == (F(1), F(-1, 2), F(1, 12))
    assert [egf_coeff(inverse, j) for j in range(3)] == [F(1), F(-1, 2), F(1, 6)]


def test_negative_pow_needs_unit():
    with pytest.raises(ValueError, match="non-unit base"):
        t_series(4) ** -1


@pytest.mark.parametrize("exponent, products", [(1, 0), (2, 1), (4, 2)])
def test_pow_skips_the_product_by_one(monkeypatch, exponent, products):
    # square-and-multiply from the base: s ** 2**j is j squarings, no 1 * s
    calls = []
    original = series_module._convolve

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series_module, "_convolve", counted)
    f = series(1, 2, 3, 4, 5)
    power = f ** exponent
    assert len(calls) == products
    expected = one_series(5)
    for _ in range(exponent):
        expected = expected * f
    assert power.coeffs == expected.coeffs


@pytest.mark.parametrize("stock", [t_series, log1p_series, expm1_series,
                                   one_minus_exp_neg_series])
def test_stock_series_at_order_zero_and_one(stock):
    with pytest.raises(ValueError, match="order must be positive"):
        stock(0)
    # order 1 keeps only the constant term, which is 0 for each of these
    assert stock(1).coeffs == (F(0),) and stock(1).order == 1


@pytest.mark.parametrize("builder", [cauchy1_gf, cauchy2_gf, lambda order: bernoulli_gf(3, order),
                                     lambda order: bernoulli_gf(-2, order)],
                         ids=["cauchy1_gf", "cauchy2_gf", "bernoulli_gf(3)", "bernoulli_gf(-2)"])
def test_generating_functions_at_order_zero_and_one(builder):
    # the stock series' error, not a ZeroDivisionError from an empty quotient
    with pytest.raises(ValueError, match="order must be positive"):
        builder(0)
    assert builder(1).coeffs == (F(1),)


# -- log(1+t) ----------------------------------------------------------------------

def test_log1p_mercator():
    assert log1p_series(4).coeffs == (F(0), F(1), F(-1, 2), F(1, 3))


@pytest.mark.parametrize("stock, term", [(log1p_series, lambda j: F((-1) ** (j - 1), j)),
                                         (expm1_series, lambda j: F(1, factorial(j)))],
                         ids=["log1p", "expm1"])
def test_stock_series_equal_their_closed_forms(stock, term):
    for order in range(1, 61):
        expected = series(0, *[term(j) for j in range(1, order)], order=order)
        got = stock(order)
        assert (got.numerators, got.denominator) == (expected.numerators, expected.denominator)
        assert got.coeffs == (F(0), *[term(j) for j in range(1, order)])


def test_log1p_linear_coefficient():
    assert log1p_series(2).coefficient(1) == 1


def test_log1p_cube_extracts_signed_stirling():
    cubed = log1p_series(7) ** 3
    value = factorial(6) * (cubed.coefficient(6) / factorial(3))
    # signed value; the unsigned triangle carries 225 at (6,3)
    assert value == stirling1_signed(6, 3) == -225


# -- composition --------------------------------------------------------------------

def test_compose_with_t_is_identity():
    f = series(5, 1, F(-2, 3), 7, order=6)
    assert f.compose(t_series(6)) == f


def test_compose_mutual_inverses():
    assert expm1_series(10).compose(log1p_series(10)) == t_series(10)


def test_compose_geometric_with_t_squared():
    geometric = one_series(6) / series(1, -1, order=6)
    t_squared = series(0, 0, 1, order=6)
    assert geometric.compose(t_squared).coeffs == (F(1), F(0), F(1), F(0), F(1), F(0))


def test_compose_needs_zero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        t_series(4).compose(one_series(4))


# -- reversion -----------------------------------------------------------------------

def test_revert_identity():
    assert t_series(6).revert() == t_series(6)


def test_revert_expm1_is_log1p():
    assert expm1_series(10).revert() == log1p_series(10)


def test_revert_exp_neg_minus_one():
    f = -one_minus_exp_neg_series(10)  # e^{-t} - 1
    assert f.revert() == -log1p_series(10)


def test_revert_rejects_non_delta_series():
    with pytest.raises(ValueError, match="not a delta series"):
        one_series(5).revert()
    with pytest.raises(ValueError, match="not a delta series"):
        series(0, 0, 1, order=5).revert()


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
delta_series_12 = st.lists(small_fractions, min_size=10, max_size=10).map(
    lambda tail: PowerSeries([F(0), F(1)] + tail))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(delta_series_12)
def test_revert_round_trip(f):
    assert f.compose(f.revert()) == t_series(12)


def term_by_term_revert(f):
    """Reference inverse: fix each coefficient so that f(result) matches t."""
    n = f.order
    f1 = f.coeffs[1]
    g = [F(0)] * n
    g[1] = 1 / f1
    for m in range(2, n):
        residual = f.compose(PowerSeries(g)).coeffs[m]
        g[m] = -(residual / f1)
    return PowerSeries(g)


nonzero_fractions = small_fractions.filter(lambda c: c != 0)
delta_series_9 = st.tuples(
    nonzero_fractions, st.lists(small_fractions, min_size=7, max_size=7)).map(
    lambda parts: PowerSeries([F(0), parts[0]] + parts[1]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(delta_series_9)
def test_revert_matches_term_by_term_solve(f):
    g = f.revert()
    assert g.coeffs == term_by_term_revert(f).coeffs
    assert f.compose(g) == t_series(f.order)
    assert g.revert() == f


def fraction_loop_mul(f, g):
    """Reference product: the generic ring loop over the first min(order) terms."""
    n = min(f.order, g.order)
    out = [f.coeffs[0] * 0 for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + f.coeffs[i] * g.coeffs[j]
    return PowerSeries(out)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# each coefficient over its own prime: the common denominator is their product
coprime_series = st.lists(st.integers(-60, 60), min_size=1, max_size=len(PRIMES)).map(
    lambda nums: PowerSeries([F(v, p) for v, p in zip(nums, PRIMES)]))
wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
wide_series = st.lists(wide_fractions, min_size=1, max_size=12).map(PowerSeries)
scalar_series = st.one_of(
    st.lists(small_fractions, min_size=1, max_size=12).map(PowerSeries),
    coprime_series, wide_series)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(scalar_series, scalar_series)
@example(series(0, order=6), series(1, 2, 3))
@example(series(F(-2, 3), order=5), series(F(1, 7), 0, F(5, 4), order=5))
@example(t_series(9), cauchy1_gf(8))
def test_mul_matches_fraction_loop(f, g):
    product = f * g
    assert product.coeffs == fraction_loop_mul(f, g).coeffs
    assert all(type(c) is F for c in product.coeffs)
    assert product.coeffs == (g * f).coeffs


unit_series_10 = st.lists(small_fractions, min_size=9, max_size=9).map(
    lambda rest: PowerSeries([F(1)] + rest))


def full_horner_compose(f, g):
    """Reference composition: Horner over every coefficient of f, trailing zeros included."""
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = PowerSeries([f.coeffs[n - 1]], order=n)
    for j in range(n - 2, -1, -1):
        acc = acc * g + f.coeffs[j]
    return acc


def with_trailing_zeros(cs, zeros):
    return PowerSeries(list(cs) + [cs[0] * 0] * zeros)


outer_series = st.tuples(
    st.lists(small_fractions, min_size=1, max_size=9), st.integers(0, 6),
).map(lambda parts: with_trailing_zeros(*parts))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(outer_series, delta_series_9)
@example(series(0, order=9), t_series(9))
@example(one_series(12), expm1_series(12))
@example(t_series(12), log1p_series(10))
def test_compose_matches_full_horner(f, g):
    result = f.compose(g)
    reference = full_horner_compose(f, g)
    assert result.order == reference.order
    assert result.coeffs == reference.coeffs


def fraction_loop_div(f, g):
    """Reference quotient: cancel the shared power of t, then one ring step per term."""
    vg = g.valuation()
    if vg is None:
        raise ZeroDivisionError("division by zero series")
    vf = f.valuation()
    shared = vg if vf is None else min(vf, vg)
    n = min(f.order, g.order) - shared
    if n < 1:
        raise ValueError("insufficient truncation")
    fs = f.coeffs[shared:shared + n]
    gs = g.coeffs[shared:shared + n]
    if gs[0] == 0:
        raise ValueError("non-unit divisor")
    out = []
    for i in range(n):
        acc = fs[i]
        for j, q in enumerate(out):
            acc = acc - q * gs[i - j]
        out.append(acc / gs[0])
    return PowerSeries(out)


def outcome(divide, f, g):
    """The quotient's coefficients, or the type and text of the error raised."""
    try:
        return divide(f, g).coeffs
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def times_power_of_t(parts):
    shift, f = parts
    return PowerSeries([f.coeffs[0] * 0] * shift + list(f.coeffs))


shifted_series = st.tuples(st.integers(0, 3), scalar_series).map(times_power_of_t)
# a nonzero coefficient at the valuation, over a wide denominator or not
shifted_divisors = st.tuples(
    st.integers(0, 3),
    st.tuples(st.one_of(nonzero_fractions, wide_fractions.filter(lambda c: c != 0)),
              scalar_series).map(lambda parts: PowerSeries((parts[0],) + parts[1].coeffs)),
).map(times_power_of_t)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(shifted_series, shifted_divisors)
@example(t_series(9), log1p_series(9))
@example(series(0, 0, F(1, 2), 3, 1), series(0, 0, 5, F(-1, 3), 7))
@example(series(0, order=6), series(2, 1, 3))
@example(series(0, order=2), series(0, 0, 1))
@example(series(1, 2), series(0, order=4))
@example(series(1, 2, 3), series(0, 1, 1))
@example(one_series(12), expm1_series(13) / t_series(13))
def test_div_matches_fraction_loop(f, g):
    quotient = outcome(PowerSeries.__truediv__, f, g)
    assert quotient == outcome(fraction_loop_div, f, g)
    if not isinstance(quotient[0], type):
        assert all(type(c) is F for c in quotient)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(unit_series_10)
def test_div_inverse_round_trip(g):
    assert (one_series(10) / g) * g == one_series(10)


# -- EGF coefficients -----------------------------------------------------------------

def test_egf_coeff_basics():
    gf = cauchy1_gf(3)
    assert egf_coeff(gf, 0) == 1
    assert egf_coeff(gf, 2) == F(-1, 6)


def test_egf_coeff_of_squared_gf_matches_integral_oracle():
    squared = cauchy1_gf(3) ** 2
    assert egf_coeff(squared, 2) == F(1, 6)
    assert egf_coeff(squared, 2) == cube_integrate(falling_factorial(2), 2)


def test_egf_coeff_insufficient_truncation():
    with pytest.raises(ValueError, match="insufficient truncation"):
        egf_coeff(cauchy1_gf(3), 3)


# -- stored layout ------------------------------------------------------------------------

def test_kernels_run_on_the_stored_numerators(monkeypatch):
    # The series are built first: the constructor from scalars may convert.
    f, g, e, t = cauchy1_gf(12), log1p_series(13), expm1_series(13), t_series(13)
    p = one_plus_t_to(F(-3, 7), 13)

    def run():
        products = (f * e, p * f, f * F(-2, 3), e + 1, p - F(1, 2))
        quotients = (g / e, t / g, p / (e + 1), e / p, f / 3)
        powers = (f ** 3, f ** -2, p ** 2, (e + 1) ** -1)
        composed = (f.compose(e), p.compose(g), g.compose(-e))
        return ([s.coeffs for s in products + quotients + powers + composed],
                egf_coeff(f, 11), egf_coeff(p * f, 9))

    expected = run()

    def forbidden(*args):
        raise AssertionError("a kernel put Fraction coefficients over a common denominator")

    monkeypatch.setattr(series_module, "_over_common_denominator", forbidden)
    assert run() == expected


def assert_stored_in_lowest_terms(s, order):
    assert len(s.numerators) == order
    assert all(type(v) is int for v in s.numerators)
    assert s.denominator > 0 and gcd(s.denominator, *s.numerators) == 1


@settings(max_examples=80, derandomize=True, deadline=None)
@given(scalar_series, scalar_series, small_fractions)
def test_every_result_is_stored_in_lowest_terms(f, g, c):
    n = min(f.order, g.order)
    for result, order in ((f + g, n), (f - g, n), (f * g, n), (-f, f.order), (f * c, f.order),
                          (f + c, f.order), (f.truncate(1), 1), (f ** 2, f.order)):
        assert_stored_in_lowest_terms(result, order)
    if g.numerators[0]:
        assert_stored_in_lowest_terms(f / g, n)


@pytest.mark.parametrize("value", [
    Polynomial((F(1, 3), -2, 0, F(5, 7))),
    Polynomial.zero(),
    series(F(1, 2), 0, F(-3, 4), order=6),
], ids=["polynomial", "zero polynomial", "fraction series"])
def test_copy_and_pickle_keep_the_stored_ints(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin.numerators == value.numerators
        assert twin.denominator == value.denominator
        assert twin.coeffs == value.coeffs
        with pytest.raises(AttributeError, match="immutable"):
            twin.denominator = 1


def test_polynomial_coefficients_and_operands_are_rejected():
    # series coefficients are exact scalars only; no operation takes a Polynomial
    X, p, f = Polynomial.x(), Polynomial((1, 2)), series(1, F(1, 2), 3)
    for build in (lambda: PowerSeries([X]), lambda: PowerSeries.from_numerators([X]),
                  lambda: PowerSeries.from_numerators([Polynomial.one(), 1]),
                  lambda: f * X, lambda: X * f, lambda: f * Polynomial.one(),
                  lambda: f / Polynomial((2,)), lambda: f + X, lambda: p - f, lambda: f - p,
                  lambda: p / Polynomial((2,))):
        with pytest.raises(TypeError):
            build()


# -- truncation discipline --------------------------------------------------------------

def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        PowerSeries([0.5, 1])


def test_equality_at_common_precision():
    assert cauchy1_gf(4) == cauchy1_gf(9)


@pytest.mark.parametrize("make", [log1p_series, expm1_series, cauchy1_gf,
                                  lambda n: bernoulli_gf(2, n)])
def test_recompute_then_truncate_is_exact(make):
    low, high = make(6), make(11)
    assert high.truncate(6).coeffs == low.coeffs


def test_truncate_bounds():
    with pytest.raises(ValueError):
        log1p_series(4).truncate(9)


@pytest.mark.parametrize("call, message", [
    (lambda: Polynomial([1, 2, 3]).coefficient(3.0), "the exponent must be an int: 3.0"),
    (lambda: Polynomial([1, 2, 3]).coefficient(1.0), "the exponent must be an int: 1.0"),
    (lambda: Polynomial([1, 2, 3]).coefficient(Fraction(1)), "the exponent must be an int"),
    (lambda: one_series(2.0), "order must be an int: 2.0"),
    (lambda: t_series(2.0), "order must be an int: 2.0"),
    (lambda: t_series(None), "order must be an int: None"),
    (lambda: log1p_series(4).truncate(3.0), "order must be an int: 3.0"),
], ids=["coefficient(3.0)", "coefficient(1.0)", "coefficient(Fraction)", "one_series(2.0)",
        "t_series(2.0)", "t_series(None)", "truncate(3.0)"])
def test_a_non_int_index_or_order_raises_the_package_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_a_bool_index_or_order_counts_as_an_int():
    assert Polynomial([1, 2, 3]).coefficient(True) == 2
    assert t_series(True).coeffs == (F(0),)
    assert log1p_series(4).truncate(True).coeffs == (F(0),)


# -- Stirling generating identities -------------------------------------------------------

@pytest.mark.parametrize("n", range(7))
def test_log_powers_generate_signed_stirling(n):
    power = log1p_series(12) ** n
    for l in range(12):
        expected = F(factorial(n) * stirling1_signed(l, n), factorial(l))
        assert power.coefficient(l) == expected


@pytest.mark.parametrize("n", range(7))
def test_expm1_powers_generate_second_kind_stirling(n):
    power = expm1_series(12) ** n
    for l in range(12):
        expected = F(factorial(n) * stirling2(l, n), factorial(l))
        assert power.coefficient(l) == expected


# -- (1+t)^a and the Bernoulli generating identities ----------------------------------------

def test_one_plus_t_pow_gives_binomial_polynomials():
    # for an integer a, the t^j coefficient of (1+t)^a is binom(a, j)
    for a in (-3, -1, 0, 2, 5):
        assert (PowerSeries([1, 1], order=7) ** a).coeffs == one_plus_t_to(a, 7).coeffs
    assert (PowerSeries([1, 1], order=7) ** 5).coeffs == tuple(comb(5, j) for j in range(7))
    assert (PowerSeries([1, 1], order=7) ** -1).coeffs == tuple((-1) ** j for j in range(7))


BERNOULLI_POINTS = (F(-3, 7), 0, F(1, 2), 2)


@pytest.mark.parametrize("e", range(1, 6))
def test_bernoulli_generating_identity_shifted(e):
    # (t/log(1+t))^e (1+t)^(x-1) has j-th EGF coefficient B_j^(j-e+1)(x), here at x = a
    for a in BERNOULLI_POINTS:
        gf = (cauchy1_gf(9) ** e) * one_plus_t_to(a - 1, 9)
        for j in range(9):
            assert egf_coeff(gf, j) == bernoulli_hi_poly(j, j - e + 1).evaluate(a)


@pytest.mark.parametrize("e", range(1, 6))
def test_bernoulli_generating_identity_unshifted(e):
    # (t/log(1+t))^e (1+t)^x has j-th EGF coefficient B_j^(j-e+1)(x+1), here at x = a
    for a in BERNOULLI_POINTS:
        gf = (cauchy1_gf(9) ** e) * one_plus_t_to(a, 9)
        for j in range(9):
            assert egf_coeff(gf, j) == bernoulli_hi_poly(j, j - e + 1).evaluate(a + 1)


# -- Sheffer machinery --------------------------------------------------------------------

def test_sheffer_identity_pair_gives_monomials():
    polys = sheffer_polys(one_series(6), t_series(6), 5)
    for n, p in enumerate(polys):
        assert p == Polynomial.monomial(n)


def test_sheffer_exponential_pair_gives_falling_factorials():
    polys = sheffer_polys(one_series(8), expm1_series(8), 6)
    for n, p in enumerate(polys):
        assert p == falling_factorial(n)


def test_sheffer_cauchy_pair_matches_first_kind_polynomials():
    g = t_series(9) / one_minus_exp_neg_series(9)
    f = -one_minus_exp_neg_series(8)
    polys = sheffer_polys(g, f, 6)
    for n, p in enumerate(polys):
        assert p == cauchy_hi_poly1(n, 1)
        assert p.degree == n


def test_sheffer_needs_enough_truncation():
    with pytest.raises(ValueError, match="insufficient truncation"):
        sheffer_polys(one_series(4), t_series(4), 4)


def test_connection_same_pair_is_identity_matrix():
    # a pair connected to itself: base g(fbar)/g(fbar) = 1, step f(fbar) = t
    g = bernoulli_gf(2, 8)
    f = expm1_series(8)
    fbar = f.revert()
    rows = connection_coeffs(g.compose(fbar) / g.compose(fbar), f.compose(fbar), 5)
    for n, row in enumerate(rows):
        for m, value in enumerate(row):
            assert value == (1 if n == m else 0)


def test_connection_single_entry_is_constant_ratio():
    g = series(4, 1, 1, order=4)
    h = series(3, -2, order=4)
    rows = connection_coeffs(h / g, t_series(4), 0)
    assert rows == [[F(3, 4)]]


def test_connection_at_n_max_zero_takes_an_order_one_step():
    assert connection_coeffs(series(F(-2, 3), 7), log1p_series(1), 0) == [[F(-2, 3)]]
    with pytest.raises(ValueError, match="not a delta series"):
        connection_coeffs(one_series(1), one_series(1), 0)


def test_connection_rows_are_defined_for_any_base():
    # base t: C[n][m] = (n!/m!) [t^n] t^(m+1) is n on the subdiagonal, 0 elsewhere
    rows = connection_coeffs(t_series(6), t_series(6), 4)
    assert rows == [[F(n) if m == n - 1 else F(0) for m in range(n + 1)] for n in range(5)]


def test_connection_rejects_bad_inputs():
    with pytest.raises(ValueError, match="insufficient truncation"):
        connection_coeffs(one_series(4), t_series(6), 4)
    with pytest.raises(ValueError, match="insufficient truncation"):
        connection_coeffs(one_series(6), t_series(4), 4)
    with pytest.raises(ValueError, match="not a delta series"):
        connection_coeffs(one_series(6), one_series(6), 3)
    with pytest.raises(ValueError, match="not a delta series"):
        connection_coeffs(one_series(6), series(0, 0, 1, order=6), 3)
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        connection_coeffs(one_series(6), t_series(6), -1)


def test_connection_between_cauchy_and_bernoulli_bases():
    # expanding second-kind order-k polynomials in order-alpha Bernoulli
    # polynomials: C[n][m] = sum_l C(n,l) S1(n-l,m) Chat_l^(k+alpha)(alpha)
    from cauchykit.cauchy import cauchy_hi_poly2
    from cauchykit.stirling import stirling1_signed

    k, alpha, n_max = 1, 1, 4
    order = n_max + 2
    exp_t = expm1_series(order) + 1
    g = ((t_series(order) * exp_t) / expm1_series(order + 1)) ** k
    f = expm1_series(order)
    h = (expm1_series(order + 1) / t_series(order + 1)) ** alpha
    fbar = f.revert()
    rows = connection_coeffs(h.compose(fbar) / g.compose(fbar), fbar, n_max)
    for n in range(n_max + 1):
        for m in range(n + 1):
            expected = sum(
                (comb(n, l) * stirling1_signed(n - l, m)
                 * cauchy_hi_poly2(l, k + alpha).evaluate(alpha)
                 for l in range(n - m + 1)), F(0))
            assert rows[n][m] == expected
