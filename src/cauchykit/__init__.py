"""cauchykit: exact computation and verification of Cauchy-type number families.

Everything is computed over arbitrary-precision rationals.  The package
provides dense polynomials and truncated power series over them, Stirling
tables, Bernoulli numbers/polynomials of any integer order, the classical,
poly- and higher-order Cauchy numbers and polynomials along independent
computation paths, and a verifier that mechanically cross-checks the
identity catalogue relating all of these on finite grids.
"""

from .bernoulli import bernoulli_hi_number, bernoulli_hi_numbers, bernoulli_hi_poly
from .cauchy import (
    CauchyKind,
    CauchyMethod,
    cauchy1,
    cauchy2,
    cauchy_hi1,
    cauchy_hi2,
    cauchy_hi_poly1,
    cauchy_hi_poly2,
    classical_cauchy,
    cube_integrate,
    poly_cauchy1,
    poly_cauchy2,
    poly_cauchy_poly1,
    poly_cauchy_poly2,
    product_integrate,
)
from .polynomial import Polynomial, falling_factorial, rising_factorial
from .rational import format_rational, parse_rational
from .series import (
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
from .stirling import (
    StirlingKind,
    StirlingTable,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    stirling_table,
)
from .verifier import (
    CheckId,
    Grid,
    TheoremReport,
    reports_to_json,
    reports_to_text,
    run_suite,
    suite_exit_code,
    verify,
)

__version__ = "0.1.0"
