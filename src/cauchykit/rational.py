"""Exact rational scalars: canonical construction, parsing and text form.

Scalar results are ``fractions.Fraction`` values, which keep the canonical
form relied on everywhere: reduced terms, positive denominator, zero stored
as 0/1.  Equality of results is therefore plain structural equality.  This
module owns the text form used by the CLI ("-19/30", "3") and the scalar
contract of every public entry point: an ``int`` or a ``Fraction`` is
accepted, anything else (a float, a ``Decimal``) raises ``TypeError``.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def _as_fraction(value) -> Fraction:
    """``value`` as a ``Fraction`` if it is an exact scalar; ``TypeError`` otherwise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text form.

    Accepted: an optional leading "-", a decimal numerator, and optionally
    "/" followed by a positive decimal denominator, in the ASCII digits
    0-9.  Anything else (floats, exponents, signed denominators, other
    scripts' digits) is rejected.
    """
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) is not None else 1
    if denominator == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Render canonically: "numerator" or "numerator/denominator" (denominator > 1 only).

    An ``int`` or a ``Fraction`` only; a float or a ``Decimal`` raises ``TypeError``.
    """
    return str(_as_fraction(value))


@contextmanager
def _unlimited_int_text():
    """Lift the int-to-str digit limit for the block, then restore it; no-op before it existed."""
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    setter = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    setter(0)
    try:
        yield
    finally:
        setter(previous)
