"""Batch command-line front end.

Four subcommands: ``table`` renders number sequences and Stirling triangles,
``poly`` renders single polynomials (coefficients constant-term first),
``series`` renders raw (ordinary, not EGF) series coefficients from the
named-series registry, and ``verify`` runs the identity suite.

All payload goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 141 (128 + SIGPIPE) when the reader
closes stdout early, as ``cauchykit table ... | head`` does.  Output is
deterministic; JSON uses compact separators so re-serialising a parsed
document is byte-identical.

Stirling triangles are streamed: each row is built from the one before by
the exact recurrence on ``decimal.Decimal`` integers and written as soon as
it is built, so a triangle needs memory for one row, and its entries go
through neither the memo tables nor int-to-str conversion, which is
quadratic in the number of digits.  Python's limit on that conversion
(4300 digits by default) therefore matters only for ``Fraction``, ``poly``
and ``series`` output; it is lifted while those render, so large values
print in full.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .bernoulli import bernoulli_hi_numbers, bernoulli_hi_poly
from .cauchy import (
    CauchyKind,
    cauchy1,
    cauchy2,
    cauchy_hi_numbers,
    cauchy_hi_poly1,
    cauchy_hi_poly2,
    poly_cauchy1,
    poly_cauchy2,
)
from .polynomial import Polynomial
from .rational import format_rational
from .series import bernoulli_gf, cauchy1_gf, cauchy2_gf, expm1_series, log1p_series
from .stirling import StirlingKind, stirling_rows
from .verifier import (
    CheckId,
    Grid,
    reports_to_json,
    reports_to_text,
    run_suite,
    suite_exit_code,
)

NUMBER_FAMILIES = ("cauchy1", "cauchy2", "cauchy_hi1", "cauchy_hi2",
                   "poly_cauchy1", "poly_cauchy2", "bernoulli_hi")
TRIANGLE_FAMILIES = ("stirling1", "stirling2")
POLY_FAMILIES = ("cauchy_hi_poly1", "cauchy_hi_poly2", "bernoulli_hi_poly")

_SERIES_REGISTRY_HELP = ("log1p", "exp_m1", "cauchy1_gf", "cauchy2_gf", "bernoulli_gf(alpha)")
_BERNOULLI_GF_RE = re.compile(r"bernoulli_gf\((-?[0-9]+)\)")
_ASCII_INT_RE = re.compile(r"-?[0-9]+")

# Exact integer arithmetic for the triangles: any result that would have to
# be rounded raises instead of printing a wrong digit.
EXACT_INTEGERS = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded])


@contextmanager
def _unlimited_int_text():
    """Lift the int-to-str digit limit for the block, then restore it."""
    setter = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.11
    if setter is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(previous)


def _ascii_int(text: str) -> int:
    """-?[0-9]+ within surrounding spaces, the digits ``parse_rational`` reads.

    ``int()`` would also take other scripts' digits, underscores and "+";
    the error reads as argparse's own for ``type=int``.
    """
    if not _ASCII_INT_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _render_cells(rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows)
    return "\n".join(" ".join(row) for row in rows)


# -- table ------------------------------------------------------------------

def _number_values(family: str, n_max: int, args) -> list[Fraction]:
    # the generating-function families read all values off one series
    if family == "cauchy_hi1":
        return cauchy_hi_numbers(CauchyKind.FIRST, n_max, args.order)
    if family == "cauchy_hi2":
        return cauchy_hi_numbers(CauchyKind.SECOND, n_max, args.order)
    if family == "bernoulli_hi":
        return bernoulli_hi_numbers(n_max, args.alpha)
    if family in ("cauchy1", "cauchy2"):
        value = cauchy1 if family == "cauchy1" else cauchy2
        return [value(n) for n in range(n_max + 1)]
    value = poly_cauchy1 if family == "poly_cauchy1" else poly_cauchy2
    return [value(n, args.order) for n in range(n_max + 1)]


def _stream_triangle(kind: StirlingKind, n_max: int, fmt: str) -> None:
    """Write rows 0..n_max of the triangle of `kind` to stdout as each is built."""
    write = sys.stdout.write
    with decimal.localcontext(EXACT_INTEGERS):
        rows = enumerate(stirling_rows(kind, n_max, decimal.Decimal(1)))
        if fmt == "json":
            lead = "["
            for n, row in rows:
                write(f'{lead}{{"n":{n},"row":["' + '","'.join(map(str, row)) + '"]}')
                lead = ","
            write("]\n")
        else:
            sep = "," if fmt == "csv" else " "
            for n, row in rows:
                write(str(n) + sep + sep.join(map(str, row)) + "\n")


def _cmd_table(args, parser) -> int:
    family = args.family
    if args.n_max < 0:
        parser.error("--n-max must be nonnegative")
    if family in ("cauchy_hi1", "cauchy_hi2", "poly_cauchy1", "poly_cauchy2"):
        if args.order is None:
            parser.error(f"family {family} needs --order")
        if args.order < (0 if family.startswith("cauchy_hi") else 1):
            parser.error(f"--order out of range for family {family}")
    if family == "bernoulli_hi" and args.alpha is None:
        parser.error("family bernoulli_hi needs --alpha")

    if family in TRIANGLE_FAMILIES:
        kind = StirlingKind.SIGNED_FIRST if family == "stirling1" else StirlingKind.SECOND
        _stream_triangle(kind, args.n_max, args.format)
        return 0

    values = list(enumerate(_number_values(family, args.n_max, args)))
    with _unlimited_int_text():
        if args.format == "json":
            _emit(_dump_json([{"n": n, "value": format_rational(v)} for n, v in values]))
        else:
            _emit(_render_cells([[str(n), format_rational(v)] for n, v in values],
                                args.format))
    return 0


# -- poly -------------------------------------------------------------------

def _cmd_poly(args, parser) -> int:
    if args.n < 0:
        parser.error("--n must be nonnegative")
    if args.family == "bernoulli_hi_poly":
        if args.alpha is None:
            parser.error("family bernoulli_hi_poly needs --alpha")
        poly = bernoulli_hi_poly(args.n, args.alpha)
    else:
        if args.order is None or args.order < 1:
            parser.error(f"family {args.family} needs --order >= 1")
        maker = cauchy_hi_poly1 if args.family == "cauchy_hi_poly1" else cauchy_hi_poly2
        poly = maker(args.n, args.order)
    with _unlimited_int_text():
        cells = _poly_cells(poly)
        if args.format == "json":
            _emit(_dump_json(cells))
        else:
            _emit(_render_cells([cells], args.format))
    return 0


def _poly_cells(poly: Polynomial) -> list[str]:
    # constant term first; the zero polynomial renders as a single "0"
    if poly.is_zero():
        return ["0"]
    return [format_rational(c) for c in poly.coeffs]


# -- series -----------------------------------------------------------------

def _series_by_name(name: str, terms: int):
    if name == "log1p":
        return log1p_series(terms)
    if name == "exp_m1":
        return expm1_series(terms)
    if name == "cauchy1_gf":
        return cauchy1_gf(terms)
    if name == "cauchy2_gf":
        return cauchy2_gf(terms)
    match = _BERNOULLI_GF_RE.fullmatch(name)
    if match:
        return bernoulli_gf(int(match.group(1)), terms)
    return None


def _cmd_series(args, parser) -> int:
    if args.terms < 1:
        parser.error("--terms must be at least 1")
    series = _series_by_name(args.name, args.terms)
    if series is None:
        parser.error(f"unknown series {args.name!r}; registry: "
                     + ", ".join(_SERIES_REGISTRY_HELP))
    with _unlimited_int_text():
        cells = [format_rational(c) for c in series.coeffs[:args.terms]]
        if args.format == "json":
            _emit(_dump_json(cells))
        else:
            _emit(_render_cells([cells], args.format))
    return 0


# -- verify -------------------------------------------------------------------

_GRID_KEYS = {"n": "n_max", "k": "k_max", "alpha": "alpha_max"}


def _parse_grid(text: str | None, defaults: dict, parser) -> Grid:
    """Apply "n=..,k=..,alpha=.." over the defaults; values are ASCII integers, keys unique."""
    values = dict(defaults)
    seen = set()
    if text:
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, _, raw = piece.partition("=")
            if key not in _GRID_KEYS or not raw:
                parser.error(f"bad --grid entry {piece!r}; use n=..,k=..,alpha=..")
            if key in seen:
                parser.error(f"repeated --grid key {key!r}")
            seen.add(key)
            try:
                values[_GRID_KEYS[key]] = _ascii_int(raw)
            except argparse.ArgumentTypeError:
                parser.error(f"bad --grid value {raw!r}")
    return Grid(**values)


def _load_config(path: str | None, parser) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path!r}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config {path!r} must hold a JSON object, not {type(raw).__name__}")
    allowed = {"n_max", "k_max", "alpha_max"}
    bad = set(raw) - allowed
    if bad:
        parser.error(f"unknown config keys: {sorted(bad)}")
    for key, value in raw.items():
        if type(value) is not int:
            parser.error(f"config value {key}={json.dumps(value)} must be a JSON integer")
    return raw


def _cmd_verify(args, parser) -> int:
    defaults = {"n_max": 15, "k_max": 4, "alpha_max": 3}
    defaults.update(_load_config(args.config, parser))
    grid = _parse_grid(args.grid, defaults, parser)
    if args.checks.strip().lower() == "all":
        checks = None
    else:
        checks = []
        by_value = {cid.value: cid for cid in CheckId}
        for token in args.checks.split(","):
            token = token.strip()
            if token not in by_value:
                parser.error(f"unknown check id {token!r}; valid: "
                             + ",".join(cid.value for cid in CheckId))
            checks.append(by_value[token])
    reports = run_suite(grid, checks)
    if args.format == "json":
        _emit(reports_to_json(reports))
    else:
        _emit(reports_to_text(reports))
    return suite_exit_code(reports)


# -- wiring ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchykit",
        description="Exact tables, polynomials and generating functions of the "
                    "Cauchy/Stirling/Bernoulli families, plus the identity "
                    "verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="tabulate a number family or Stirling triangle")
    table.add_argument("--family", required=True,
                       choices=NUMBER_FAMILIES + TRIANGLE_FAMILIES)
    table.add_argument("--order", type=_ascii_int, default=None,
                       help="k parameter for the higher-order/poly families")
    table.add_argument("--alpha", type=_ascii_int, default=None,
                       help="order for the bernoulli_hi family")
    table.add_argument("--n-max", type=_ascii_int, required=True)
    table.add_argument("--format", choices=("csv", "json", "text"), default="text")

    poly = sub.add_parser("poly", help="print one polynomial, constant term first")
    poly.add_argument("--family", required=True, choices=POLY_FAMILIES)
    poly.add_argument("--n", type=_ascii_int, required=True)
    poly.add_argument("--order", type=_ascii_int, default=None)
    poly.add_argument("--alpha", type=_ascii_int, default=None)
    poly.add_argument("--format", choices=("csv", "json", "text"), default="text")

    series = sub.add_parser("series", help="print ordinary series coefficients")
    series.add_argument("name", help="registry key: " + ", ".join(_SERIES_REGISTRY_HELP))
    series.add_argument("--terms", type=_ascii_int, required=True)
    series.add_argument("--format", choices=("csv", "json", "text"), default="text")

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("--checks", default="all",
                        help='comma-separated check ids, or "all"')
    verify.add_argument("--grid", default=None, help="overrides, e.g. n=10,k=3,alpha=2")
    verify.add_argument("--config", default=None,
                        help="JSON file with default grid bounds")
    verify.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table":
        return _cmd_table(args, parser)
    if args.command == "poly":
        return _cmd_poly(args, parser)
    if args.command == "series":
        return _cmd_series(args, parser)
    return _cmd_verify(args, parser)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at the null device so the flush
        # at interpreter shutdown cannot raise again, and exit as a process
        # killed by SIGPIPE would, without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
