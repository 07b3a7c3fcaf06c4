"""Batch command-line front end.

Four subcommands: ``table`` renders number sequences and Stirling triangles,
``poly`` renders single polynomials (coefficients constant-term first),
``series`` renders raw (ordinary, not EGF) series coefficients from the
named-series registry, and ``verify`` runs the identity suite.

All payload goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error.  Output is deterministic; JSON uses
compact separators so re-serialising a parsed document is byte-identical.
Python's limit on int-to-decimal conversion (4300 digits by default) is
lifted while output is rendered, so large table entries such as the
first-kind Stirling number (n-1)! at n = 1700 print in full.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .bernoulli import bernoulli_hi_numbers, bernoulli_hi_poly
from .cauchy import (
    cauchy1,
    cauchy2,
    cauchy_hi1,
    cauchy_hi2,
    cauchy_hi_poly1,
    cauchy_hi_poly2,
    poly_cauchy1,
    poly_cauchy2,
)
from .polynomial import Polynomial
from .rational import format_rational
from .series import bernoulli_gf, cauchy1_gf, cauchy2_gf, expm1_series, log1p_series
from .stirling import stirling_table, StirlingKind
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
_BERNOULLI_GF_RE = re.compile(r"^bernoulli_gf\((-?\d+)\)$")


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

def _number_value(family: str, n: int, args) -> Fraction:
    if family == "cauchy1":
        return cauchy1(n)
    if family == "cauchy2":
        return cauchy2(n)
    if family == "cauchy_hi1":
        return cauchy_hi1(n, args.order)
    if family == "cauchy_hi2":
        return cauchy_hi2(n, args.order)
    if family == "poly_cauchy1":
        return poly_cauchy1(n, args.order)
    if family == "poly_cauchy2":
        return poly_cauchy2(n, args.order)
    return bernoulli_hi_numbers(n, args.alpha)[n]


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
        table = stirling_table(kind)
        with _unlimited_int_text():
            if args.format == "json":
                obj = [{"n": n, "row": [str(v) for v in table.row(n)]}
                       for n in range(args.n_max + 1)]
                _emit(_dump_json(obj))
            else:
                rows = [[str(n)] + [str(v) for v in table.row(n)]
                        for n in range(args.n_max + 1)]
                _emit(_render_cells(rows, args.format))
        return 0

    values = [(n, _number_value(family, n, args)) for n in range(args.n_max + 1)]
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
    match = _BERNOULLI_GF_RE.match(name)
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
    values = dict(defaults)
    if text:
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, _, raw = piece.partition("=")
            if key not in _GRID_KEYS or not raw:
                parser.error(f"bad --grid entry {piece!r}; use n=..,k=..,alpha=..")
            try:
                values[_GRID_KEYS[key]] = int(raw)
            except ValueError:
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
    table.add_argument("--order", type=int, default=None,
                       help="k parameter for the higher-order/poly families")
    table.add_argument("--alpha", type=int, default=None,
                       help="order for the bernoulli_hi family")
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json", "text"), default="text")

    poly = sub.add_parser("poly", help="print one polynomial, constant term first")
    poly.add_argument("--family", required=True, choices=POLY_FAMILIES)
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--order", type=int, default=None)
    poly.add_argument("--alpha", type=int, default=None)
    poly.add_argument("--format", choices=("csv", "json", "text"), default="text")

    series = sub.add_parser("series", help="print ordinary series coefficients")
    series.add_argument("name", help="registry key: " + ", ".join(_SERIES_REGISTRY_HELP))
    series.add_argument("--terms", type=int, required=True)
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
