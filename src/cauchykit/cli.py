"""Batch command-line front end.

Four subcommands: ``table`` renders number sequences and Stirling triangles,
``poly`` renders single polynomials (coefficients constant term first),
``series`` renders raw (ordinary, not EGF) series coefficients, and
``verify`` runs the identity suite.

The families and series are registries, not branches: ``NUMBER_FAMILIES``
and ``POLY_FAMILIES`` map each name to the option it needs (with that
option's least value) and the function that builds its values,
``TRIANGLE_FAMILIES`` maps each name to its ``StirlingKind``, and ``SERIES``
maps each stock series to its builder beside the one pattern entry
``bernoulli_gf(alpha)``.  The argparse choices are read from them, ``table``
and ``poly`` check their options in one place, and the three output
commands share one renderer.

All payload goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 141 (128 + SIGPIPE) when the reader
closes stdout early, as ``cauchykit table ... | head`` does.  Output is
deterministic; JSON uses compact separators so re-serialising a parsed
document is byte-identical.

Stirling triangles are streamed: each row is built from the one before by
the exact recurrence on ``decimal.Decimal`` integers and written as soon as
it is built, in pieces of about 32 KiB, each rendered by one ``%``-format
call and none written longer than 64 KiB.  So a triangle needs memory for
one row and one bounded write, and its entries go through neither the memo
tables nor int-to-str conversion, which is quadratic in the number of
digits.  Python's limit on that conversion (4300 digits by default)
therefore matters only for ``Fraction``, ``poly`` and ``series`` output; it
is lifted while those render, so large values print in full.

``verify`` shares its checks among this process and up to one forked worker
per further CPU it may run on; every run takes this path.  The indices of
the selected checks fill one pipe before any fork, and each process takes
the next index from it, so a faster process takes more checks.  A worker
writes its reports to a pipe file as plain ``marshal`` data and leaves by
``os._exit``, so it never flushes what it inherited.  The parent reads them,
runs itself any check that raised or whose report did not arrive, and
prints the reports in ``CheckId`` order, so the output, exit code and first
exception are those of ``run_suite``, the exception once the other checks
have run.  A check's memo fills stay in the process that ran it.  This
process takes every check itself, forking no worker, when ``os.fork`` is
missing, when there is one CPU or one check, when another thread is alive
(the fork could copy a memo lock that thread holds), or when a profiler,
tracer or debugger is attached (it would not see the workers).
"""

from __future__ import annotations

import argparse
import decimal
import json
import marshal
import os
import re
import sys
import threading
from functools import partial

from . import verifier
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
from .rational import _unlimited_int_text, format_rational
from .series import bernoulli_gf, cauchy1_gf, cauchy2_gf, expm1_series, log1p_series
from .stirling import StirlingKind, stirling_rows
from .verifier import (
    DEFAULT_GRID,
    CheckId,
    Counterexample,
    TheoremReport,
    reports_to_json,
    reports_to_text,
    suite_exit_code,
)

# family -> ((option it needs, that option's least value or None) or None,
#            builder(size, option value)); the generating-function families
#            read all values off one series
NUMBER_FAMILIES = {
    "cauchy1": (None, lambda n_max, _: [cauchy1(n) for n in range(n_max + 1)]),
    "cauchy2": (None, lambda n_max, _: [cauchy2(n) for n in range(n_max + 1)]),
    "cauchy_hi1": (("order", 0), partial(cauchy_hi_numbers, CauchyKind.FIRST)),
    "cauchy_hi2": (("order", 0), partial(cauchy_hi_numbers, CauchyKind.SECOND)),
    "poly_cauchy1": (("order", 1),
                     lambda n_max, k: [poly_cauchy1(n, k) for n in range(n_max + 1)]),
    "poly_cauchy2": (("order", 1),
                     lambda n_max, k: [poly_cauchy2(n, k) for n in range(n_max + 1)]),
    "bernoulli_hi": (("alpha", None), bernoulli_hi_numbers),
}
TRIANGLE_FAMILIES = {"stirling1": StirlingKind.SIGNED_FIRST, "stirling2": StirlingKind.SECOND}
POLY_FAMILIES = {
    "cauchy_hi_poly1": (("order", 1), cauchy_hi_poly1),
    "cauchy_hi_poly2": (("order", 1), cauchy_hi_poly2),
    "bernoulli_hi_poly": (("alpha", None), bernoulli_hi_poly),
}
SERIES = {"log1p": log1p_series, "exp_m1": expm1_series,
          "cauchy1_gf": cauchy1_gf, "cauchy2_gf": cauchy2_gf}

_SERIES_REGISTRY_HELP = (*SERIES, "bernoulli_gf(alpha)")
_BERNOULLI_GF_RE = re.compile(r"bernoulli_gf\((-?[0-9]+)\)")
_ASCII_INT_RE = re.compile(r"-?[0-9]+")
_FORMATS = ("csv", "json", "text")

# A streamed triangle row goes out in pieces of about half this size and
# never in a longer write.  A longer string, and the encoded copy that a piped
# or hashing stdout makes of it, would pass glibc's 128 KiB mmap threshold, so
# row after row the top of the heap would be trimmed on free and faulted back in.
_WRITE_BYTES = 1 << 16

# Exact integer arithmetic for the triangles: any result that would have to
# be rounded raises instead of printing a wrong digit.
EXACT_INTEGERS = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded])


def _ascii_int(text: str) -> int:
    """-?[0-9]+ within surrounding spaces, the digits ``parse_rational`` reads.

    ``int()`` would also take other scripts' digits, underscores and "+";
    the error reads as argparse's own for ``type=int``.
    """
    if not _ASCII_INT_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _render(values, fmt: str, indexed: bool = False) -> None:
    """Write exact values as JSON, csv or text: one row, or with `indexed` one row per n."""
    with _unlimited_int_text():
        cells = [format_rational(v) for v in values]
        if fmt == "json":
            rows = [{"n": n, "value": c} for n, c in enumerate(cells)] if indexed else cells
            print(json.dumps(rows, separators=(",", ":")))
            return
        sep = "," if fmt == "csv" else " "
        print("\n".join(f"{n}{sep}{c}" for n, c in enumerate(cells)) if indexed
              else sep.join(cells))


def _family_option(args, parser, need, size: int, size_flag: str):
    """The value of the option a `table` or `poly` family needs; bad or unread input exits 2."""
    if size < 0:
        parser.error(f"{size_flag} must be nonnegative")
    for option in ("order", "alpha"):
        if getattr(args, option) is not None and option != (need and need[0]):
            parser.error(f"family {args.family} does not take --{option}")
    if need is None:
        return None
    option, least = need
    value = getattr(args, option)
    if value is None:
        parser.error(f"family {args.family} needs --{option}")
    if least is not None and value < least:
        parser.error(f"--{option} out of range for family {args.family}")
    return value


# -- commands -----------------------------------------------------------------

def _write_row(write, head: str, row, cell: str, tail: str, per_write: int) -> float:
    """Write `head`, then the entries of `row` by the `cell` template, the last by `tail`.

    Each ``%``-format call renders `per_write` entries, and each write is at
    most ``_WRITE_BYTES`` long, even for a single entry wider than that.
    Returns the bytes per entry of the densest piece.
    """
    densest = 0.0
    full = cell * per_write
    for i in range(0, len(row), per_write):
        cells = row[i:i + per_write]
        template = full if i + per_write < len(row) else cell * (len(cells) - 1) + tail
        piece = (head + template) % tuple(cells)
        head = ""
        densest = max(densest, len(piece) / len(cells))
        for j in range(0, len(piece), _WRITE_BYTES):
            write(piece[j:j + _WRITE_BYTES])
    return densest


def _stream_triangle(kind: StirlingKind, n_max: int, fmt: str) -> None:
    """Write rows 0..n_max of the triangle of `kind` to stdout as each is built.

    A row is written in pieces of about half ``_WRITE_BYTES``, each rendered
    by one ``%``-format call, so the triangle needs memory for one row and
    one bounded write.  The number of entries in a piece comes from the densest
    piece of the row before, as a row's entries are at most a few digits
    wider than those of the row before it.
    """
    write = sys.stdout.write
    if fmt == "json":
        cell, tail = '%s","', '%s"]}'
    else:
        cell, tail = ("%s," if fmt == "csv" else "%s "), "%s\n"
    per_write = 1
    with decimal.localcontext(EXACT_INTEGERS):
        for n, row in enumerate(stirling_rows(kind, n_max, decimal.Decimal(1))):
            head = '%s{"n":%s,"row":["' % ("," if n else "[", n) if fmt == "json" else cell % n
            densest = _write_row(write, head, row, cell, tail, per_write)
            per_write = max(1, int(_WRITE_BYTES / 2 // densest))
        if fmt == "json":
            write("]\n")


def _cmd_table(args, parser) -> int:
    need, build = NUMBER_FAMILIES.get(args.family, (None, None))
    value = _family_option(args, parser, need, args.n_max, "--n-max")
    if build is None:
        _stream_triangle(TRIANGLE_FAMILIES[args.family], args.n_max, args.format)
    else:
        _render(build(args.n_max, value), args.format, indexed=True)
    return 0


def _cmd_poly(args, parser) -> int:
    need, build = POLY_FAMILIES[args.family]
    poly = build(args.n, _family_option(args, parser, need, args.n, "--n"))
    # constant term first; the zero polynomial renders as a single "0"
    _render(poly.coeffs or (0,), args.format)
    return 0


def _cmd_series(args, parser) -> int:
    if args.terms < 1:
        parser.error("--terms must be at least 1")
    match = _BERNOULLI_GF_RE.fullmatch(args.name)
    if match:
        series = bernoulli_gf(int(match.group(1)), args.terms)
    elif args.name in SERIES:
        series = SERIES[args.name](args.terms)
    else:
        parser.error(f"unknown series {args.name!r}; registry: "
                     + ", ".join(_SERIES_REGISTRY_HELP))
    _render(series.coeffs[:args.terms], args.format)
    return 0


# -- verify -------------------------------------------------------------------

_GRID_KEYS = {"n": "n_max", "k": "k_max", "alpha": "alpha_max"}


def _parse_grid(text: str | None, values: dict, parser):
    """Apply "n=..,k=..,alpha=.." over `values`; values are ASCII integers, keys unique."""
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
    return DEFAULT_GRID._replace(**values)


def _unique_keys(pairs: list) -> dict:
    """``json.load``'s object hook: a repeated key raises, where a dict keeps the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated config key {key!r}")
        obj[key] = value
    return obj


def _load_config(path: str | None, parser) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8 and repeated keys are ValueErrors
        parser.error(f"cannot read config {path!r}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config {path!r} must hold a JSON object, not {type(raw).__name__}")
    bad = set(raw) - set(_GRID_KEYS.values())
    if bad:
        parser.error(f"unknown config keys: {sorted(bad)}")
    for key, value in raw.items():
        if type(value) is not int:
            parser.error(f"config value {key}={json.dumps(value)} must be a JSON integer")
    return raw


def _cmd_verify(args, parser) -> int:
    grid = _parse_grid(args.grid, _load_config(args.config, parser), parser)
    if args.checks.strip().lower() == "all":
        checks = None
    else:
        checks = []
        for token in map(str.strip, args.checks.split(",")):
            try:
                checks.append(CheckId(token))
            except ValueError:
                parser.error(f"unknown check id {token!r}; valid: "
                             + ",".join(cid.value for cid in CheckId))
    reports = _run_checks(grid, checks)
    print((reports_to_json if args.format == "json" else reports_to_text)(reports))
    return suite_exit_code(reports)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _watched() -> bool:
    """Whether a profiler, tracer or debugger is attached; it would not see a forked worker."""
    monitoring = getattr(sys, "monitoring", None)  # from 3.12 cProfile and coverage may use it
    return bool(sys.getprofile() or sys.gettrace()
                or monitoring and any(monitoring.get_tool(i) for i in range(6)))


def _take_checks(tasks: int, selected: list, grid) -> dict:
    """Run each check whose index this process reads from the `tasks` pipe, until it is empty.

    A one-byte read from a pipe is atomic, so each index goes to one process.
    A check that raises is left out: ``_run_checks`` runs it again in order,
    so the exception surfaces as it does from ``run_suite``.
    """
    reports = {}
    while index := os.read(tasks, 1):
        try:
            reports[index[0]] = verifier.verify(selected[index[0]], grid)
        except Exception:  # raised again by the rerun
            pass
    return reports


def _send_reports(tasks: int, out: int, selected: list, grid) -> None:
    """A worker's work: its reports written to the `out` pipe as ``marshal`` data."""
    with open(out, "wb") as pipe:
        marshal.dump([(i, r.status, r.cases_checked, tuple(map(tuple, r.counterexamples)),
                       r.corrected_reading)
                      for i, r in _take_checks(tasks, selected, grid).items()], pipe)


def _read_reports(data: bytes, selected: list, grid) -> dict:
    """The reports a worker sent as `data`; none if the data is cut short or garbled."""
    try:
        return {i: TheoremReport(selected[i], grid, status, cases,
                                 tuple(Counterexample(*ce) for ce in counterexamples), reading)
                for i, status, cases, counterexamples, reading in marshal.loads(data)}
    except (EOFError, ValueError, TypeError, IndexError):
        return {}


def _run_checks(grid, checks) -> list:
    """``run_suite(grid, checks)``, shared among this process and forked workers.

    Every run fills the task pipe and takes checks from it here; one worker
    per further CPU takes them too, or none in the cases the module
    docstring lists.  Every worker is reaped before this returns; if this
    process raises or is interrupted, it kills the workers first.
    """
    selected = [cid for cid in CheckId if checks is None or cid in checks]
    workers = min(_cpu_count(), len(selected)) - 1
    if not hasattr(os, "fork") or threading.active_count() > 1 or _watched():
        workers = 0
    tasks, fill = os.pipe()
    os.write(fill, bytes(range(len(selected))))  # one byte per index: the registry has 22 checks
    os.close(fill)
    children = {}  # pid -> the pipe file its reports come back on
    received = {}  # pid -> all it sent, read to the end of its pipe
    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the processes already running take the rest
                os.close(out_r)
                os.close(out_w)
                break
            if pid == 0:
                code = 1
                try:
                    _send_reports(tasks, out_w, selected, grid)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = open(out_r, "rb")
            os.close(out_w)
        reports = _take_checks(tasks, selected, grid)
        for pid, pipe in children.items():
            received[pid] = pipe.read()
    finally:
        os.close(tasks)
        for pid, pipe in children.items():
            pipe.close()
            if pid not in received:  # this process raised or was interrupted
                os.kill(pid, 9)  # SIGKILL; the signal module is not loaded on the CLI path
            if os.waitpid(pid, 0)[1] != 0:  # it died: whatever it sent may be cut short
                received.pop(pid, None)
    for data in received.values():
        reports.update(_read_reports(data, selected, grid))
    return [reports[i] if i in reports else verifier.verify(cid, grid)
            for i, cid in enumerate(selected)]


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
                       choices=[*NUMBER_FAMILIES, *TRIANGLE_FAMILIES])
    table.add_argument("--order", type=_ascii_int, default=None,
                       help="k parameter for the higher-order/poly families")
    table.add_argument("--alpha", type=_ascii_int, default=None,
                       help="order for the bernoulli_hi family")
    table.add_argument("--n-max", type=_ascii_int, required=True)
    table.add_argument("--format", choices=_FORMATS, default="text")
    table.set_defaults(run=_cmd_table)

    poly = sub.add_parser("poly", help="print one polynomial, constant term first")
    poly.add_argument("--family", required=True, choices=list(POLY_FAMILIES))
    poly.add_argument("--n", type=_ascii_int, required=True)
    poly.add_argument("--order", type=_ascii_int, default=None)
    poly.add_argument("--alpha", type=_ascii_int, default=None)
    poly.add_argument("--format", choices=_FORMATS, default="text")
    poly.set_defaults(run=_cmd_poly)

    series = sub.add_parser("series", help="print ordinary series coefficients")
    series.add_argument("name", help="registry key: " + ", ".join(_SERIES_REGISTRY_HELP))
    series.add_argument("--terms", type=_ascii_int, required=True)
    series.add_argument("--format", choices=_FORMATS, default="text")
    series.set_defaults(run=_cmd_series)

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("--checks", default="all",
                        help='comma-separated check ids, or "all"')
    verify.add_argument("--grid", default=None, help="overrides, e.g. n=10,k=3,alpha=2")
    verify.add_argument("--config", default=None,
                        help="JSON file with default grid bounds")
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.set_defaults(run=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(args, parser)


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
