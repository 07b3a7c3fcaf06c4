"""CLI contract: exact output strings, formats, exit codes."""

import argparse
import cProfile
import hashlib
import io
import json
import marshal
import os
import subprocess
import sys
import threading
import time
import warnings
from decimal import Decimal, Inexact, Rounded
from math import factorial

import pytest

import cauchykit
from cauchykit import bernoulli, cauchy, cli, series, stirling, verifier
from cauchykit.rational import format_rational
from cauchykit.stirling import StirlingKind, StirlingTable, stirling_table
from cauchykit.verifier import CheckId, Grid


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_expect_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    capsys.readouterr()
    return excinfo.value.code


# -- documented output strings ---------------------------------------------------

def test_table_cauchy1_csv(capsys):
    code, out = run_cli(capsys, "table", "--family", "cauchy1",
                        "--n-max", "2", "--format", "csv")
    assert code == 0
    assert out == "0,1\n1,1/2\n2,-1/6\n"


def test_table_stirling2_single_row(capsys):
    code, out = run_cli(capsys, "table", "--family", "stirling2",
                        "--n-max", "0", "--format", "csv")
    assert code == 0
    assert out == "0,1\n"


def test_table_cauchy_hi1_json(capsys):
    code, out = run_cli(capsys, "table", "--family", "cauchy_hi1", "--order", "2",
                        "--n-max", "1", "--format", "json")
    assert code == 0
    assert out == '[{"n":0,"value":"1"},{"n":1,"value":"1"}]\n'


def test_poly_cauchy_hi_poly1_json(capsys):
    code, out = run_cli(capsys, "poly", "--family", "cauchy_hi_poly1",
                        "--n", "1", "--order", "1", "--format", "json")
    assert code == 0
    assert out == '["1/2","-1"]\n'


def test_poly_bernoulli_constant(capsys):
    code, out = run_cli(capsys, "poly", "--family", "bernoulli_hi_poly",
                        "--n", "0", "--alpha", "5", "--format", "json")
    assert code == 0
    assert out == '["1"]\n'


def test_poly_cauchy_hi_poly2_json(capsys):
    code, out = run_cli(capsys, "poly", "--family", "cauchy_hi_poly2",
                        "--n", "1", "--order", "2", "--format", "json")
    assert code == 0
    assert out == '["-1","1"]\n'


def test_series_cauchy1_gf(capsys):
    code, out = run_cli(capsys, "series", "cauchy1_gf",
                        "--terms", "3", "--format", "json")
    assert code == 0
    assert out == '["1","1/2","-1/12"]\n'


def test_series_log1p(capsys):
    code, out = run_cli(capsys, "series", "log1p", "--terms", "3", "--format", "json")
    assert code == 0
    assert out == '["0","1","-1/2"]\n'


def test_series_bernoulli_gf_zero(capsys):
    code, out = run_cli(capsys, "series", "bernoulli_gf(0)",
                        "--terms", "2", "--format", "json")
    assert code == 0
    assert out == '["1","0"]\n'


# -- every registry entry is reachable -------------------------------------------

def _family_choices(command):
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    return next(a for a in subcommands.choices[command]._actions if a.dest == "family").choices


def _registry_argvs():
    for command, registry, size in (("table", cli.NUMBER_FAMILIES, "--n-max"),
                                    ("poly", cli.POLY_FAMILIES, "--n")):
        for family, (need, _) in registry.items():
            option = ()
            if need is not None:  # the option at its least value, or at -2 where any goes
                name, least = need
                option = (f"--{name}", str(-2 if least is None else least))
            yield [command, "--family", family, *option, size, "3"]
    for family in cli.TRIANGLE_FAMILIES:
        yield ["table", "--family", family, "--n-max", "3"]
    for name in [*cli.SERIES, "bernoulli_gf(-2)"]:
        yield ["series", name, "--terms", "3"]


def test_family_choices_are_the_registries():
    assert list(_family_choices("table")) == [*cli.NUMBER_FAMILIES, *cli.TRIANGLE_FAMILIES]
    assert list(_family_choices("poly")) == list(cli.POLY_FAMILIES)
    assert cli._SERIES_REGISTRY_HELP == (*cli.SERIES, "bernoulli_gf(alpha)")


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("argv", list(_registry_argvs()), ids=" ".join)
def test_every_registry_entry_renders(capsys, argv, fmt):
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    lines = 4 if argv[0] == "table" and fmt != "json" else 1  # rows n = 0..3, or one line
    assert out.endswith("\n") and out.count("\n") == lines
    if fmt == "json":
        assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out


# -- formats agree on values -----------------------------------------------------

def test_csv_and_json_table_values_match(capsys):
    _, csv_out = run_cli(capsys, "table", "--family", "cauchy_hi2", "--order", "3",
                         "--n-max", "6", "--format", "csv")
    _, json_out = run_cli(capsys, "table", "--family", "cauchy_hi2", "--order", "3",
                          "--n-max", "6", "--format", "json")
    csv_values = [line.split(",")[1] for line in csv_out.strip().splitlines()]
    json_values = [obj["value"] for obj in json.loads(json_out)]
    assert csv_values == json_values


def test_json_round_trip_is_byte_identical(capsys):
    _, out = run_cli(capsys, "table", "--family", "bernoulli_hi", "--alpha", "-2",
                     "--n-max", "8", "--format", "json")
    reparsed = json.dumps(json.loads(out), separators=(",", ":")) + "\n"
    assert reparsed == out


def test_stirling1_table_rows_are_signed(capsys):
    _, out = run_cli(capsys, "table", "--family", "stirling1",
                     "--n-max", "3", "--format", "csv")
    assert out.splitlines() == ["0,1", "1,0,1", "2,0,-1,1", "3,0,2,-3,1"]


def test_text_format_default(capsys):
    code, out = run_cli(capsys, "table", "--family", "cauchy2", "--n-max", "2")
    assert code == 0
    assert out == "0 1\n1 -1/2\n2 5/6\n"


def test_table_poly_cauchy_families(capsys):
    code, out = run_cli(capsys, "table", "--family", "poly_cauchy1", "--order", "2",
                        "--n-max", "2", "--format", "csv")
    assert code == 0
    assert out == "0,1\n1,1/4\n2,-5/36\n"
    code, out = run_cli(capsys, "table", "--family", "poly_cauchy2", "--order", "2",
                        "--n-max", "1", "--format", "csv")
    assert code == 0
    assert out == "0,1\n1,-1/4\n"


def test_series_csv(capsys):
    code, out = run_cli(capsys, "series", "cauchy2_gf", "--terms", "3",
                        "--format", "csv")
    assert code == 0
    assert out == "1,-1/2,5/12\n"


# -- verify subcommand ------------------------------------------------------------

def test_verify_single_check_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "--checks", "T1", "--grid", "n=4,k=2")
    assert code == 0
    assert "T1" in out and "result: ok" in out


def test_verify_json_output(capsys):
    code, out = run_cli(capsys, "verify", "--checks", "T5,EQ6",
                        "--grid", "n=4,k=2,alpha=1", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert [obj["id"] for obj in parsed] == ["T5", "EQ6"]
    assert all(obj["status"] == "pass" for obj in parsed)


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    # no real check fails, so substitute a failing case generator
    from cauchykit import verifier

    def broken(grid):
        yield {"n": 0}, 0, 1

    monkeypatch.setitem(verifier._CHECKS, CheckId.T1,
                        verifier._CHECKS[CheckId.T1]._replace(cases=broken))
    code, out = run_cli(capsys, "verify", "--checks", "T1")
    assert code == 1
    assert "FAIL" in out


def test_verify_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text('{"n_max": 3, "k_max": 1, "alpha_max": 1}')
    code, out = run_cli(capsys, "verify", "--checks", "T1",
                        "--config", str(config), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["grid"]["n_max"] == 3


def test_verify_grid_overrides_config(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text('{"n_max": 3}')
    code, out = run_cli(capsys, "verify", "--checks", "T1", "--config", str(config),
                        "--grid", "n=5", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["grid"]["n_max"] == 5


# -- verify shares its checks among forked workers ------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The pids `os.fork` returns while the CLI may run on two CPUs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def run_verify(capsys, grid=None, checks=None):
    """`verify --format json` and `run_suite` on one grid: (exit code, output, expected output).

    Every worker must have been reaped when ``main`` returns.
    """
    argv = ["verify", "--format", "json"]
    argv += [] if grid is None else ["--grid", grid]
    argv += [] if checks is None else ["--checks", checks]
    code, out = run_cli(capsys, *argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    reports = verifier.run_suite(cli._parse_grid(grid, {}, None),
                                 None if checks is None else [CheckId(checks)])
    assert code == verifier.suite_exit_code(reports)
    return code, out, verifier.reports_to_json(reports) + "\n"


@pytest.mark.parametrize("grid", [None, "n=25", "n=2,k=2,alpha=1", "n=0,k=1,alpha=1",
                                  "n=-1", "n=6,k=0", "n=9,k=3,alpha=2"])
def test_forked_verify_reports_as_run_suite_does(capsys, forks, grid):
    code, out, expected = run_verify(capsys, grid)
    assert len(forks) == 1
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("fault", ["exits", "sends bad data"])
def test_checks_a_worker_does_not_report_run_in_the_parent(capsys, monkeypatch, forks, fault):
    parent = os.getpid()
    if fault == "exits":
        verify = verifier.verify

        def exiting_verify(check_id, grid=None):
            if os.getpid() != parent:
                os._exit(3)
            return verify(check_id, grid)

        monkeypatch.setattr(verifier, "verify", exiting_verify)
    else:
        def bad_send(tasks, out, selected, grid):
            cli._take_checks(tasks, selected, grid)
            os.write(out, marshal.dumps([(0, "pass")]))

        monkeypatch.setattr(cli, "_send_reports", bad_send)
    code, out, expected = run_verify(capsys, "n=6")
    assert len(forks) == 1
    assert (code, out) == (0, expected)


def test_a_kernel_corrupted_before_the_fork_fails_alike(capsys, monkeypatch, forks):
    linear_combination = verifier._linear_combination
    monkeypatch.setattr(verifier, "_linear_combination",
                        lambda *args: linear_combination(*args) + 1)
    code, out, expected = run_verify(capsys, "n=6,k=2,alpha=2")
    assert len(forks) == 1
    assert code == 1
    assert out == expected
    assert {obj["id"] for obj in json.loads(out) if obj["counterexamples"]} >= {"T5", "T8"}


def test_the_first_check_that_raises_raises_from_main(monkeypatch, forks):
    # as from run_suite, though the worker takes T1 and the CLI process POLYC_ORACLE
    fork = os.fork

    def fork_then_wait():
        pid = fork()
        if pid:
            time.sleep(0.2)
        return pid

    def raising(check_id):
        def cases(grid):
            raise RuntimeError(f"broken {check_id.value}")
            yield  # a generator, as every check's `cases` is
        return cases

    for check_id in (CheckId.T1, CheckId.POLYC_ORACLE):
        monkeypatch.setitem(verifier._CHECKS, check_id,
                            verifier._CHECKS[check_id]._replace(cases=raising(check_id)))
    with pytest.raises(RuntimeError, match="broken T1"):
        verifier.run_suite(Grid(4))
    monkeypatch.setattr(os, "fork", fork_then_wait)
    with pytest.raises(RuntimeError, match="broken T1"):
        cli.main(["verify", "--grid", "n=4"])
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # on one CPU this process takes every check, and T1 still raises first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with pytest.raises(RuntimeError, match="broken T1"):
        cli.main(["verify", "--grid", "n=4"])
    assert len(forks) == 1


@pytest.mark.parametrize("why", ["one CPU", "another thread", "cProfile", "one check", "no fork"])
def test_verify_runs_in_this_process_alone(capsys, monkeypatch, forks, why):
    # a forked copy of a thread's held memo lock would never be released, and
    # a profiler would not see the checks that a worker runs; in each case no
    # worker is forked, and this process takes every check from the pipe
    checks = "T1" if why == "one check" else None
    if why == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if why == "no fork":
        monkeypatch.delattr(os, "fork")
    if why == "another thread":
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            code, out, expected = run_verify(capsys, "n=4")
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
    elif why == "cProfile":
        code, out, expected = cProfile.Profile().runcall(run_verify, capsys, "n=4")
    else:
        code, out, expected = run_verify(capsys, "n=4", checks)
    assert forks == []
    assert (code, out) == (0, expected)


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two CPUs", "one CPU"])
def test_verify_leaves_the_open_file_descriptors_as_it_found_them(capsys, monkeypatch, forks,
                                                                   cpus):
    # every pipe end and pipe file is closed, none by the garbage collector
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list this process's descriptors")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    before = sorted(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, expected = run_verify(capsys, "n=4")
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert len(forks) == len(cpus) - 1
    assert (code, out) == (0, expected)


# -- usage errors exit 2 -------------------------------------------------------------

def test_unknown_check_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--checks", "T1, T99"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "cauchykit: error: unknown check id 'T99'; valid: "
        "T1,T2,T3,T4,T5,T6,T7,T8,T9,T10,L11,T12,T13,"
        "EQ6,EQ7,EQ19,EQ28,EQ52,EQ53,EQ58,EQ59_61,POLYC_ORACLE")


def test_unknown_series_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "series", "nope", "--terms", "3") == 2


def test_missing_order_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "table", "--family", "cauchy_hi1", "--n-max", "3") == 2


def test_missing_alpha_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "poly", "--family", "bernoulli_hi_poly", "--n", "2") == 2


def test_bad_family_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "table", "--family", "nonsense", "--n-max", "3") == 2


@pytest.mark.parametrize("argv, message", [
    (["table", "--family", "cauchy_hi1", "--n-max", "3"], "family cauchy_hi1 needs --order"),
    (["table", "--family", "cauchy_hi2", "--order", "-1", "--n-max", "3"],
     "--order out of range for family cauchy_hi2"),
    (["table", "--family", "poly_cauchy1", "--order", "0", "--n-max", "3"],
     "--order out of range for family poly_cauchy1"),
    (["table", "--family", "bernoulli_hi", "--n-max", "3"], "family bernoulli_hi needs --alpha"),
    (["poly", "--family", "cauchy_hi_poly1", "--n", "3"], "family cauchy_hi_poly1 needs --order"),
    (["poly", "--family", "cauchy_hi_poly2", "--order", "0", "--n", "3"],
     "--order out of range for family cauchy_hi_poly2"),
    (["poly", "--family", "bernoulli_hi_poly", "--n", "3"],
     "family bernoulli_hi_poly needs --alpha"),
], ids=["table missing order", "table order below 0", "table order below 1",
        "table missing alpha", "poly missing order", "poly order below 1", "poly missing alpha"])
def test_family_option_errors_read_alike(capsys, argv, message):
    # table and poly share one check, so a missing option and one below its
    # least value read the same in both
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.splitlines()[-1] == f"cauchykit: error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["table", "--family", "cauchy1", "--order", "5", "--alpha", "2", "--n-max", "3"],
     "family cauchy1 does not take --order"),
    (["table", "--family", "stirling1", "--order", "3", "--n-max", "2"],
     "family stirling1 does not take --order"),
    (["poly", "--family", "cauchy_hi_poly1", "--n", "2", "--order", "2", "--alpha", "7"],
     "family cauchy_hi_poly1 does not take --alpha"),
], ids=["table number family", "table triangle", "poly"])
def test_family_rejects_options_it_does_not_read(capsys, argv, message):
    # these printed a table or polynomial and exited 0, so a mistyped family
    # silently answered a different question
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.splitlines()[-1] == f"cauchykit: error: {message}"


def test_bad_grid_entry_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "verify", "--grid", "q=3") == 2


@pytest.mark.parametrize("grid, message", [
    ("n=١٥", "bad --grid value '١٥'"),
    ("n=1_5", "bad --grid value '1_5'"),
    ("n=3,n=4", "repeated --grid key 'n'"),
], ids=["arabic-indic digits", "underscore", "repeated key"])
def test_grid_values_are_ascii_integers_and_keys_unique(capsys, grid, message):
    # int() accepts all three, which ran n_max = 15 twice and kept n = 4 silently
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--checks", "T1", "--grid", grid])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("argv, message", [
    (["table", "--family", "cauchy1", "--n-max", "٣"], "invalid int value: '٣'"),
    (["table", "--family", "cauchy1", "--n-max", "1_0"], "invalid int value: '1_0'"),
    (["table", "--family", "cauchy1", "--n-max", "+3"], "invalid int value: '+3'"),
    (["table", "--family", "cauchy_hi1", "--order", "٢", "--n-max", "3"],
     "invalid int value: '٢'"),
    (["table", "--family", "bernoulli_hi", "--alpha", "-١", "--n-max", "3"],
     "invalid int value: '-١'"),
    (["poly", "--family", "bernoulli_hi_poly", "--n", "٢", "--alpha", "1"],
     "invalid int value: '٢'"),
    (["poly", "--family", "cauchy_hi_poly1", "--n", "2", "--order", "２"],
     "invalid int value: '２'"),
    (["series", "log1p", "--terms", "３"], "invalid int value: '３'"),
    (["series", "bernoulli_gf(٣)", "--terms", "3"], "unknown series 'bernoulli_gf(٣)'"),
    (["series", "bernoulli_gf(3)\n", "--terms", "3"], "unknown series 'bernoulli_gf(3)\\n'"),
], ids=["n-max arabic-indic", "n-max underscore", "n-max plus sign", "order arabic-indic",
        "alpha arabic-indic", "n arabic-indic", "order fullwidth", "terms fullwidth",
        "bernoulli_gf arabic-indic", "bernoulli_gf trailing newline"])
def test_integer_options_take_only_ascii_digits(capsys, argv, message):
    # int() accepts all of these, which printed a table for n_max = 3
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.startswith("usage: cauchykit")
    assert message in err.splitlines()[-1]


def test_grid_accepts_negative_and_padded_values(capsys):
    code, out = run_cli(capsys, "verify", "--checks", "T1", "--grid", "n=-1, k= 2",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["grid"]["n_max"] == -1
    assert json.loads(out)[0]["grid"]["k_max"] == 2


def test_verify_far_negative_grid_is_vacuous(capsys):
    # below n = -2 EQ6/EQ7 built a series of order n_max + 3 < 1: exit 1 and a traceback
    code, out = run_cli(capsys, "verify", "--grid", "n=-5", "--format", "json")
    assert code == 0
    assert [obj["cases_checked"] for obj in json.loads(out)] == [0] * len(CheckId)


def test_negative_terms_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "series", "log1p", "--terms", "0") == 2


@pytest.mark.parametrize("content, message", [
    ('{"n_max": "abc"}', 'n_max="abc" must be a JSON integer'),
    ('{"n_max": 1.9}', "n_max=1.9 must be a JSON integer"),
    ("5", "must hold a JSON object, not int"),
    ('"x"', "must hold a JSON object, not str"),
    ("[1]", "must hold a JSON object, not list"),
    pytest.param(b"\xff\xfe", "invalid start byte", id="not utf-8"),
    pytest.param('{"n_max": 3, "n_max": 4}', "repeated config key 'n_max'", id="repeated key"),
])
def test_malformed_config_is_usage_error(tmp_path, capsys, content, message):
    # a non-UTF-8 file exited 1 with a traceback; a repeated key silently kept the last value
    config = tmp_path / "grid.json"
    (config.write_bytes if isinstance(content, bytes) else config.write_text)(content)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--checks", "T1", "--config", str(config)])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.splitlines()[-1].endswith(message)
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python < 3.11 has no int-to-str digit limit")
def test_table_entries_beyond_the_int_digit_limit_render(capsys):
    # s(n, 1) = (-1)^(n-1) (n-1)!; 319! has 660 digits, above the lowest
    # settable limit (640), so this exercises what the default 4300-digit
    # limit does to `table --family stirling1 --n-max 1700` at a small size
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = str(factorial(319))
        sys.set_int_max_str_digits(640)
        code, out = run_cli(capsys, "table", "--family", "stirling1",
                            "--n-max", "320", "--format", "csv")
        assert code == 0
        assert sys.get_int_max_str_digits() == 640
        assert out.splitlines()[-1].startswith("320,0,-" + expected + ",")
    finally:
        sys.set_int_max_str_digits(previous)


def test_number_entries_beyond_the_int_digit_limit_render(capsys):
    # triangles no longer convert ints, so a Fraction table keeps the limit
    # covered: the numerator of cauchy1(350) has 749 digits (limit 640)
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = str(cauchy.cauchy1(350).numerator)
        assert len(expected) > 640
        sys.set_int_max_str_digits(640)
        code, out = run_cli(capsys, "table", "--family", "cauchy1",
                            "--n-max", "350", "--format", "csv")
        assert code == 0
        assert sys.get_int_max_str_digits() == 640
        assert out.splitlines()[-1].startswith("350," + expected + "/")
    finally:
        sys.set_int_max_str_digits(previous)


# -- streamed Stirling triangles ---------------------------------------------------

def old_triangle_output(family, n_max, fmt):
    """The triangle as the int-based renderer wrote it, all in one string."""
    kind = StirlingKind.SIGNED_FIRST if family == "stirling1" else StirlingKind.SECOND
    table = stirling_table(kind)
    if fmt == "json":
        obj = [{"n": n, "row": [str(v) for v in table.row(n)]} for n in range(n_max + 1)]
        return json.dumps(obj, separators=(",", ":")) + "\n"
    sep = "," if fmt == "csv" else " "
    rows = [[str(n)] + [str(v) for v in table.row(n)] for n in range(n_max + 1)]
    return "\n".join(sep.join(row) for row in rows) + "\n"


# Rows 170 of stirling1 and 188 of stirling2 (169 and 187 in json) are the
# first written in more than one piece; the n_max values around them cover
# the last row before that edge, the edge itself and the rows after it.
@pytest.mark.parametrize("n_max", [0, 1, 2, 37, 150, 168, 169, 170, 171,
                                   186, 187, 188, 189])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("family", ["stirling1", "stirling2"])
def test_streamed_triangle_matches_int_rendering(capsys, family, fmt, n_max):
    code, out = run_cli(capsys, "table", "--family", family,
                        "--n-max", str(n_max), "--format", fmt)
    assert code == 0
    assert out == old_triangle_output(family, n_max, fmt)


class RecordingStdout:
    """Stands in for stdout and keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def row_ends(writes):
    """The indices of the writes that end a streamed triangle row."""
    return [i for i, w in enumerate(writes) if w.endswith(("\n", "}"))]


@pytest.mark.parametrize("family, fmt, first_split", [
    ("stirling1", "text", 170), ("stirling1", "csv", 170), ("stirling1", "json", 169),
    ("stirling2", "text", 188), ("stirling2", "csv", 188), ("stirling2", "json", 187),
])
def test_chunk_edges_are_where_rows_first_split(monkeypatch, family, fmt, first_split):
    # keeps the n_max values around the edge in the matching test meaningful;
    # on one CPU, as a worker's forwarded block is written in pieces that end mid-row
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["table", "--family", family, "--n-max", "190", "--format", fmt]) == 0
    ends = row_ends(sink.writes)
    pieces = [b - a for a, b in zip([-1, *ends], ends)]
    assert pieces[first_split] > 1 and set(pieces[:first_split]) == {1}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("family", ["stirling1", "stirling2"])
def test_large_triangle_is_written_in_bounded_pieces(monkeypatch, family, fmt):
    # a write over 128 KiB, or its encoded copy, is an mmap that glibc
    # unmaps on free, so the heap would be refaulted row after row; on one
    # CPU, as a worker's forwarded block is written in pieces that end mid-row
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["table", "--family", family, "--n-max", "600", "--format", fmt]) == 0
    assert max(map(len, sink.writes)) <= 1 << 16
    assert len(row_ends(sink.writes)) == 601 + (fmt == "json")


def synthetic_rows(widths):
    """Rows 0..len(widths)-1 of n+1 entries each, every entry of row n `widths[n]` digits."""
    def rows(kind, n_max, one):
        assert n_max == len(widths) - 1
        for n, width in enumerate(widths):
            yield [Decimal("9" * width) * one] * (n + 1)
    return rows


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("widths", [[5000] * 40, [5000 + 25 * n for n in range(40)],
                                    [70_000] * 3],
                         ids=["5000 digits", "growing from 5000 digits", "70000 digits"])
def test_wide_rows_are_written_in_bounded_pieces(monkeypatch, fmt, widths):
    # on one CPU, as a worker's forwarded block is written in pieces that end mid-entry
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(cli, "stirling_rows", synthetic_rows(widths))
    cli._stream_triangle(StirlingKind.SECOND, len(widths) - 1, fmt)
    assert max(map(len, sink.writes)) <= 1 << 16
    rows = [["9" * width] * (n + 1) for n, width in enumerate(widths)]
    if fmt == "json":
        expected = json.dumps([{"n": n, "row": row} for n, row in enumerate(rows)],
                              separators=(",", ":")) + "\n"
    else:
        sep = "," if fmt == "csv" else " "
        expected = "".join(sep.join([str(n), *row]) + "\n" for n, row in enumerate(rows))
    assert "".join(sink.writes) == expected
    if widths[0] < 1 << 16:
        # each piece is sized from the row before, so none splits an entry
        assert not any(w[-1].isdigit() for w in sink.writes)


# -- a triangle shared among forked workers ------------------------------------------

# Rows 0..250 of either kind span five or more blocks of a 1 MiB pipe, so on two
# CPUs the CLI process and its worker each render some blocks and read others.
SEVERAL_BLOCKS = 250


def run_triangle(monkeypatch, cpus, family, n_max, fmt="text"):
    """`table` for a triangle on `cpus` CPUs: (exit code, every write).

    Every worker must have been reaped when ``main`` returns.
    """
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    code = cli.main(["table", "--family", family, "--n-max", str(n_max), "--format", fmt])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, sink.writes


@pytest.mark.parametrize("cpus", [2, 1], ids=["two CPUs", "one CPU"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("family", ["stirling1", "stirling2"])
def test_forked_triangle_matches_int_rendering(monkeypatch, forks, family, fmt, cpus):
    code, writes = run_triangle(monkeypatch, cpus, family, SEVERAL_BLOCKS, fmt)
    assert len(forks) == cpus - 1
    assert code == 0
    assert "".join(writes) == old_triangle_output(family, SEVERAL_BLOCKS, fmt)
    # the forked-path twin of the bounded-pieces tests pinned to one CPU above
    assert max(map(len, writes)) <= 1 << 16


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("widths", [[5000] * 40, [5000 + 25 * n for n in range(40)]],
                         ids=["5000 digits", "growing from 5000 digits"])
def test_forked_wide_rows_are_written_in_bounded_pieces(monkeypatch, forks, fmt, widths):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "stirling_rows", synthetic_rows(widths))
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    cli._stream_triangle(StirlingKind.SECOND, len(widths) - 1, fmt)
    assert len(forks) == 1
    assert max(map(len, sink.writes)) <= 1 << 16
    rows = [["9" * width] * (n + 1) for n, width in enumerate(widths)]
    sep = "," if fmt == "csv" else " "
    expected = (json.dumps([{"n": n, "row": row} for n, row in enumerate(rows)],
                           separators=(",", ":")) + "\n" if fmt == "json"
                else "".join(sep.join([str(n), *row]) + "\n" for n, row in enumerate(rows)))
    assert "".join(sink.writes) == expected


class HalfBlockPipe(io.FileIO):
    """A worker's pipe file that sends half of the worker's second block, then ends the worker."""

    blocks = 0

    def write(self, data):
        if len(data) > 8:  # a block's text; its 8-byte length went just before
            self.blocks += 1
            if self.blocks == 2:
                half = memoryview(data)[:len(data) // 2]
                while half:
                    half = half[super().write(half):]
                os._exit(1)
        return super().write(data)


@pytest.mark.parametrize("fault", ["exits while rendering", "sends half a block"])
def test_a_worker_that_dies_leaves_the_output_whole(monkeypatch, forks, fault):
    # the CLI process renders each block the worker did not send whole,
    # less what it already forwarded of it
    parent = os.getpid()
    if fault == "exits while rendering":
        write_row = cli._write_row
        calls = []

        def exiting_write_row(*args):
            if os.getpid() != parent:
                calls.append(1)
                if len(calls) == 30:
                    os._exit(1)
            return write_row(*args)

        monkeypatch.setattr(cli, "_write_row", exiting_write_row)
    else:
        def half_block_open(file, mode="r", *args, **kwargs):
            if os.getpid() != parent and mode == "wb":
                return HalfBlockPipe(file, "wb")
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", half_block_open, raising=False)
    code, writes = run_triangle(monkeypatch, 2, "stirling1", SEVERAL_BLOCKS)
    assert len(forks) == 1
    assert code == 0
    assert "".join(writes) == old_triangle_output("stirling1", SEVERAL_BLOCKS, "text")
    assert max(map(len, writes)) <= 1 << 16


@pytest.mark.parametrize("why", ["one CPU", "another thread", "cProfile", "no fork"])
def test_triangle_renders_in_this_process_alone(monkeypatch, forks, why):
    # as for verify: no worker when it could inherit a held lock or hide from a profiler
    cpus = 1 if why == "one CPU" else 2
    if why == "no fork":
        monkeypatch.delattr(os, "fork")
    if why == "another thread":
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            code, writes = run_triangle(monkeypatch, cpus, "stirling2", SEVERAL_BLOCKS)
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
    elif why == "cProfile":
        code, writes = cProfile.Profile().runcall(run_triangle, monkeypatch, cpus, "stirling2",
                                                  SEVERAL_BLOCKS)
    else:
        code, writes = run_triangle(monkeypatch, cpus, "stirling2", SEVERAL_BLOCKS)
    assert forks == []
    assert code == 0
    assert "".join(writes) == old_triangle_output("stirling2", SEVERAL_BLOCKS, "text")


@pytest.mark.parametrize("cpus", [2, 1], ids=["two CPUs", "one CPU"])
def test_triangle_leaves_the_open_file_descriptors_as_it_found_them(monkeypatch, forks, cpus):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list this process's descriptors")
    before = sorted(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _ = run_triangle(monkeypatch, cpus, "stirling1", SEVERAL_BLOCKS, "json")
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert len(forks) == cpus - 1
    assert code == 0


class HashingStdout:
    """Stands in for stdout and keeps only a digest of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("family, fmt, sha256", [
    ("stirling1", "csv", "abc83b64c9fef00ecda2f243cb11dbad2d4051bd435a8a3c6cb8a73da2280c1b"),
    ("stirling1", "json", "1ec51343d261e6b70ba8d9c4b07986cfd34ca6f2030dae8c7f24e801d2db9619"),
    ("stirling2", "csv", "d83020aaf48aeffc03c74ae3ecfb5abc61917a1e639f58407d8be6780276eb81"),
    ("stirling2", "json", "75e56e637f8aa95fd30560726a562904acce743f48d6ea6ac560ca3e5fdc83f1"),
    ("stirling1", "text", "64b65db842f9785b3eed098fd72587ed071724ccf4e95bdb777c4a5cae7bf97e"),
    ("stirling2", "text", "ffa47cd3f4eec3de1f5f3b537a87aac60c96fe9caf55e6f04f5a51cf1b68164f"),
])
def test_large_triangle_output_is_pinned(monkeypatch, family, fmt, sha256):
    # digests of the int-based renderer's output at n-max 600
    sink = HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    code = cli.main(["table", "--family", family, "--n-max", "600", "--format", fmt])
    assert code == 0
    assert sink.digest.hexdigest() == sha256


@pytest.mark.parametrize("family, fmt, sha256", [
    ("poly_cauchy1", "text", "5989a1acfd335fcd88b627d1bbc6fdf7e30c3aa79c0272a3d53b234ecc7923dc"),
    ("poly_cauchy1", "csv", "c78989c6dc4364413f2094a32c46f817aacd2f4cb5ca5031aaa113a1bf39a5b2"),
    ("poly_cauchy2", "text", "ef52a5c35c1bc38213198dba99c2dfecbc985e688a0a3b07e68f5698bb1c09f5"),
    ("poly_cauchy2", "csv", "c8903f61fb03d5a8034ed83eb6354b786bdb1a922dc5b0af789cf511c1f63c8c"),
])
def test_poly_cauchy_table_output_is_pinned(monkeypatch, family, fmt, sha256):
    # digests of the output of the one-Fraction-per-term sums at order 2, n-max 200
    sink = HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    code = cli.main(["table", "--family", family, "--order", "2", "--n-max", "200",
                     "--format", fmt])
    assert code == 0
    assert sink.digest.hexdigest() == sha256


@pytest.mark.parametrize("argv, fmt, sha256", [
    ("series cauchy1_gf --terms 120", "text",
     "3c1ed2b1a367c4fee344d92e704824a58beab974dfbe3a11741d037c86c7cd76"),
    ("series cauchy1_gf --terms 120", "json",
     "f99b17b13d201fdef20da5e6462c48c3d32f3cbb05e54b8bb0e664949e4dcbde"),
    ("table --family bernoulli_hi --alpha -2 --n-max 60", "text",
     "dc9824a23421c208e0f933a944e8ca9f93b8cdc87924c73179b9c327f995b7fb"),
    ("table --family bernoulli_hi --alpha -2 --n-max 60", "json",
     "064be0aae274cedc3c5c8493fecbbb35e2c598304c78c7840057681f6a62595a"),
    ("table --family cauchy_hi1 --order 3 --n-max 60", "text",
     "cb93db5ef5d12fdff837020bdce088f8299e19e8e3466f19b4ac6b6b4598a54b"),
    ("table --family cauchy_hi1 --order 3 --n-max 60", "json",
     "0737040cc27a7cfb0379cbb5acccd6121da881ade89c1e1dbe4dce9d97f6ca88"),
    ("table --family cauchy_hi2 --order 2 --n-max 60", "text",
     "83c3a6b6473f3ac7b2b23ffffba88c4b9d26f717f7847db1c2e67059767bad5c"),
    ("table --family cauchy_hi2 --order 2 --n-max 60", "json",
     "e770ee1d5943815261931ae53a6784e1ca394200fae694e03f2bce9b18021ea6"),
    ("series log1p --terms 60", "text",
     "a85253e2a3c97c4b11a70cb47c1678dfef94131dbcfa4cf9f6da861fdc40395a"),
    ("series log1p --terms 60", "json",
     "348f040bafacbb8f138b82b47ac355273d7cec4b444fa8992493a2c261168561"),
    ("series exp_m1 --terms 60", "text",
     "ec6a87540ec01c3c7075c168fdb50dcc8610843f19520bd69b4cbedfc6d4026b"),
    ("series exp_m1 --terms 60", "json",
     "b341bd176a7221f424d5b5a0a2fd71dc18a10921e309024abba6f4bfe5a50f71"),
    ("series cauchy2_gf --terms 60", "text",
     "14ee88a910ad36d076acbcbd6d12ec4dfc6120a0b415031ccf51474008feb263"),
    ("series cauchy2_gf --terms 60", "json",
     "786e32c52972dbbb16b6d00f6e1af4537f7e6925f340009ac97ee4cc521f33b3"),
    ("series bernoulli_gf(3) --terms 60", "text",
     "4b73f15b8dab3f3eee22635cc4371a87ff7745db049afd6a3f4817dd174acb45"),
    ("series bernoulli_gf(3) --terms 60", "json",
     "c4b4900f0dff0e78157369062f3977a9ee18332b09981fd320f246cf80f79371"),
    ("series bernoulli_gf(-2) --terms 60", "text",
     "e8786e8b51d2917583514a771f89b1584ce26e88bb000dd56070da19714dd6f3"),
    ("series bernoulli_gf(-2) --terms 60", "json",
     "312ae7400eb3d65a209b6fa211f71f5477bf8ea1c9498167d1254fa17f638f9b"),
    ("poly --family bernoulli_hi_poly --n 30 --alpha -3", "text",
     "6887325e57d8335c15723d74f2bfe1f2d4b95f786ad7e6007e224e61f772110e"),
    ("poly --family bernoulli_hi_poly --n 30 --alpha -3", "json",
     "1f4b7c9ad702bbad8405d6813be6b38115683e79a58ded0ee018798b11c11454"),
])
def test_series_division_outputs_are_pinned(monkeypatch, argv, fmt, sha256):
    # digests of the output of the Fraction-based series kernels, recorded before
    # each move onto int numerators
    sink = HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    code = cli.main(argv.split() + ["--format", fmt])
    assert code == 0
    assert sink.digest.hexdigest() == sha256


def test_streamed_triangle_leaves_the_memo_tables_alone(capsys, monkeypatch):
    fresh = {kind: StirlingTable(kind) for kind in StirlingKind}
    monkeypatch.setattr(stirling, "_TABLES", fresh)
    code, _ = run_cli(capsys, "table", "--family", "stirling1", "--n-max", "200")
    assert code == 0
    assert all(len(stirling_table(kind).rows) == 1 for kind in StirlingKind)


def test_triangle_context_traps_rounding():
    ctx = cli.EXACT_INTEGERS.copy()
    assert ctx.traps[Inexact] and ctx.traps[Rounded]
    ctx.prec = 5  # small enough to force rounding
    with pytest.raises(Rounded):
        ctx.plus(Decimal(123450))
    with pytest.raises(Inexact):
        ctx.plus(Decimal(123456))


@pytest.mark.parametrize("family, param, builder", [
    ("bernoulli_hi", ("--alpha", "-2"), (series, "_expm1_over_t")),
    ("bernoulli_hi", ("--alpha", "3"), (series, "_expm1_over_t")),
    ("cauchy_hi1", ("--order", "3"), (series, "_log1p_over_t")),
    ("cauchy_hi1", ("--order", "0"), (series, "_log1p_over_t")),
    ("cauchy_hi2", ("--order", "2"), (series, "_one_plus_t_log1p_over_t")),
])
def test_number_table_builds_one_series(capsys, monkeypatch, family, param, builder):
    # builder names the unit's inverse f/t; the table reads one power of t/f
    cauchykit.clear_caches()
    builds = []
    original = series._unit_power

    def counted(over_t, e, order):
        held = series._POWERS.get((over_t, e))
        power = original(over_t, e, order)
        if series._POWERS[over_t, e] is not held:
            builds.append((over_t, e, order))
        return power

    for module in (bernoulli, cauchy):
        monkeypatch.setattr(module, "_unit_power", counted)
    code, out = run_cli(capsys, "table", "--family", family, *param,
                        "--n-max", "30", "--format", "json")
    assert code == 0
    order = int(param[1])
    assert builds == [(getattr(*builder), order, 31)]
    single = {"bernoulli_hi": cauchykit.bernoulli_hi_number,
              "cauchy_hi1": cauchykit.cauchy_hi1,
              "cauchy_hi2": cauchykit.cauchy_hi2}[family]
    assert json.loads(out) == [{"n": n, "value": format_rational(single(n, order))}
                               for n in range(31)]


def assert_closed_pipe_exits_141(fmt, head):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cauchykit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
            [sys.executable, "-m", "cauchykit.cli", "table", "--family", "stirling1",
             "--n-max", "300", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(100).startswith(head)
        proc.stdout.close()  # the reader leaves long before the table ends
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_closed_pipe_exits_141_without_traceback():
    assert_closed_pipe_exits_141("text", b"0 1\n1 0 1\n")


@pytest.mark.parametrize("fmt, head", [
    ("csv", b"0,1\n1,0,1\n"),
    ("json", b'[{"n":0,"row":["1"]},{"n":1,"row":["0","1"]},'),
])
def test_closed_pipe_exits_141_in_every_format(fmt, head):
    assert_closed_pipe_exits_141(fmt, head)


@pytest.mark.parametrize("read", [100, 3 << 20], ids=["before the fork", "after the fork"])
def test_closed_pipe_leaves_no_worker_running(read):
    # `table ... | head -c <read>` in a session of its own: once the CLI has
    # exited, no process is left in its group, so every worker was reaped
    src = os.path.dirname(os.path.dirname(os.path.abspath(cauchykit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
            [sys.executable, "-m", "cauchykit.cli", "table", "--family", "stirling1",
             "--n-max", "600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            start_new_session=True) as proc:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert stderr == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
