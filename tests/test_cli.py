"""CLI contract: exact output strings, formats, exit codes."""

import json
import sys
from math import factorial

import pytest

from cauchykit import cli
from cauchykit.verifier import CheckId


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

    monkeypatch.setitem(verifier._PRINTED, CheckId.T1, broken)
    monkeypatch.delitem(verifier._CORRECTED, CheckId.T1, raising=False)
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


# -- usage errors exit 2 -------------------------------------------------------------

def test_unknown_check_id_is_usage_error(capsys):
    assert run_cli_expect_usage_error(capsys, "verify", "--checks", "T99") == 2


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


def test_bad_grid_entry_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "verify", "--grid", "q=3") == 2


def test_negative_terms_is_usage_error(capsys):
    assert run_cli_expect_usage_error(
        capsys, "series", "log1p", "--terms", "0") == 2


@pytest.mark.parametrize("content, message", [
    ('{"n_max": "abc"}', 'n_max="abc" must be a JSON integer'),
    ('{"n_max": 1.9}', "n_max=1.9 must be a JSON integer"),
    ("5", "must hold a JSON object, not int"),
    ('"x"', "must hold a JSON object, not str"),
    ("[1]", "must hold a JSON object, not list"),
])
def test_malformed_config_is_usage_error(tmp_path, capsys, content, message):
    config = tmp_path / "grid.json"
    config.write_text(content)
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
