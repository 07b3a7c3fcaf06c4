"""Acceptance gate: one test per criterion, exact equality throughout.

Run `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion with timings.  All tolerances are exact rational equality; grids
are the stated ones, pinned here.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from cauchykit.bernoulli import bernoulli_hi_numbers
from cauchykit.cauchy import (
    CauchyKind,
    CauchyMethod,
    cauchy1,
    cauchy2,
    cauchy_hi1,
    cauchy_hi2,
    cauchy_hi_poly1,
    cauchy_hi_poly2,
    cauchy_hi_poly_sum,
    poly_cauchy1,
)
from cauchykit.bernoulli import bernoulli_hi_poly
from cauchykit.series import (
    PowerSeries,
    expm1_series,
    log1p_series,
    one_minus_exp_neg_series,
    sheffer_polys,
    t_series,
)
from cauchykit.stirling import stirling1_signed, stirling2
from cauchykit.verifier import (
    FAIL,
    PASS,
    PASS_WITH_CORRECTION,
    TAG_POLYC_INDEX,
    TAG_SIGN_FIRST_KIND,
    TAG_T13_INDEX,
    CheckId,
    Grid,
    TheoremReport,
    reports_to_json,
    run_suite,
)

F = Fraction

FIRST_KIND_METHODS = tuple(CauchyMethod)
SECOND_KIND_METHODS = tuple(m for m in CauchyMethod if m is not CauchyMethod.CONVOLUTION)

# pre-registered corrected readings; the first-kind sign fix is the one the
# oracle forces beyond the anticipated index corrections
REGISTERED_READINGS = {TAG_SIGN_FIRST_KIND, TAG_T13_INDEX, TAG_POLYC_INDEX}

# SHA-256 of `cauchykit verify --format json` on the default grid
VERIFY_JSON_SHA256 = "cb786c278c3e9eb9968f9026ef25458935b8fb280cf729d8ee52e41ac054fa8a"

# ... and with `--grid` on edge grids; at n=0 T13's printed form passes
EDGE_GRID_VERIFY_JSON_SHA256 = {
    "n=2,k=2,alpha=1": "9da41d94fb382a3ef4990831bb6dc6ffd6dd8cd949abe3c4773fc9fee279eddf",
    "n=0,k=1,alpha=1": "89227da86fcf4a9cb5224fac0a1f98fa2bce85b54471ee0c553846155cf6c90b",
    "n=-1": "f2706b277d1d65ae5330e76d9a6fbc06302adff792bdc8f7f4b094217150f3e7",
    "n=6,k=0": "64d5d030005652936b59db382ad36f13cf2690ea1ede2e944d51ab8a95a863bb",
    "n=9,k=3,alpha=2": "2d08cbfc3f93fa6b00c3f6835d1ce2f39619d94181ba2281e98d08d4bbf808f9",
}

# ... and of `reports_to_json(run_suite(Grid(25, 4, 3)))`, in-process: past the
# default grid the sums run over wider denominators
WIDE_GRID_JSON_SHA256 = "220ad6cc8629b164ed84c2a75dcd7284ad9793ff5d38a89aec6eebe3b4e805ac"

# ... and on a wide k/alpha grid at small n: k <= 25 and alpha <= 37 at n <= 12,
# with 25 x samples, the default five first
WIDE_K_ALPHA_GRID = Grid(12, 25, 37, tuple(Fraction(*z) for z in (
    (0,), (1,), (-1,), (1, 2), (-3, 7), (2,), (-2,), (1, 3), (-1, 3), (3, 2), (-5, 2), (2, 5),
    (-4, 5), (3,), (-3,), (1, 4), (-7, 4), (5, 3), (-2, 3), (4,), (-4,), (1, 5), (-6, 5), (7, 2),
    (-9, 7))))
WIDE_K_ALPHA_JSON_SHA256 = "5cbea63218f0029608699c8a584d4dd125f3bd2b6c00d3fb1af5820593cd512e"

_SUITE_CACHE: dict = {}


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    print(f"criterion {number} [{description}]: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_cross_path_equality():
    with criterion(1, "five first-kind paths and four second-kind paths agree, n<=25 k<=5"):
        for k in range(1, 6):
            for n in range(26):
                first = {m.value: cauchy_hi1(n, k, m) for m in FIRST_KIND_METHODS}
                assert len(set(first.values())) == 1, (n, k, first)
                second = {m.value: cauchy_hi2(n, k, m) for m in SECOND_KIND_METHODS}
                assert len(set(second.values())) == 1, (n, k, second)


def test_criterion_2_classical_degeneration():
    with criterion(2, "k=1 reduces to the classical numbers, n<=20"):
        for n in range(21):
            assert cauchy_hi1(n, 1) == cauchy1(n)
            assert cauchy_hi2(n, 1) == cauchy2(n)
            assert poly_cauchy1(n, 1) == cauchy1(n)


def test_criterion_3_full_theorem_suite():
    with criterion(3, "full identity suite on the default grid, zero fail"):
        start = time.time()
        reports = run_suite()
        elapsed = time.time() - start
        _SUITE_CACHE["reports"] = reports
        assert elapsed < 60, f"suite took {elapsed:.1f}s"
        by_id = {r.id: r for r in reports}
        assert set(by_id) == set(CheckId)
        assert all(r.status != FAIL for r in reports)
        for r in reports:
            if r.status == PASS_WITH_CORRECTION:
                assert r.corrected_reading in REGISTERED_READINGS, r.id
        # exactly these checks need a corrected reading, with the printed-form
        # counterexamples recorded wherever a printed form is executable
        corrected = {r.id: r for r in reports if r.status == PASS_WITH_CORRECTION}
        assert set(corrected) == {CheckId.T12, CheckId.T13, CheckId.EQ59_61,
                                  CheckId.POLYC_ORACLE}
        for cid in (CheckId.T12, CheckId.T13, CheckId.EQ59_61):
            assert corrected[cid].counterexamples
        assert corrected[CheckId.T12].corrected_reading == TAG_SIGN_FIRST_KIND
        assert corrected[CheckId.EQ59_61].corrected_reading == TAG_SIGN_FIRST_KIND
        assert corrected[CheckId.T13].corrected_reading == TAG_T13_INDEX
        assert corrected[CheckId.POLYC_ORACLE].corrected_reading == TAG_POLYC_INDEX
        # the named subset of the suite must be clean
        named = [cid for cid in CheckId if cid is not CheckId.POLYC_ORACLE]
        assert all(by_id[cid].status in (PASS, PASS_WITH_CORRECTION) for cid in named)


def test_criterion_4_polynomial_identities_coefficientwise():
    with criterion(4, "polynomial identities by exact coefficient vectors, n<=12 k<=4"):
        grid = Grid(n_max=12, k_max=4, alpha_max=3)
        for cid in (CheckId.T4, CheckId.T5, CheckId.T7, CheckId.T8, CheckId.T9,
                    CheckId.T10, CheckId.T12, CheckId.L11):
            report = next(iter(run_suite(grid, checks=[cid])))
            assert report.status in (PASS, PASS_WITH_CORRECTION), cid
        # spot-proof that the comparisons really are coefficient vectors:
        # both computation paths give identical coefficient tuples
        for n in range(13):
            for k in range(1, 5):
                assert (cauchy_hi_poly_sum(CauchyKind.FIRST, n, k).coeffs
                        == bernoulli_hi_poly(n, n - k + 1).reflect().shift(-1).coeffs)
                assert (cauchy_hi_poly_sum(CauchyKind.SECOND, n, k).coeffs
                        == bernoulli_hi_poly(n, n - k + 1).shift(1 - k).coeffs)


def test_criterion_5_power_series_engine_properties():
    with criterion(5, "reversion round trips, Stirling EGFs, Bernoulli additivity"):
        # 50 seeded random delta series at order 12, unit linear coefficient
        rng = random.Random(20130814)
        for _ in range(50):
            tail = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)]
            f = PowerSeries([F(0), F(1)] + tail)
            assert f.compose(f.revert()) == t_series(12)
        # EGF identities for both Stirling kinds, n <= 6 at order 12
        from math import factorial
        for n in range(7):
            log_pow = log1p_series(12) ** n
            exp_pow = expm1_series(12) ** n
            for l in range(12):
                assert log_pow.coefficient(l) == F(
                    factorial(n) * stirling1_signed(l, n), factorial(l))
                assert exp_pow.coefficient(l) == F(
                    factorial(n) * stirling2(l, n), factorial(l))
        # order additivity under binomial convolution, |alpha|,|beta| <= 3, n <= 12
        for alpha in range(-3, 4):
            a = bernoulli_hi_numbers(12, alpha)
            for beta in range(-3, 4):
                b = bernoulli_hi_numbers(12, beta)
                c = bernoulli_hi_numbers(12, alpha + beta)
                for n in range(13):
                    total = sum((comb(n, j) * a[j] * b[n - j] for j in range(n + 1)),
                                F(0))
                    assert total == c[n]


def test_criterion_6_sheffer_consistency():
    with criterion(6, "Sheffer pairs reproduce both polynomial families, n<=10 k<=3"):
        order = 13
        for k in range(1, 4):
            g1 = (t_series(order + 1) / one_minus_exp_neg_series(order + 1)) ** k
            f1 = -one_minus_exp_neg_series(order)
            first = sheffer_polys(g1, f1, 10)
            exp_t = expm1_series(order) + 1
            g2 = ((t_series(order) * exp_t) / expm1_series(order + 1)) ** k
            f2 = expm1_series(order)
            second = sheffer_polys(g2, f2, 10)
            for n in range(11):
                assert first[n].coeffs == cauchy_hi_poly1(n, k).coeffs
                assert second[n].coeffs == cauchy_hi_poly2(n, k).coeffs


_CHECKOUT_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(*argv):
    # the child imports this checkout, not whatever cauchykit is installed
    pythonpath = os.pathsep.join(filter(None, [_CHECKOUT_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cauchykit.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath))


def test_criterion_7_cli_contract():
    with criterion(7, "CLI emits the documented strings and exit codes 0/1/2"):
        expectations = [
            (("table", "--family", "cauchy1", "--n-max", "2", "--format", "csv"),
             "0,1\n1,1/2\n2,-1/6\n"),
            (("table", "--family", "stirling2", "--n-max", "0", "--format", "csv"),
             "0,1\n"),
            (("table", "--family", "cauchy_hi1", "--order", "2", "--n-max", "1",
              "--format", "json"),
             '[{"n":0,"value":"1"},{"n":1,"value":"1"}]\n'),
            (("poly", "--family", "cauchy_hi_poly1", "--n", "1", "--order", "1",
              "--format", "json"), '["1/2","-1"]\n'),
            (("poly", "--family", "bernoulli_hi_poly", "--n", "0", "--alpha", "5",
              "--format", "json"), '["1"]\n'),
            (("poly", "--family", "cauchy_hi_poly2", "--n", "1", "--order", "2",
              "--format", "json"), '["-1","1"]\n'),
            (("series", "cauchy1_gf", "--terms", "3", "--format", "json"),
             '["1","1/2","-1/12"]\n'),
            (("series", "log1p", "--terms", "3", "--format", "json"),
             '["0","1","-1/2"]\n'),
            (("series", "bernoulli_gf(0)", "--terms", "2", "--format", "json"),
             '["1","0"]\n'),
        ]
        for argv, expected in expectations:
            result = _run_cli(*argv)
            assert result.returncode == 0, (argv, result.stderr)
            assert result.stdout == expected, (argv, result.stdout)
        # exit 0 on a passing verification, 2 on usage errors
        ok = _run_cli("verify", "--checks", "T1", "--grid", "n=4,k=2")
        assert ok.returncode == 0
        assert _run_cli("verify", "--checks", "T99").returncode == 2
        assert _run_cli("series", "unknown", "--terms", "1").returncode == 2
        # exit 1 is reserved for genuine verification failures; none of the
        # catalogue fails, so force one through the registry in-process
        from cauchykit import cli as cli_module
        from cauchykit import verifier as verifier_module

        def broken(grid):
            yield {"n": 0}, 0, 1

        import contextlib
        import io

        original = verifier_module._CHECKS[CheckId.T1]
        try:
            verifier_module._CHECKS[CheckId.T1] = original._replace(cases=broken)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = cli_module.main(["verify", "--checks", "T1"])
            assert code == 1
            assert "FAIL" in sink.getvalue()
        finally:
            verifier_module._CHECKS[CheckId.T1] = original


def test_criterion_8_determinism():
    with criterion(8, "two full-suite runs are byte-identical JSON"):
        first = _run_cli("verify", "--format", "json")
        second = _run_cli("verify", "--format", "json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        # pinned: a refactor must leave the default-grid report byte-identical
        assert hashlib.sha256(first.stdout.encode()).hexdigest() == VERIFY_JSON_SHA256
        reports = _SUITE_CACHE.get("reports") or run_suite()
        assert reports_to_json(reports) + "\n" == first.stdout


@pytest.mark.parametrize("grid", sorted(EDGE_GRID_VERIFY_JSON_SHA256))
def test_verify_json_pinned_on_edge_grids(grid):
    result = _run_cli("verify", "--format", "json", "--grid", grid)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == EDGE_GRID_VERIFY_JSON_SHA256[grid]


def test_verify_json_pinned_past_the_default_grid():
    reports = run_suite(Grid(n_max=25, k_max=4, alpha_max=3))
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == WIDE_GRID_JSON_SHA256


def test_verify_json_pinned_on_a_wide_k_alpha_grid():
    reports = run_suite(WIDE_K_ALPHA_GRID)
    corrected = {CheckId.T12, CheckId.T13, CheckId.EQ59_61, CheckId.POLYC_ORACLE}
    assert {r.id: r.status for r in reports} == {
        cid: PASS_WITH_CORRECTION if cid in corrected else PASS for cid in CheckId}
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == WIDE_K_ALPHA_JSON_SHA256


def test_readme_library_examples_print_what_their_comments_say():
    # README's "Library surface" block: expression -> the comment beside it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library surface", 1)[1].split("```")[1]
    comments = {code.strip(): comment for code, comment in
                (line.split("  # ", 1) for line in block.splitlines() if "  # " in line)}
    assert comments["cauchy_hi1(6, 3, CauchyMethod.INTEGRAL_ORACLE)"] == repr(
        cauchy_hi1(6, 3, CauchyMethod.INTEGRAL_ORACLE)) == "Fraction(16, 21)"
    coeffs = cauchy_hi_poly1(2, 2).coeffs
    assert coeffs == (F(1, 6), -1, 1)
    assert comments["cauchy_hi_poly1(2, 2).coeffs"] == (
        f"({', '.join(map(str, coeffs))}), constant first")
    assert comments["bernoulli_hi_poly(4, -2)"] == str(bernoulli_hi_poly(4, -2))
    assert comments["f = log1p_series(12)"] == "truncated at t^12"
    f = log1p_series(12)
    assert f.order == 12
    assert comments["f.revert().compose(f)"] == "the identity series t"
    assert f.revert().compose(f) == t_series(12)
    assert comments["run_suite(Grid(n_max=10, k_max=3, alpha_max=2))"] == (
        "list of TheoremReport")
    reports = run_suite(Grid(n_max=10, k_max=3, alpha_max=2))
    assert isinstance(reports, list)
    assert all(isinstance(report, TheoremReport) for report in reports)
