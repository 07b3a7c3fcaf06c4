"""Verifier behaviour: statuses, corrected readings, reports, determinism."""

import json
import pickle
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from cauchykit import cauchy, series, verifier
from cauchykit.cauchy import CauchyKind, cauchy_hi_poly1, cauchy_hi_poly2, clear_caches
from cauchykit.polynomial import Polynomial
from cauchykit.series import (PowerSeries, connection_coeffs, expm1_series,
                              one_minus_exp_neg_series, sheffer_polys, t_series)
from cauchykit.verifier import (
    FAIL,
    PASS,
    PASS_WITH_CORRECTION,
    TAG_POLYC_INDEX,
    TAG_SIGN_FIRST_KIND,
    TAG_T13_INDEX,
    DEFAULT_GRID,
    CheckId,
    Counterexample,
    Grid,
    TheoremReport,
    reports_to_json,
    reports_to_text,
    run_suite,
    suite_exit_code,
    verify,
)

SMALL = Grid(n_max=6, k_max=2, alpha_max=2)

# what each check is expected to report on any nonempty grid
EXPECTED_STATUS = {
    CheckId.T1: PASS,
    CheckId.T2: PASS,
    CheckId.T3: PASS,
    CheckId.T4: PASS,
    CheckId.T5: PASS,
    CheckId.T6: PASS,
    CheckId.T7: PASS,
    CheckId.T8: PASS,
    CheckId.T9: PASS,
    CheckId.T10: PASS,
    CheckId.L11: PASS,
    CheckId.T12: PASS_WITH_CORRECTION,
    CheckId.T13: PASS_WITH_CORRECTION,
    CheckId.EQ6: PASS,
    CheckId.EQ7: PASS,
    CheckId.EQ19: PASS,
    CheckId.EQ28: PASS,
    CheckId.EQ52: PASS,
    CheckId.EQ53: PASS,
    CheckId.EQ58: PASS,
    CheckId.EQ59_61: PASS_WITH_CORRECTION,
    CheckId.POLYC_ORACLE: PASS_WITH_CORRECTION,
}

EXPECTED_READING = {
    CheckId.T12: TAG_SIGN_FIRST_KIND,
    CheckId.T13: TAG_T13_INDEX,
    CheckId.EQ59_61: TAG_SIGN_FIRST_KIND,
    CheckId.POLYC_ORACLE: TAG_POLYC_INDEX,
}


@pytest.mark.parametrize("check_id", list(CheckId), ids=lambda c: c.value)
def test_expected_status_on_small_grid(check_id):
    report = verify(check_id, SMALL)
    assert report.status == EXPECTED_STATUS[check_id]
    assert report.cases_checked > 0
    assert report.corrected_reading == EXPECTED_READING.get(check_id)
    if report.status == PASS:
        assert report.counterexamples == ()


def test_corrected_checks_record_printed_form_counterexamples():
    for check_id in (CheckId.T12, CheckId.T13, CheckId.EQ59_61):
        report = verify(check_id, SMALL)
        assert report.counterexamples, check_id
    # the poly-Cauchy check has no executable printed form, only the reading
    assert verify(CheckId.POLYC_ORACLE, SMALL).counterexamples == ()


def test_minimal_counterexample_reproduces_standalone():
    report = verify(CheckId.T12, SMALL)
    first = report.counterexamples[0]
    assert first.params == {"n": 0, "k": 1, "form": "first_kind"}
    # re-derive the printed form at that point: sum reduces to -S2(1,1) = -1
    # while the true polynomial is the constant 1
    assert first.lhs == "[-1]"
    assert first.rhs == "[1]"
    assert cauchy_hi_poly1(0, 1) == Polynomial.one()


def test_vacuous_grid_passes_with_zero_cases():
    report = verify(CheckId.T1, Grid(n_max=-1, k_max=4, alpha_max=3))
    assert report.status == PASS
    assert report.cases_checked == 0
    assert report.vacuous
    assert "vacuous" in reports_to_text([report])


@pytest.mark.parametrize("empty", [
    Grid(n_max=-1, k_max=0, alpha_max=0),
    Grid(n_max=-1, k_max=4, alpha_max=3),
    *(Grid(n_max=n) for n in range(-2, -6, -1)),
    Grid(n_max=-4, k_max=-1, alpha_max=-2),
], ids=["all-empty", "empty-n", *(f"n={n}" for n in range(-2, -6, -1)), "all-negative"])
def test_all_checks_tolerate_empty_grid(empty):
    # below n = -2 EQ6/EQ7 used to build a series of order n_max + 3 < 1 and raise
    reports = run_suite(empty)
    assert [r.id for r in reports] == list(CheckId)
    for report in reports:
        assert report.status in (PASS, PASS_WITH_CORRECTION)
        assert report.cases_checked == 0


def test_empty_k_range_leaves_only_k_free_checks():
    # EQ6/EQ7 sweep n alone; every other check is k-dependent and goes vacuous
    for report in run_suite(Grid(n_max=6, k_max=0, alpha_max=3)):
        assert report.status in (PASS, PASS_WITH_CORRECTION)
        if report.id in (CheckId.EQ6, CheckId.EQ7):
            assert report.cases_checked > 0
        else:
            assert report.cases_checked == 0


def test_trivial_grid_passes():
    for report in run_suite(Grid(n_max=0, k_max=1, alpha_max=1)):
        assert report.status != FAIL


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError, match="unknown check id"):
        verify("T99")


@pytest.mark.parametrize("checks", [["T1", "T2"], [CheckId.T1, "bogus"]],
                         ids=["values", "one-unknown"])
def test_run_suite_rejects_unknown_check_ids(checks):
    # a selection entry that is not a CheckId used to be dropped without a word
    with pytest.raises(ValueError, match="unknown check id"):
        run_suite(SMALL, checks=checks)


def test_selection_yields_single_report():
    reports = run_suite(SMALL, checks=[CheckId.T1])
    assert [r.id for r in reports] == [CheckId.T1]


def test_suite_order_is_declaration_order():
    reports = run_suite(SMALL, checks=[CheckId.EQ6, CheckId.T2, CheckId.T13])
    assert [r.id for r in reports] == [CheckId.T2, CheckId.T13, CheckId.EQ6]


def test_readme_table_lists_the_registry_ids():
    # the registry defines CheckId; README's suite table is the one other list
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## The verification suite\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("|")]
    assert rows[:2] == ["check", "---"]
    assert [cid for row in rows[2:] for cid in row.split(" / ")] == [c.value for c in CheckId]
    # built from the registry, the enum still pickles by name and documents itself
    assert all(pickle.loads(pickle.dumps(c)) is c for c in CheckId)
    assert CheckId.__module__ == "cauchykit.verifier"
    assert CheckId.__doc__ == "Identifiers of the executable identity checks, in suite order."


def test_exit_code_semantics():
    passing = TheoremReport(CheckId.T1, SMALL, PASS, 4)
    corrected = TheoremReport(CheckId.T12, SMALL, PASS_WITH_CORRECTION, 4,
                              corrected_reading="x")
    failing = TheoremReport(CheckId.T2, SMALL, FAIL, 4,
                            (Counterexample({"n": 0}, "0", "1"),))
    assert suite_exit_code([passing, corrected]) == 0
    assert suite_exit_code([passing, failing]) == 1


def test_json_schema_and_omitted_reading():
    reports = run_suite(SMALL, checks=[CheckId.T1, CheckId.T12])
    parsed = json.loads(reports_to_json(reports))
    assert [obj["id"] for obj in parsed] == ["T1", "T12"]
    for obj in parsed:
        assert set(obj) <= {"id", "grid", "status", "cases_checked",
                            "counterexamples", "corrected_reading"}
        assert obj["grid"] == {"n_max": 6, "k_max": 2, "alpha_max": 2,
                               "x_samples": ["0", "1", "-1", "1/2", "-3/7"]}
    assert "corrected_reading" not in parsed[0]
    assert parsed[1]["corrected_reading"] == TAG_SIGN_FIRST_KIND
    assert parsed[1]["counterexamples"][0]["params"] == {
        "n": 0, "k": 1, "form": "first_kind"}


def test_reports_are_deterministic():
    first = reports_to_json(run_suite(SMALL))
    second = reports_to_json(run_suite(SMALL))
    assert first == second


def test_a_check_reads_the_same_alone_as_in_the_suite():
    # checks are independent of each other and of execution order: from cold
    # memos, each check run alone and the suite run backwards report what the
    # suite reports, although each fills the memos in its own order
    grid = Grid(n_max=8, k_max=3, alpha_max=2)
    clear_caches()
    suite = reports_to_json(run_suite(grid))
    alone = []
    for cid in CheckId:
        clear_caches()
        alone.append(verify(cid, grid))
    clear_caches()
    backwards = [verify(cid, grid) for cid in reversed(CheckId)]
    clear_caches()
    assert reports_to_json(alone) == suite
    assert reports_to_json(reversed(backwards)) == suite


def test_t13_reading_stable_across_alpha_ranges():
    for alpha_max in (1, 2, 3):
        report = verify(CheckId.T13, Grid(n_max=5, k_max=2, alpha_max=alpha_max))
        assert report.status == PASS_WITH_CORRECTION
        assert report.corrected_reading == TAG_T13_INDEX


def test_reciprocity_m0_term_vanishes_structurally():
    # the m=0 term of the reciprocity sums carries comb(n-1, n) = 0 for n >= 1,
    # so starting the sum at m=0 or m=1 is the same statement
    for n in range(1, 13):
        assert comb(n - 1, n) == 0
    for n in range(1, 8):
        for k in (1, 2):
            from0 = Polynomial.zero()
            from1 = Polynomial.zero()
            for m in range(0, n + 1):
                term = cauchy_hi_poly2(m, k) * comb(n - 1, n - m)
                from0 = from0 + term
                if m >= 1:
                    from1 = from1 + term
            assert from0 == from1


def test_text_rendering_mentions_failures():
    failing = TheoremReport(CheckId.T2, SMALL, FAIL, 4,
                            (Counterexample({"n": 1, "k": 2}, "1/2", "1/3"),))
    text = reports_to_text([failing])
    assert "FAIL" in text
    assert "n=1, k=2" in text and "1/2 != 1/3" in text


def test_a_counterexample_past_the_int_text_limit_is_reported_in_full(monkeypatch):
    # Python refuses int-to-str past 4300 digits by default; a failing case
    # must still come back as a ``fail`` report, not as a ValueError
    def huge(grid):
        yield {"n": 0}, Fraction(10 ** 5000), Fraction(0)

    monkeypatch.setitem(verifier._CHECKS, CheckId.T1,
                        verifier._CHECKS[CheckId.T1]._replace(cases=huge))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    report = verify(CheckId.T1, SMALL)
    assert report.status == FAIL
    assert report.counterexamples[0].lhs == "1" + "0" * 5000
    assert report.counterexamples[0].rhs == "0"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_t13_builds_each_connection_matrix_once(monkeypatch):
    # the printed and the corrected reading share one matrix per (alpha, k),
    # and every matrix reads the one reversion of f = e^t - 1
    calls = []
    original = verifier.connection_coeffs

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    reverts = []
    original_revert = PowerSeries.revert

    def counting_revert(self):
        reverts.append(self.order)
        return original_revert(self)

    monkeypatch.setattr(verifier, "connection_coeffs", counting)
    monkeypatch.setattr(PowerSeries, "revert", counting_revert)
    report = verify(CheckId.T13)
    assert report.status == PASS_WITH_CORRECTION
    assert len(calls) == DEFAULT_GRID.k_max * DEFAULT_GRID.alpha_max == 12
    assert len(reverts) == 1


def test_a_cold_default_verify_reverts_three_times_and_composes_four(monkeypatch):
    # one reversion per Sheffer frame (EQ52, EQ53, T13) and one composition per
    # unit: the Cauchy unit in each frame and T13's Bernoulli unit, never one per power
    calls = []
    for name in ("revert", "compose"):
        original = getattr(PowerSeries, name)
        monkeypatch.setattr(PowerSeries, name, lambda self, *args, _name=name, _original=original:
                            calls.append(_name) or _original(self, *args))
    clear_caches()
    run_suite()
    assert Counter(calls) == {"revert": 3, "compose": 4}


@pytest.mark.parametrize("kind", list(CauchyKind))
def test_the_sheffer_frame_gives_the_printed_pairs_sequence(kind):
    # EQ52, EQ53 and T13 read powers of one frame; the public route builds each
    # printed pair (u^k, f) and reverts and composes it whole
    order = 14
    if kind is CauchyKind.FIRST:
        unit = t_series(order + 1) / one_minus_exp_neg_series(order + 1)
        f = -one_minus_exp_neg_series(order)
    else:
        unit = (t_series(order) * (expm1_series(order) + 1)) / expm1_series(order + 1)
        f = expm1_series(order)
    inverse, fbar = verifier._sheffer_frame(kind, order)
    for k in range(1, 5):
        rows = connection_coeffs(inverse ** k, fbar, 12)
        assert [Polynomial(row) for row in rows] == sheffer_polys(unit ** k, f, 12), k


def test_verifier_imports_no_private_series_name():
    # the verifier reads the series layer through its public functions only
    private = {name for name, obj in vars(series).items()
               if name.startswith("_") and not name.startswith("__")
               and getattr(obj, "__module__", None) == series.__name__}
    assert "_unit_power" in private
    assert not private & set(vars(verifier))


def test_t13_builds_each_bernoulli_basis_once(monkeypatch):
    # one basis list per alpha for both readings, not one polynomial per (n, m)
    calls = []
    original = verifier.bernoulli_hi_poly

    def counting(n, alpha):
        calls.append((n, alpha))
        return original(n, alpha)

    monkeypatch.setattr(verifier, "bernoulli_hi_poly", counting)
    report = verify(CheckId.T13)
    assert report.status == PASS_WITH_CORRECTION
    assert len(calls) == len(DEFAULT_GRID.ns()) * len(DEFAULT_GRID.alphas()) == 48


def test_each_check_makes_one_pass(monkeypatch):
    # both readings of T12 are settled from one run of its cases
    calls = []
    original = verifier.cauchy_hi_poly1

    def counting(n, k):
        calls.append((n, k))
        return original(n, k)

    monkeypatch.setattr(verifier, "cauchy_hi_poly1", counting)
    report = verify(CheckId.T12)
    assert report.status == PASS_WITH_CORRECTION
    assert len(calls) == len(DEFAULT_GRID.ns()) * len(DEFAULT_GRID.ks()) == 64


def test_t3_reads_each_bernoulli_value_once(monkeypatch):
    # one B_n^(n-k+1)(1) per (n, k), not one per term of every sum over n <= m
    calls = []
    original = verifier.bernoulli_hi_poly

    def counting(n, alpha):
        calls.append((n, alpha))
        return original(n, alpha)

    monkeypatch.setattr(verifier, "bernoulli_hi_poly", counting)
    assert verify(CheckId.T3).status == PASS
    assert len(calls) == len(set(calls)) == len(DEFAULT_GRID.ns()) * len(DEFAULT_GRID.ks()) == 64


def test_polyc_shifts_each_factorial_once_per_sample(monkeypatch):
    # (x)_n and (-x)_n are shifted once per (n, z) and reused for every k
    calls = []
    original = Polynomial.shift

    def counting(self, offset):
        calls.append(offset)
        return original(self, offset)

    monkeypatch.setattr(Polynomial, "shift", counting)
    assert verify(CheckId.POLYC_ORACLE).status == PASS_WITH_CORRECTION
    assert len(calls) == 2 * len(DEFAULT_GRID.ns()) * len(DEFAULT_GRID.x_samples) == 160


def test_oracles_build_each_value_once(monkeypatch):
    # from cold memos, POLYC sums one z-polynomial per (kind, n, k), and T2, T4
    # and T7 integrate each coordinate of each (kind, n) ladder once
    clear_caches()
    moments, rounds = [], []
    original_moments, original_antiderivative = cauchy._shifted_moments, Polynomial.antiderivative
    monkeypatch.setattr(cauchy, "_shifted_moments",
                        lambda *args: moments.append(args[:2]) or original_moments(*args))
    monkeypatch.setattr(Polynomial, "antiderivative",
                        lambda self: rounds.append(self) or original_antiderivative(self))
    cells = 2 * len(DEFAULT_GRID.ns()) * len(DEFAULT_GRID.ks())
    assert verify(CheckId.POLYC_ORACLE).status == PASS_WITH_CORRECTION
    assert len(moments) == cells == 128
    assert all(verify(check).status == PASS for check in (CheckId.T2, CheckId.T4, CheckId.T7))
    assert len(rounds) == cells == 128


def test_a_cold_default_verify_sums_each_triple_sum_once(monkeypatch):
    # every check reads the memoised polynomials, so each (kind, n, k) triple
    # sum is summed once: 64 per kind, and T13's 48 second-kind ones at
    # k + alpha > k_max; POLYC's 128 z-polynomials make up the rest
    clear_caches()
    moments, sums = [], []
    original_moments, original_sum = cauchy._shifted_moments, cauchy.cauchy_hi_poly_sum
    monkeypatch.setattr(cauchy, "_shifted_moments",
                        lambda *args: moments.append(args[:2]) or original_moments(*args))
    monkeypatch.setattr(cauchy, "cauchy_hi_poly_sum",
                        lambda *args: sums.append(args) or original_sum(*args))
    run_suite()
    assert len(sums) == len(set(sums)) == 2 * 64 + 48 == 176
    assert len(moments) == 176 + 128 == 304


def test_no_reading_hides_a_bug(monkeypatch):
    # at n <= 2 a second-kind formula with S2 in place of the signed S1
    # agrees with the true one, so a fallback reading of that kind would
    # turn this corruption into a pass_with_correction
    monkeypatch.setattr(verifier, "poly_cauchy_poly2",
                        _plus_one(verifier.poly_cauchy_poly2))
    report = verify(CheckId.POLYC_ORACLE, Grid(n_max=2, k_max=2, alpha_max=1))
    assert report.status == FAIL
    assert report.corrected_reading is None


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _each_plus_one(fn):
    return lambda *args: [value + 1 for value in fn(*args)]


def _off_by_one_at_3_2(fn):
    return lambda n, l: fn(n, l) + ((n, l) == (3, 2))


@pytest.mark.parametrize("name, corrupt, failing", [
    ("cauchy_hi_poly1", _plus_one,
     {"T4", "T5", "T9", "T10", "L11", "T12", "EQ52", "EQ58", "EQ59_61"}),
    ("cauchy_hi_poly2", _plus_one,
     {"T7", "T8", "T9", "T10", "L11", "T12", "T13", "EQ53", "EQ59_61"}),
    ("stirling2", _off_by_one_at_3_2,
     {"T3", "T5", "T6", "T8", "T12", "EQ7", "EQ59_61"}),
    ("stirling1_signed", _off_by_one_at_3_2, {"T13", "EQ6", "EQ58"}),
    ("falling_factorial", _plus_one, {"T12", "EQ59_61", "POLYC_ORACLE"}),
    ("cauchy_hi_poly_bridge", _plus_one, {"T4", "T7"}),
    ("poly_cauchy_poly1", _plus_one, {"POLYC_ORACLE"}),
    ("poly_cauchy_poly2", _plus_one, {"POLYC_ORACLE"}),
    ("product_integrate", _plus_one, {"POLYC_ORACLE"}),
    ("_linear_combination", _plus_one, {"T5", "T8", "T9", "T10", "T13", "EQ58"}),
    ("cauchy1_gf", _plus_one, {"EQ19", "EQ28"}),
    ("bernoulli_hi_poly", _plus_one, {"T1", "T3", "T13", "EQ19", "EQ28"}),
    ("cauchy_hi_numbers", _each_plus_one, {"T3", "T6"}),
], ids=["cauchy_hi_poly1", "cauchy_hi_poly2", "stirling2", "stirling1_signed",
        "falling_factorial", "cauchy_hi_poly_bridge", "poly_cauchy_poly1", "poly_cauchy_poly2",
        "product_integrate", "_linear_combination", "cauchy1_gf", "bernoulli_hi_poly",
        "cauchy_hi_numbers"])
def test_each_check_reads_both_of_its_sides(monkeypatch, name, corrupt, failing):
    # a corrupted input must fail every check that reads it on either side;
    # a check whose two sides both came from one path would stay green
    monkeypatch.setattr(verifier, name, corrupt(getattr(verifier, name)))
    reports = run_suite(SMALL)
    assert {r.id.value for r in reports if r.status == FAIL} == failing
