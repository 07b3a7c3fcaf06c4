"""The verifier's records as callers see them.

Construction and defaults, value equality and hashing, immutability, the
repr, pickling, ``vacuous``, and the exact JSON and text of a failing report
whose corrected reading and counterexamples the default grid never produces.
"""

import pickle
from fractions import Fraction

import pytest

from cauchykit.verifier import (
    DEFAULT_GRID,
    FAIL,
    PASS,
    TAG_SIGN_FIRST_KIND,
    CheckId,
    Counterexample,
    Grid,
    TheoremReport,
    reports_to_json,
    reports_to_text,
)

X_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 7))


def _failing_report() -> TheoremReport:
    grid = Grid(2, 1, 1, (Fraction(0), Fraction(-5, 3)))
    counterexamples = (
        Counterexample({"n": 1, "k": 1, "form": "first_kind"}, "[0,-1]", "[0,1]"),
        Counterexample({"n": 2, "k": 1, "z": "-1/2"}, "1/2", "-1/3"),
    )
    return TheoremReport(CheckId.T12, grid, FAIL, 7, counterexamples, TAG_SIGN_FIRST_KIND)


def _vacuous_report() -> TheoremReport:
    return TheoremReport(CheckId.T1, Grid(-1), PASS, 0)


def test_construction_by_position_and_keyword_and_the_defaults():
    assert (DEFAULT_GRID.n_max, DEFAULT_GRID.k_max, DEFAULT_GRID.alpha_max) == (15, 4, 3)
    assert DEFAULT_GRID.x_samples == X_SAMPLES
    assert Grid() == DEFAULT_GRID
    grid = Grid(6, 2)
    assert grid == Grid(n_max=6, k_max=2) == Grid(6, k_max=2, alpha_max=3, x_samples=X_SAMPLES)
    assert (grid.n_max, grid.k_max, grid.alpha_max) == (6, 2, 3)
    assert list(Grid(2, 1, 0).ns()) == [0, 1, 2] and list(Grid(2, 1, 0).alphas()) == []

    ce = Counterexample({"n": 0}, "0", "1")
    assert ce == Counterexample(params={"n": 0}, lhs="0", rhs="1")
    assert (ce.params, ce.lhs, ce.rhs) == ({"n": 0}, "0", "1")

    report = TheoremReport(CheckId.T1, grid, PASS, 4)
    assert report == TheoremReport(id=CheckId.T1, grid=grid, status=PASS, cases_checked=4)
    assert report.counterexamples == () and report.corrected_reading is None
    assert TheoremReport(CheckId.T2, grid, FAIL, 4, (ce,), "x").corrected_reading == "x"

    with pytest.raises(TypeError):
        Grid(n=3)
    with pytest.raises(TypeError):
        Grid(1, 2, 3, X_SAMPLES, 5)
    with pytest.raises(TypeError):
        Counterexample({"n": 0}, "0")
    with pytest.raises(TypeError):
        TheoremReport(CheckId.T1, grid, PASS)


def test_value_equality_and_hash():
    assert Grid(6, 2, 2) == Grid(6, 2, 2) and hash(Grid(6, 2, 2)) == hash(Grid(6, 2, 2))
    assert Grid(6, 2, 2) != Grid(6, 2, 3)
    assert len({Grid(6, 2, 2), Grid(6, 2, 2), DEFAULT_GRID}) == 2
    assert _failing_report() == _failing_report()
    assert _vacuous_report() != TheoremReport(CheckId.T1, Grid(-1), PASS, 1)
    assert hash(_vacuous_report()) == hash(_vacuous_report())
    # a counterexample holds its parameters as a dict, so it does not hash
    with pytest.raises(TypeError):
        hash(_failing_report())


@pytest.mark.parametrize("record", [DEFAULT_GRID, Counterexample({"n": 0}, "0", "1"),
                                    _failing_report()],
                         ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    name = record.__class__.__name__
    field = {"Grid": "n_max", "Counterexample": "lhs", "TheoremReport": "status"}[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.note = "new"
    assert getattr(record, field) == before


def test_grid_repr():
    assert repr(DEFAULT_GRID) == (
        "Grid(n_max=15, k_max=4, alpha_max=3, x_samples=(Fraction(0, 1), Fraction(1, 1), "
        "Fraction(-1, 1), Fraction(1, 2), Fraction(-3, 7)))")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for record in (DEFAULT_GRID, _failing_report(), _vacuous_report()):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record) and copy == record
        assert type(copy.grid if isinstance(copy, TheoremReport) else copy) is Grid
    report = pickle.loads(pickle.dumps(_failing_report(), protocol))
    assert all(type(ce) is Counterexample for ce in report.counterexamples)
    assert report.id is CheckId.T12


def test_vacuous():
    assert _vacuous_report().vacuous
    assert not _failing_report().vacuous


def test_failing_report_json_bytes():
    assert reports_to_json([_failing_report(), _vacuous_report()]) == (
        '[{"id":"T12","grid":{"n_max":2,"k_max":1,"alpha_max":1,"x_samples":["0","-5/3"]},'
        '"status":"fail","cases_checked":7,"counterexamples":['
        '{"params":{"n":1,"k":1,"form":"first_kind"},"lhs":"[0,-1]","rhs":"[0,1]"},'
        '{"params":{"n":2,"k":1,"z":"-1/2"},"lhs":"1/2","rhs":"-1/3"}],'
        '"corrected_reading":"first-kind umbral expansion sign (-1)^(k-m) read as (-1)^m '
        '(stray (-1)^k dropped)"},'
        '{"id":"T1","grid":{"n_max":-1,"k_max":4,"alpha_max":3,'
        '"x_samples":["0","1","-1","1/2","-3/7"]},'
        '"status":"pass","cases_checked":0,"counterexamples":[]}]')
    assert reports_to_json([]) == "[]"


def test_failing_report_text_bytes():
    assert reports_to_text([_failing_report(), _vacuous_report()]) == (
        "T12           fail                         cases=7\n"
        "    corrected reading: first-kind umbral expansion sign (-1)^(k-m) read as (-1)^m "
        "(stray (-1)^k dropped)\n"
        "    printed form fails at n=1, k=1, form=first_kind: [0,-1] != [0,1]\n"
        "    printed form fails at n=2, k=1, z=-1/2: 1/2 != -1/3\n"
        "T1            pass (vacuous)               cases=0\n"
        "result: FAIL T12")
