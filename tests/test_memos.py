"""One ``clear_caches`` over every memo, and the integral-oracle ladder filled cold.

The memos are found in the source: every ``lru_cache`` and the table of every
module-level lock."""

import ast
import importlib
import pathlib
import threading
from fractions import Fraction

import pytest

import cauchykit
from cauchykit import cauchy, stirling
from cauchykit.cauchy import (
    CauchyKind,
    CauchyMethod,
    cauchy_hi,
    cauchy_hi_poly_oracle,
    cauchy_hi_poly_sum,
    clear_caches,
    poly_cauchy_poly,
)
from cauchykit.stirling import StirlingKind, stirling1_unsigned, stirling_table

SRC = pathlib.Path(cauchykit.__file__).parent


def declared_memos():
    """(module, name) of every ``lru_cache``-decorated function in src/."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cauchykit.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    "lru_cache" in ast.unparse(d) for d in node.decorator_list):
                found.append((module, node.name))
    return found


def guarded_tables():
    """(module, name) of the table each module-level ``threading.Lock()`` in src/ guards.

    A lock named ``X_LOCK`` guards the module's ``X``.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"cauchykit.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and ast.unparse(node.value.func).endswith("Lock")):
                for target in node.targets:
                    assert target.id.endswith("_LOCK"), f"{path.name}: {target.id} names no table"
                    found.append((module, target.id.removesuffix("_LOCK")))
    return found


def warm_every_memo():
    cauchykit.cauchy1(4)
    poly_cauchy_poly(CauchyKind.FIRST, 4, 2, Fraction(1, 3))
    cauchykit.cauchy_hi_poly1(4, 2)
    cauchykit.cauchy_hi_poly2(4, 2)
    for method in CauchyMethod:
        cauchykit.cauchy_hi1(4, 2, method)
    stirling1_unsigned(5, 2)
    cauchykit.stirling2(5, 2)


def test_the_source_declares_the_memos_this_test_knows():
    # a memo the scan cannot see would slip past the next test
    names = {(module.__name__, name) for module, name in declared_memos()}
    assert names >= {("cauchykit.cauchy", "_poly_cauchy_moments"),
                     ("cauchykit.cauchy", "cauchy_hi_poly1")}
    assert all(hasattr(getattr(module, name), "cache_clear") for module, name in declared_memos())
    tables = {(module.__name__, name) for module, name in guarded_tables()}
    assert tables >= {("cauchykit.bernoulli", "_ORDERS"), ("cauchykit.cauchy", "_LADDER"),
                      ("cauchykit.cauchy", "_VOLUMES"), ("cauchykit.series", "_POWERS")}
    assert all(hasattr(module, name) for module, name in guarded_tables())


def test_clear_caches_empties_every_memo():
    clear_caches()
    warm_every_memo()
    memos = [getattr(module, name) for module, name in declared_memos()]
    guarded = [getattr(module, name) for module, name in guarded_tables()]
    tables = [stirling_table(kind) for kind in StirlingKind]
    assert all(memo.cache_info().currsize > 0 for memo in memos)
    assert all(guarded) and all(len(table.rows) > 1 for table in tables)
    clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    assert not any(guarded) and all(table.rows == [[1]] for table in tables)


@pytest.mark.parametrize("module, name", guarded_tables(),
                         ids=[f"{module.__name__}.{name}" for module, name in guarded_tables()])
def test_clear_caches_waits_for_each_table_lock(module, name):
    # a clear between two steps of a fill would leave the fill reading a half-built table
    cleared = threading.Event()
    thread = threading.Thread(target=lambda: (clear_caches(), cleared.set()))
    with getattr(module, f"{name}_LOCK"):
        thread.start()
        assert not cleared.wait(0.1)
    thread.join(timeout=10)
    assert cleared.is_set()


def test_a_cleared_memo_gives_the_same_values():
    def values():
        return ([cauchy_hi_poly_oracle(kind, 9, 3) for kind in CauchyKind]
                + [poly_cauchy_poly(kind, 9, 3, Fraction(2, 5)) for kind in CauchyKind]
                + [stirling.stirling1_signed(9, 3), stirling1_unsigned(9, 3)])

    before = values()
    clear_caches()
    assert values() == before


def test_a_cold_ladder_reads_no_stirling_series_or_bernoulli(monkeypatch):
    # the independence of the oracle holds when its memo is filled, not only when it is read
    expected = {(kind, n, k): cauchy_hi_poly_sum(kind, n, k)
                for kind in CauchyKind for n in range(9) for k in range(1, 4)}
    clear_caches()

    def forbidden(*args):
        raise AssertionError("the oracle reached a path it is meant to check")

    for name in ("_stirling_row", "bernoulli_hi_poly", "egf_coeff", "_hi_gf"):
        monkeypatch.setattr(cauchy, name, forbidden)
    for name in ("value", "row", "_grow"):
        monkeypatch.setattr(stirling.StirlingTable, name, forbidden)
    for (kind, n, k), polynomial in expected.items():
        assert cauchy_hi(kind, n, k, CauchyMethod.INTEGRAL_ORACLE) == polynomial.constant
        assert cauchy_hi_poly_oracle(kind, n, k) == polynomial


@pytest.mark.parametrize("kind", list(CauchyKind))
def test_the_ladder_climbs_from_any_held_round(kind):
    # a read above the held round climbs from it, a read below it indexes the held rounds
    clear_caches()
    assert cauchy_hi_poly_oracle(kind, 7, 2) == cauchy_hi_poly_sum(kind, 7, 2)
    assert cauchy_hi_poly_oracle(kind, 7, 5) == cauchy_hi_poly_sum(kind, 7, 5)
    assert cauchy_hi_poly_oracle(kind, 7, 1) == cauchy_hi_poly_sum(kind, 7, 1)
    assert len(cauchy._LADDER[kind, 7]) == 6
