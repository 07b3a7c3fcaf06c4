"""The names that ``perfbench`` reads from the package.

``perfbench/agent.py`` reads memo statistics by attribute, counts calls by
(module, function name) from cProfile entries, and calls public functions
by name.  A renamed or deleted name would make a ``cache_info()`` read
crash, or a call counter silently read 0, so each one is pinned here.
"""

import runpy
from pathlib import Path

import pytest

import cauchykit
from cauchykit import bernoulli, cauchy, polynomial, series, stirling


@pytest.mark.parametrize("memo", [cauchy.cauchy_hi_poly1, cauchy.cauchy_hi_poly2,
                                  cauchy._sum_power_volume],
                         ids=["cauchy_hi_poly1", "cauchy_hi_poly2", "_sum_power_volume"])
def test_memo_statistics_are_readable(memo):
    info = memo.cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("kind", list(stirling.StirlingKind))
def test_stirling_tables_expose_their_rows(monkeypatch, kind):
    # stirling.rows sums len(rows): past the rows held whole it still counts every row built
    fresh = {k: stirling.StirlingTable(k) for k in stirling.StirlingKind}
    monkeypatch.setattr(stirling, "_TABLES", fresh)
    assert len(stirling.stirling_table(kind).rows) == 1
    stirling.stirling_table(kind).value(301, 0)
    assert len(stirling.stirling_table(kind).rows) == 302


# (module, owner, function name) of each live call counter
COUNTED = [
    (stirling, stirling.StirlingTable, "value"),
    (bernoulli, bernoulli, "bernoulli_hi_poly"),
    (cauchy, cauchy, "cube_integrate"),
    *[(series, series.PowerSeries, name)
      for name in ("revert", "compose", "__mul__", "__truediv__", "__pow__")],
    (polynomial, polynomial.Polynomial, "__mul__"),
    (polynomial, polynomial.Polynomial, "shift"),
]


@pytest.mark.parametrize("module, owner, name", COUNTED,
                         ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{n}" for m, _, n in COUNTED])
def test_counted_functions_are_defined_where_they_are_counted(module, owner, name):
    # a counter matches the profiled code's file stem and co_name
    code = getattr(owner, name).__code__
    assert code.co_name == name
    assert Path(code.co_filename).resolve() == Path(module.__file__).resolve()


def _stream_names() -> list[str]:
    # perfbench/run.py is run from its path (no bytecode written), so the list follows the stream
    run = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "run.py"))
    return sorted({call[0] for call in run["library_stream"](0)})


# the names perfbench reads to resolve and check the stream, besides the stream's own
CHECKED = ["CauchyMethod", "Polynomial", "bernoulli_hi_number", "falling_factorial",
           "parse_rational", "product_integrate", "stirling1_signed", "stirling1_unsigned"]


@pytest.mark.parametrize("name", sorted(set(_stream_names()) | set(CHECKED)))
def test_public_names_the_stream_calls_are_exported(name):
    assert callable(getattr(cauchykit, name))
