"""Which checks catch a bug inside a shared kernel: one corrupted kernel per row.

``test_each_check_reads_both_of_its_sides`` corrupts names at the verifier's
import boundary.  A bug *inside* a kernel that both sides of a check may
share (the arithmetic layer: products, quotients, shifts, the Stirling
recurrence, ...) can make both sides wrong together and agree.  Each row
corrupts one entry of what one kernel returns (a coefficient, a Stirling
number, a cube volume, a power of a unit; for ``evaluate`` and
``product_integrate``, one coefficient of the input polynomial), only past
the size ``SIZE``, and pins the checks that then fail on ``GRID``.  A change
that empties a row's set, or shrinks it, weakens the verifier.

Every row patches the kernel in every module of the package that binds it,
and starts and ends with every memo cleared, so no value built with a
corrupted kernel outlives its row.

README's table of kernels and the checks that catch them is ``readme_table()``;
``python tests/test_mutation_matrix.py`` prints it.
"""

import importlib
import pathlib
import pkgutil

import pytest

import cauchykit
from cauchykit import bernoulli, cauchy, polynomial, series, stirling, verifier
from cauchykit.cauchy import clear_caches
from cauchykit.polynomial import Polynomial, _Numerators
from cauchykit.series import PowerSeries
from cauchykit.stirling import StirlingKind
from cauchykit.verifier import FAIL, CheckId, Grid, run_suite

GRID = Grid(n_max=8, k_max=3, alpha_max=2)
SIZE = 4

MODULES = [cauchykit, *(importlib.import_module(f"cauchykit.{info.name}")
                        for info in pkgutil.iter_modules(cauchykit.__path__))]


def _bump(nums) -> list:
    """nums with entry 2 raised by one, once there are more than SIZE of them."""
    nums = list(nums)
    if len(nums) > SIZE:
        nums[2] += 1
    return nums


def _bump_value(value):
    """A polynomial or series with ``_bump`` applied to its numerators."""
    return type(value).from_numerators(_bump(value.numerators), value.denominator)


def _list_output(kernel):
    return lambda *args: _bump(kernel(*args))


def _output(kernel):
    return lambda *args: _bump_value(kernel(*args))


def _first_input(kernel):
    return lambda p, *args: kernel(_bump_value(p), *args)


def _next_row_of(kind):
    def corrupt(kernel):
        return lambda k, prev, ints: (_bump(kernel(k, prev, ints)) if k is kind
                                      else kernel(k, prev, ints))
    return corrupt


def _volume(kernel):
    return lambda l, k: kernel(l, k) + (l > SIZE)


def _quotient(kernel):
    def corrupt(*args):
        nums, den = kernel(*args)
        return _bump(nums), den
    return corrupt


def _undivided(kernel):
    # entry 2 keeps the common factor that the others lose
    def corrupt(nums, den):
        out, d = kernel(nums, den)
        if len(out) > SIZE and d != den:
            out = (*out[:2], nums[2], *out[3:])
        return out, d
    return corrupt


# (row id, owner of the kernel, its name, the modules besides the owner that
#  bind it, the corruption, the checks that must fail on GRID in suite order)
ROWS = [
    ("_convolve", polynomial, "_convolve", [series], _list_output,
     "T1 T3 T4 T6 T7 T13 EQ6 EQ7 EQ19 EQ28 EQ52 EQ53 EQ58"),
    ("next_row-signed-first", stirling, "next_row", [], _next_row_of(StirlingKind.SIGNED_FIRST),
     "T2 T4 T5 T7 T8 T9 T10 L11 T12 T13 EQ6 EQ52 EQ53 EQ58 EQ59_61 POLYC_ORACLE"),
    ("next_row-second", stirling, "next_row", [], _next_row_of(StirlingKind.SECOND),
     "T3 T5 T6 T8 T12 EQ7 EQ59_61"),
    ("revert", PowerSeries, "revert", [], _output, "T13 EQ52 EQ53"),
    ("compose", PowerSeries, "compose", [], _output, "T13 EQ52 EQ53"),
    ("shift", Polynomial, "shift", [], _output,
     "T2 T4 T7 T8 L11 T12 EQ19 EQ28 EQ59_61 POLYC_ORACLE"),
    ("evaluate", Polynomial, "evaluate", [], _first_input, "T1 T3 T6 T13 POLYC_ORACLE"),
    ("_divide_ints", series, "_divide_ints", [], _quotient,
     "T1 T3 T4 T6 T7 T13 EQ19 EQ28 EQ52 EQ53 EQ58"),
    ("_factorial_poly", polynomial, "_factorial_poly", [], _output,
     "T2 T4 T7 T12 EQ58 EQ59_61 POLYC_ORACLE"),
    ("_sum_power_volume", cauchy, "_sum_power_volume", [], _volume,
     "T2 T4 T5 T7 T8 T12 T13 EQ52 EQ53 EQ58 EQ59_61"),
    ("antiderivative", Polynomial, "antiderivative", [], _output, "T2 T4 T7"),
    ("_linear_combination", polynomial, "_linear_combination", [verifier], _output,
     "T5 T8 T9 T10 T13 EQ58"),
    ("_lowest_terms", polynomial, "_lowest_terms", [series], _undivided,
     " ".join(c.value for c in CheckId)),
    ("_power", _Numerators, "_power", [], _output,
     "T1 T3 T4 T6 T7 T13 EQ19 EQ28 EQ52 EQ53 EQ58"),
    ("product_integrate", cauchy, "product_integrate", [cauchykit, verifier], _first_input,
     "POLYC_ORACLE"),
    ("_unit_power", series, "_unit_power", [bernoulli, cauchy], _output,
     "T1 T3 T4 T6 T7 T13 EQ19 EQ28"),
]


def _failing(monkeypatch, owner, name, others, corrupt) -> set[str]:
    clear_caches()
    try:
        with monkeypatch.context() as patch:
            bad = corrupt(getattr(owner, name))
            for target in (owner, *others):
                patch.setattr(target, name, bad)
            return {r.id.value for r in run_suite(GRID) if r.status == FAIL}
    finally:
        clear_caches()


@pytest.mark.parametrize("owner, name, others, corrupt, failing",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_a_corrupted_kernel_fails_its_checks(monkeypatch, owner, name, others, corrupt,
                                             failing):
    assert failing
    assert _failing(monkeypatch, owner, name, others, corrupt) == set(failing.split())


@pytest.mark.parametrize("owner, name, others", [row[1:4] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_each_row_patches_every_binding(owner, name, others):
    # a module that imports the kernel under its own name would keep the
    # sound copy and hide the corruption from the checks that call it there
    kernel = getattr(owner, name)
    bound = [module for module in MODULES if module is not owner and
             any(value is kernel for value in vars(module).values())]
    assert bound == others


def readme_table() -> str:
    """The README's markdown table: each row's kernel and the checks that catch it."""
    lines = ["| corrupted kernel | checks that fail on `Grid(8, 3, 2)` |", "| --- | --- |"]
    lines += [f"| `{row[0]}` | {row[5]} |" for row in ROWS]
    return "\n".join(lines) + "\n"


def test_the_readme_table_is_generated_from_the_rows():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert readme_table() in readme.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(readme_table(), end="")
