"""Stirling numbers of both kinds.

Each kind has one recurrence, ``next_row``, which builds row n from row
n-1 in any ring that holds the integers: Python ints for the memo tables,
exact ``decimal.Decimal`` integers for the CLI, which renders them in
linear time.  ``stirling_rows`` walks the recurrence and keeps only the
current row; it builds the ring's small integers once, so no entry
converts an int into the ring.

Triangles are filled row by row and memoised, one table per kind, so dense
sweeps cost amortised O(1) per query.  Indices outside the triangle
(l < 0 or l > n, or n < 0) return 0, matching the over-wide summation
ranges of the identities verified elsewhere.

A table builds every row but holds row n whole only when n < 128 or n is a
multiple of 4, its checkpoints; it holds ``None`` for every other row.
That keeps about a quarter of the full triangle: ``stirling2(1000, 5)``
peaks at about 66 MB in place of 212 MB.  The prefix of 128 covers the
verifier's term-by-term reads, which stay at n <= 104 on grids to n = 100,
so they never walk.  A ``value`` read on a dropped row n walks columns
l-d..l of the checkpoint n-d (d = n % 4) forward through ``next_row`` on a
zero-padded band: at most 3 calls on 5 entries, whatever n and l are.  A
``row`` read on a dropped row rebuilds it from its checkpoint, or from the
last row built when that is nearer, and keeps it as the last row built, so
sequential row reads cost one ``next_row`` step each, and none for the row
that growth has just built.

Tables mutate only while growing, and they grow under a per-table lock:
a ``value`` or ``row`` read whose row already exists takes no lock, and
rows are built in full before they are appended, so concurrent first use
from several threads yields the same triangle as a single-threaded fill.
A reader that sees ``None`` walks from a checkpoint, which was appended
before that row.  ``clear`` swaps in a fresh row list and resets the last
row built to row 0, so a reader keeps the rows it holds.
"""

from __future__ import annotations

import enum
import threading
from typing import Iterator, Sequence


class StirlingKind(enum.Enum):
    SIGNED_FIRST = "signed_first"
    UNSIGNED_FIRST = "unsigned_first"
    SECOND = "second"


def next_row(kind: StirlingKind, prev: Sequence, ints: Sequence) -> list:
    """Row n of the triangle of `kind` from row n-1 (`prev`, length n >= 1).

    `ints` holds the ring's integers, ``ints[j] == j`` for 0 <= j < n: a
    ``range`` for ints, or the ring's own elements, so that no product
    converts an int.

    Each kind has its own recurrence (no kind is derived from another, so
    cross-kind identities stay genuine checks):

        signed    s(n,l) = s(n-1,l-1) - (n-1)s(n-1,l)
        unsigned  u(n,l) = u(n-1,l-1) + (n-1)u(n-1,l)
        second    S(n,l) = S(n-1,l-1) + l*S(n-1,l)

    Only additions and products by `ints` are used, so the entries stay
    in the ring of `prev`.
    """
    shifted = [0, *prev]
    if kind is StirlingKind.SECOND:
        row = [a + l * b for l, a, b in zip(ints, shifted, prev)]
    else:
        c = ints[len(prev) - 1]
        if kind is StirlingKind.SIGNED_FIRST:
            c = -c
        row = [a + c * b for a, b in zip(shifted, prev)]
    row.append(prev[-1])
    return row


def stirling_rows(kind: StirlingKind, n_max: int, one=1) -> Iterator[list]:
    """Rows 0..n_max of the triangle of `kind`, with entries in the ring of `one`.

    Only the current row is kept, and the memo tables are not touched.
    """
    ints = [one * j for j in range(n_max)]
    row = [one]
    yield row
    for _ in range(n_max):
        row = next_row(kind, row, ints)
        yield row


# Every row below this is held: the verifier reads S(n, l) term by term at
# n <= 19 on the default grid and at n <= 104 on grids to n = 100.
_PREFIX = 128
# Past the prefix only every _STRIDE-th row is held.  On the library stream's
# reads (n <= 400), stride 8 peaked at 29.5 MB against 34.5 MB, but its longer
# walks slowed the median call by 10 % against 6 % for stride 4.
_STRIDE = 4


class StirlingTable:
    """Memoised triangle of Stirling numbers of one kind, grown by `next_row`.

    ``rows[n]`` is row n, or ``None`` for a row that is built but not held.
    """

    def __init__(self, kind: StirlingKind):
        self.kind = kind
        self.rows: list[list[int] | None] = [[1]]
        self._last = (0, [1])  # (n, row n): the last row built, held or not
        self._lock = threading.Lock()

    def _grow(self, n: int) -> list[list[int] | None]:
        with self._lock:
            rows = self.rows
            if len(rows) <= n:
                row = self._whole(rows, len(rows) - 1)
                while len(rows) <= n:
                    m = len(rows)
                    row = next_row(self.kind, row, range(m))
                    # [:] drops the spare capacity a built list carries, which
                    # would otherwise stay for the life of the table
                    rows.append(row[:] if m < _PREFIX or m % _STRIDE == 0 else None)
                self._last = (n, row)
            return rows

    def _whole(self, rows: list, n: int) -> list[int]:
        """Row n of `rows`, rebuilt from the nearest row before it when it is not held."""
        row = rows[n]
        if row is None:
            m, row = self._last
            if not n - n % _STRIDE < m <= n:
                m = n - n % _STRIDE
                row = rows[m]
            for j in range(m, n):
                row = next_row(self.kind, row, range(j + 1))
            self._last = (n, row)
        return row

    def _walk(self, rows: list, n: int, l: int) -> int:
        """Entry (n, l) of a row that is not held, from columns l-d..l of row n-d."""
        d = n % _STRIDE
        m = n - d
        if d <= l <= m:
            band = rows[m][l - d:l + 1]
        else:  # columns outside row m are zero
            band = [rows[m][j] if 0 <= j <= m else 0 for j in range(l - d, l + 1)]
        # A zero pad ends the band, so `ints` can end in the multiplier r that
        # the first kinds read while the second kind's column multiplier meets
        # the pad.  Each step's row has one entry more: the pad's place holds
        # junk and goes, and the new last entry is a zero pad again.  Entry 0
        # lacks its left neighbour, so after step i entries < i are junk and
        # the band's last column, l, stays exact.
        band.append(0)
        ints = [*range(l - d, l + 1), m]
        for r in range(m, n):
            ints[-1] = r
            band = next_row(self.kind, band, ints)
            del band[-2]
        return band[-2]

    def value(self, n: int, l: int) -> int:
        if n < 0 or l < 0 or l > n:
            return 0
        rows = self.rows
        if n >= len(rows):
            rows = self._grow(n)
        row = rows[n]
        return self._walk(rows, n, l) if row is None else row[l]

    def row(self, n: int) -> Sequence[int]:
        if n < 0:
            raise ValueError("n must be nonnegative")
        rows = self.rows
        if n >= len(rows):
            rows = self._grow(n)
        return tuple(self._whole(rows, n))

    def clear(self) -> None:
        with self._lock:
            self.rows = [[1]]
            self._last = (0, [1])


_TABLES = {kind: StirlingTable(kind) for kind in StirlingKind}


def stirling_table(kind: StirlingKind) -> StirlingTable:
    return _TABLES[kind]


def stirling1_signed(n: int, l: int) -> int:
    """Coefficient of x^l in the falling factorial x(x-1)...(x-n+1)."""
    return _TABLES[StirlingKind.SIGNED_FIRST].value(n, l)


def stirling1_unsigned(n: int, l: int) -> int:
    """Coefficient of x^l in the rising factorial x(x+1)...(x+n-1)."""
    return _TABLES[StirlingKind.UNSIGNED_FIRST].value(n, l)


def stirling2(n: int, l: int) -> int:
    """Number of partitions of an n-set into l nonempty blocks."""
    return _TABLES[StirlingKind.SECOND].value(n, l)

