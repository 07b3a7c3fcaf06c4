"""Stirling numbers of both kinds.

Each kind has one recurrence, ``next_row``, which builds row n from row
n-1 in any ring that holds the integers: Python ints for the memo tables,
exact ``decimal.Decimal`` integers for the CLI, which renders them in
linear time.  ``stirling_rows`` walks the recurrence and keeps only the
current row; it builds each of the ring's small integers once, one per
row, so no entry converts an int into the ring.

Triangles are filled row by row and memoised, one table per kind, so dense
sweeps cost amortised O(1) per query.  Indices outside the triangle
(l < 0 or l > n, or n < 0) return 0, matching the over-wide summation
ranges of the identities verified elsewhere.

A table builds every row but holds row n whole only when n < 128, n is a
multiple of 4 (its checkpoints) or n is the last row built; it holds
``None`` for every other row.  That keeps about a quarter of the full
triangle: ``stirling2(1000, 5)`` peaks at about 66 MB in place of 212 MB.
The prefix of 128 covers the verifier's term-by-term reads, which stay at
n <= 104 on grids to n = 100, so they never walk.  A read of a dropped row
n has one walk: columns lo..hi of row n come from columns lo-d..hi of the
checkpoint n-d (d = n % 4) through ``next_row`` on a zero-padded band.  A
``value`` read walks the one column l, at most 3 calls on 5 entries
whatever n and l are; a ``row`` read walks columns 0..n.  A read stores
nothing.

Tables mutate only while growing, and they grow under a per-table lock:
a ``value`` or ``row`` read whose row already exists takes no lock, and
rows are built in full before they are appended, so concurrent first use
from several threads yields the same triangle as a single-threaded fill.
Growth drops row m-1 only after it has appended row m, so a reader never
finds the newest row missing, and a reader that sees ``None`` walks from a
checkpoint, which was appended before that row and is never dropped.
``clear`` swaps in a fresh row list, so a reader keeps the rows it holds.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Iterator, Sequence


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
    The ring's integers grow by one per row, so the first rows cost the
    same whatever `n_max` is.
    """
    if not isinstance(kind, StirlingKind):
        raise ValueError(f"unknown kind: {kind!r}")
    ints = [one - one]
    row = [one]
    yield row
    for _ in range(n_max):
        row = next_row(kind, row, ints)
        yield row
        ints.append(ints[-1] + one)


# Every row below this is held: the verifier reads S(n, l) term by term at
# n <= 19 on the default grid and at n <= 104 on grids to n = 100.
_PREFIX = 128
# Past the prefix only every _STRIDE-th row is held.  On the library stream's
# reads (n <= 400), stride 8 peaked at 29.5 MB against 34.5 MB, but its longer
# walks slowed the median call by 10 % against 6 % for stride 4.
_STRIDE = 4


class StirlingTable:
    """Memoised triangle of Stirling numbers of one kind, grown by `next_row`.

    ``rows[n]`` is row n when n < 128, n is a multiple of 4 or n is the last
    row built, and ``None`` for any other row.  Non-int indices raise
    ``TypeError``.
    """

    def __init__(self, kind: StirlingKind):
        if not isinstance(kind, StirlingKind):
            raise ValueError(f"unknown kind: {kind!r}")
        self.kind = kind
        self.rows: list[list[int] | None] = [[1]]
        self._lock = threading.Lock()

    def _grow(self, n: int) -> list[list[int] | None]:
        with self._lock:
            rows = self.rows
            while len(rows) <= n:
                m = len(rows)
                # [:] drops the spare capacity a built list carries, which
                # would otherwise stay for the life of the table
                rows.append(next_row(self.kind, rows[-1], range(m))[:])
                # row m - 1 goes only once row m is in place, so a reader
                # without the lock never finds the newest row missing
                if m - 1 >= _PREFIX and (m - 1) % _STRIDE:
                    rows[m - 1] = None
            return rows

    def _walk(self, rows: list, n: int, lo: int, hi: int) -> list[int]:
        """Columns lo..hi of row n, from columns lo-d..hi of the checkpoint n-d."""
        d = n % _STRIDE
        m = n - d
        band = [0] * (d - lo) + rows[m][max(lo - d, 0):hi + 1] + [0] * (hi - m)
        # Columns outside row m are zero pads ([0] * -j is []).  A zero pad
        # ends the band, so `ints` can end in the multiplier r that the first
        # kinds read while the second kind's column multiplier meets the pad.
        # Each step's row has one entry more: the pad's place holds junk and
        # goes, and the new last entry is a zero pad again.  Entry 0 lacks its
        # left neighbour, so after step i entries < i are junk and columns
        # lo..hi stay exact.
        band.append(0)
        ints = [*range(lo - d, hi + 1), m]
        for r in range(m, n):
            ints[-1] = r
            band = next_row(self.kind, band, ints)
            del band[-2]
        return band[d:-1]

    def value(self, n: int, l: int) -> int:
        if not (isinstance(n, int) and isinstance(l, int)):
            raise TypeError(f"n and l must be ints: {n!r}, {l!r}")
        if n < 0 or l < 0 or l > n:
            return 0
        rows = self.rows
        if n >= len(rows):
            rows = self._grow(n)
        row = rows[n]
        return self._walk(rows, n, l, l)[0] if row is None else row[l]

    def row(self, n: int) -> Sequence[int]:
        if not isinstance(n, int):
            raise TypeError(f"n must be an int: {n!r}")
        if n < 0:
            raise ValueError("n must be nonnegative")
        rows = self.rows
        if n >= len(rows):
            rows = self._grow(n)
        row = rows[n]
        return tuple(self._walk(rows, n, 0, n) if row is None else row)

    def clear(self) -> None:
        with self._lock:
            self.rows = [[1]]


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

