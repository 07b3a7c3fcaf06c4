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

Tables mutate only while growing, and they grow under a per-table lock:
a ``value`` or ``row`` read whose row already exists takes no lock, and
rows are built in full before they are appended, so concurrent first use
from several threads yields the same triangle as a single-threaded fill.
``clear`` swaps in a fresh row list, so a reader keeps the rows it holds.
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


class StirlingTable:
    """Memoised triangle of Stirling numbers of one kind, grown by `next_row`."""

    def __init__(self, kind: StirlingKind):
        self.kind = kind
        self.rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()

    def _grow(self, n: int) -> list[list[int]]:
        with self._lock:
            rows = self.rows
            while len(rows) <= n:
                # [:] drops the spare capacity a built list carries, which
                # would otherwise stay for the life of the table
                rows.append(next_row(self.kind, rows[-1], range(len(rows)))[:])
            return rows

    def value(self, n: int, l: int) -> int:
        if n < 0 or l < 0 or l > n:
            return 0
        rows = self.rows
        if n >= len(rows):
            rows = self._grow(n)
        return rows[n][l]

    def row(self, n: int) -> Sequence[int]:
        if n < 0:
            raise ValueError("n must be nonnegative")
        rows = self.rows
        if n >= len(rows):
            rows = self._grow(n)
        return tuple(rows[n])

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

