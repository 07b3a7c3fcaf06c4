"""Stirling numbers of both kinds, integer compositions, multinomials.

Triangles are filled row by row from the standard recurrences and memoised,
one table per kind, so dense sweeps cost amortised O(1) per query.  Indices
outside the triangle (l < 0 or l > n, or n < 0) return 0, matching the
over-wide summation ranges of the identities verified elsewhere.

Tables mutate only while growing, and they grow under a per-table lock:
a reader whose row already exists takes no lock, and rows are built in full
before they are appended, so concurrent first use from several threads
yields the same triangle as a single-threaded fill.
"""

from __future__ import annotations

import enum
import threading
from math import comb
from typing import Iterator, Sequence


class StirlingKind(enum.Enum):
    SIGNED_FIRST = "signed_first"
    UNSIGNED_FIRST = "unsigned_first"
    SECOND = "second"


class StirlingTable:
    """Memoised triangle of Stirling numbers of one kind.

    Each kind grows from its own recurrence (no kind is derived from
    another, so cross-kind identities stay genuine checks):

        signed    s(n,l) = s(n-1,l-1) - (n-1)s(n-1,l)
        unsigned  u(n,l) = u(n-1,l-1) + (n-1)u(n-1,l)
        second    S(n,l) = S(n-1,l-1) + l*S(n-1,l)
    """

    def __init__(self, kind: StirlingKind):
        self.kind = kind
        self.rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()

    def preload(self, n_max: int) -> None:
        self._grow(n_max)

    def _grow(self, n: int) -> None:
        if n < len(self.rows):
            return
        with self._lock:
            while len(self.rows) <= n:
                m = len(self.rows)
                prev = self.rows[-1]
                row = [0] * (m + 1)
                for l in range(1, m + 1):
                    row[l] = prev[l - 1]
                for l in range(m):
                    if self.kind is StirlingKind.SIGNED_FIRST:
                        row[l] -= (m - 1) * prev[l]
                    elif self.kind is StirlingKind.UNSIGNED_FIRST:
                        row[l] += (m - 1) * prev[l]
                    else:
                        row[l] += l * prev[l]
                self.rows.append(row)

    def value(self, n: int, l: int) -> int:
        if n < 0 or l < 0 or l > n:
            return 0
        rows = self.rows
        if n >= len(rows):
            self._grow(n)
        return rows[n][l]

    def row(self, n: int) -> Sequence[int]:
        if n < 0:
            raise ValueError("n must be nonnegative")
        self._grow(n)
        return tuple(self.rows[n])


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


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`.

    Lexicographic order, each tuple exactly once; there are
    comb(total+parts-1, parts-1) of them.  Lazily generated: consumers in
    this package fold immediately and the count grows fast.  The generator
    is iterative, so any number of parts works without deep recursion.
    """
    if parts < 1:
        raise ValueError("parts must be positive")
    if total < 0:
        raise ValueError("total must be nonnegative")
    return _compositions(total, parts)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Each successor raises the rightmost entry that still has something
    # after it by one and puts all that is left after it into the last slot.
    c = [0] * parts
    c[-1] = total
    while True:
        yield tuple(c)
        last = c[-1]
        if last and parts > 1:
            c[-2] += 1
            c[-1] = last - 1
            continue
        j = parts - 2
        while j >= 0 and c[j] == 0:
            j -= 1
        if j <= 0:
            return
        c[-1] = c[j] - 1
        c[j] = 0
        c[j - 1] += 1


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (l_1! ... l_k!) for parts summing to n."""
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError("parts must sum to n")
    result = 1
    remaining = n
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result
