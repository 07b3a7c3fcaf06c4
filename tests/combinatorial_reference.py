"""Composition enumeration and multinomials, the term-by-term references.

The package folds composition sums into binomial convolutions
(``cauchy._sum_power_volume``, ``cauchy._convolution_first``); the tests
check those folds against the enumerated sums built from these two.
"""

from math import comb
from typing import Iterator, Sequence


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`.

    Lexicographic order, each tuple exactly once; there are
    comb(total+parts-1, parts-1) of them.  Lazily generated, since the count
    grows fast.  The generator is iterative, so any number of parts works
    without deep recursion.
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
