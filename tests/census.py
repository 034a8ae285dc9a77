"""Every labelled combinatorial arrangement on a few lines.

A combinatorial arrangement on lines 0..v-1 is a linear space: a family of
points, each a set of at least two lines, such that every pair of lines
lies in exactly one point. ``linear_spaces`` lists every such family once,
with its labels: it always places the point through the first uncovered
pair (i, j). Every pair before (i, j) is covered, so the rest of that point
is a set of lines after j that meet neither i, j nor each other in a point
yet; each such set gives a different family.

The counts for v = 3, 4, 5, 6 are 2, 6, 32 and 353; up to relabelling
they are 2, 3, 5 and 10, the numbers of linear spaces on v points (OEIS
A001200). The list includes arrangements that no complex lines realize.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from plumbline.arrangement import Arrangement, validate

# The Fano plane: 7 lines and 7 triple points, realizable only in
# characteristic 2, so not by complex lines.
FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))


def linear_spaces(v: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every point family on lines 0..v-1 that covers each pair exactly once."""
    pairs = list(combinations(range(v), 2))
    covered: set[tuple[int, int]] = set()
    points: list[tuple[int, ...]] = []

    def extend(start: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        first = next((idx for idx in range(start, len(pairs)) if pairs[idx] not in covered), None)
        if first is None:
            yield tuple(points)
            return
        i, j = pairs[first]
        free = [m for m in range(j + 1, v) if (i, m) not in covered and (j, m) not in covered]
        for size in range(len(free) + 1):
            for rest in combinations(free, size):
                if any(p in covered for p in combinations(rest, 2)):
                    continue
                point = (i, j) + rest
                new = list(combinations(point, 2))
                covered.update(new)
                points.append(point)
                yield from extend(first + 1)
                points.pop()
                covered.difference_update(new)

    yield from extend(0)


def census(v: int) -> list[Arrangement]:
    """Every labelled arrangement of v lines, validated."""
    return [validate([list(pt) for pt in pts], v) for pts in linear_spaces(v)]


def census_and_fano() -> list[Arrangement]:
    """Every labelled arrangement of 3-6 lines, then the Fano plane."""
    return [arr for v in range(3, 7) for arr in census(v)] + [validate([list(pt) for pt in FANO], 7)]
