"""Combinatorial line arrangements.

An arrangement here is purely combinatorial: lines are the indices
0, 1, ..., n and a "point" is a set of at least two lines, subject to the
axiom that every pair of distinct lines lies in exactly one point. Line 0
plays a distinguished role in everything built downstream (it is the line
sent to infinity when an arrangement is deconed), so the derived data
below never treats it symmetrically with the rest.

Realizability over any field is irrelevant to this module; incidence data
that violates classical closure theorems is accepted as long as the pair
axiom holds.

Input may omit points of size two: ``validate`` completes the family with a
double point for every pair of lines not covered by a listed point.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence


class ArrangementError(ValueError):
    """An incidence axiom is violated."""


class IndexOutOfRange(ArrangementError):
    """A point mentions a line index outside 0..n."""


class PointTooSmall(ArrangementError):
    """A listed point has fewer than two distinct lines."""


class PairCoveredTwice(ArrangementError):
    """Two listed points share two lines."""

    def __init__(self, j: int, k: int, first: tuple[int, ...], second: tuple[int, ...]):
        self.j = j
        self.k = k
        self.first = first
        self.second = second
        super().__init__(
            f"lines {j} and {k} lie in two points {set(first)} and {set(second)}"
        )


class FormatError(ValueError):
    """A JSON document does not have the expected arrangement shape."""


class InternalContradiction(RuntimeError):
    """A computed invariant contradicts one derived by an independent route."""


class ArrangementClass(Enum):
    PENCIL = "pencil"  # one point contains every line
    NEAR_PENCIL = "near_pencil"  # one point contains all lines but one
    GENERAL = "general"


class Frozen:
    """An immutable record, without generated code; ``_fields`` are the annotations of its bases, then its body."""

    def __init_subclass__(cls) -> None:
        cls._fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields, k = self._fields, len(args)
        if kwargs or k != len(fields):  # by name: each field after the positional ones, once
            if k > len(fields) or kwargs.keys() != set(fields[k:]):
                raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)}) once each")
            args += tuple(kwargs[f] for f in fields[k:])
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)  # not __dict__.update, which slows every later read
        self.__post_init__()

    def __post_init__(self) -> None: ...  # a subclass checks its fields here

    def __setattr__(self, name: str, *value) -> None:  # a cached_property writes __dict__ and still works
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Arrangement(Frozen):
    """A validated arrangement: ``n_lines`` lines and a complete point family.

    ``points`` is lexicographically sorted; each point is a strictly
    increasing tuple of line indices. Construct through ``validate`` (or
    ``from_json``), which enforces the axioms and fills in double points.
    """

    n_lines: int
    points: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        """Index of the last line; lines are 0..n."""
        return self.n_lines - 1

    @cached_property
    def _pair_index(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for idx, pt in enumerate(self.points):
            for j, k in combinations(pt, 2):
                out[(j, k)] = idx
        return out

    @cached_property
    def _nbc_pairs(self) -> tuple[NbcPair, ...]:
        return tuple(sorted(NbcPair(pt[0], k, idx) for idx, pt in enumerate(self.points) if pt[0] != 0 for k in pt[1:]))

    def point_of(self, j: int, k: int) -> int:
        """Index of the unique point containing lines j and k."""
        if j == k:
            raise ValueError("a pair requires two distinct lines")
        key = (j, k) if j < k else (k, j)
        try:
            return self._pair_index[key]
        except KeyError:
            raise IndexOutOfRange(f"no point contains lines {j} and {k}") from None


def validate(raw_points: Iterable[Sequence[int]], n_lines: int) -> Arrangement:
    """Check the incidence axioms and complete the point family.

    Each input point is deduplicated and sorted. Any pair of lines not
    covered by an input point gets a double point; completion can only add
    points of size two. Raises ``FormatError`` when a line index is not an
    ``int`` (a ``bool`` is not), before any other check, and an
    ``ArrangementError`` subclass when the input mentions an index out of
    range, a point smaller than a pair, or covers some pair twice.
    """
    raw_points = list(raw_points)
    for pt in raw_points:
        for x in pt:
            if not isinstance(x, int) or isinstance(x, bool):
                raise FormatError('"points" must contain integer line indices')
    if n_lines < 2:
        raise ArrangementError("an arrangement needs at least 2 lines")
    norm: list[tuple[int, ...]] = []
    for pt in raw_points:
        s = sorted(set(pt))
        for x in s:
            if not 0 <= x < n_lines:
                raise IndexOutOfRange(f"line index {x} not in 0..{n_lines - 1}")
        if len(s) < 2:
            raise PointTooSmall(f"point {sorted(pt)} has fewer than 2 distinct lines")
        norm.append(tuple(s))
    covered: dict[tuple[int, int], tuple[int, ...]] = {}
    for pt in norm:
        for j, k in combinations(pt, 2):
            if (j, k) in covered:
                raise PairCoveredTwice(j, k, covered[(j, k)], pt)
            covered[(j, k)] = pt
    full = list(norm)
    for j, k in combinations(range(n_lines), 2):
        if (j, k) not in covered:
            full.append((j, k))
    full.sort()
    return Arrangement(n_lines, tuple(full))


class NbcPair(NamedTuple):
    """A pair (j, k) with j < k whose point avoids line 0 and has minimum j.

    ``point`` is the index of the containing point. These pairs index the
    degree-two basis everywhere downstream, and they are in bijection with
    the independent cycles of the incidence graph. The spanning tree that
    keeps every edge at a point through line 0, and the edge to the minimal
    line at every other point, leaves out the edges (line k, point P) with
    0 not in P and k > min P; these correspond one-to-one to the nbc pairs
    via (min P, k).
    """

    j: int
    k: int
    point: int


def nbc_set(arr: Arrangement) -> tuple[NbcPair, ...]:
    """The nbc pairs in increasing order, computed once per arrangement."""
    return arr._nbc_pairs


def beta(arr: Arrangement) -> int:
    """The invariant 1 - n + (number of nbc pairs)."""
    return 1 - arr.n + len(nbc_set(arr))


def classify(arr: Arrangement) -> ArrangementClass:
    """Pencil, near-pencil, or general position.

    Three generic lines count as a near-pencil (a point of size two contains
    all lines but one). General arrangements have beta >= 1 and degenerate
    classes beta <= 0 (Crapo: beta > 0 exactly when the matroid is
    connected), which is rechecked here (``InternalContradiction`` otherwise).
    """
    sizes = {len(pt) for pt in arr.points}
    if arr.n_lines in sizes:
        cls = ArrangementClass.PENCIL
    elif arr.n_lines - 1 in sizes:
        cls = ArrangementClass.NEAR_PENCIL
    else:
        cls = ArrangementClass.GENERAL
    if (beta(arr) > 0) != (cls is ArrangementClass.GENERAL):
        raise InternalContradiction(f"{cls.value} arrangement with beta {beta(arr)}: only general have positive beta")
    return cls


def to_json(arr: Arrangement) -> dict:
    """Canonical JSON form.

    ``points`` lists only the points of size three or more (the minimal
    encoding); ``points_full`` lists the completed family including double
    points.
    """
    return {
        "lines": arr.n_lines,
        "points": [list(pt) for pt in arr.points if len(pt) >= 3],
        "points_full": [list(pt) for pt in arr.points],
    }


def from_json(doc: dict) -> Arrangement:
    if not isinstance(doc, dict):
        raise FormatError("arrangement document must be a JSON object")
    try:
        lines = doc["lines"]
        points = doc["points"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"missing arrangement field: {exc}") from None
    if not isinstance(lines, int) or isinstance(lines, bool):
        raise FormatError('"lines" must be an integer')
    if not isinstance(points, list) or not all(isinstance(pt, list) for pt in points):
        raise FormatError('"points" must be a list of lists of line indices')
    return validate(points, lines)


def random_arrangement(rng: random.Random, lines: int, density: float) -> Arrangement:
    """A random valid arrangement on the given number of lines.

    Draws multi-point candidates greedily: each attempt picks a size and a
    subset of lines, and keeps the point only when none of its pairs is
    already covered. Density 0 yields the generic arrangement (all double
    points); density 1 attempts roughly one multi-point per pair of lines.
    Every result passes ``validate``, which completes the double points.
    """
    if lines < 3:
        raise ValueError("need at least 3 lines for interesting randomness")
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    attempts = round(density * lines * (lines - 1) / 2)
    covered: set[tuple[int, int]] = set()
    points: list[list[int]] = []
    for _ in range(attempts):
        size = rng.randint(3, min(lines, 5))
        cand = sorted(rng.sample(range(lines), size))
        pairs = [(cand[i], cand[j]) for i in range(size) for j in range(i + 1, size)]
        if any(p in covered for p in pairs):
            continue
        covered.update(pairs)
        points.append(cand)
    return validate(points, lines)
