"""Plumbing graphs and the first homology of plumbed 3-manifolds.

The boundary 3-manifold of an arrangement is encoded by a plumbing graph:
the line/point incidence graph of the arrangement with an Euler-number
weight on every vertex. ``incidence_graph`` builds it, with lines 0..n as
vertices 0..n and the points after them; a line lying in p points gets
weight 1 - p, and every point vertex gets weight -1. For a weighted graph G
the associated symmetric matrix has the weights on the diagonal and a 1 for
every edge, and the first homology of the plumbed manifold is Z^b1(G) plus
the cokernel of that matrix.

For graphs coming from an arrangement the cokernel is free of rank n (lines
are 0..n), so the total first homology is free of rank b1(G) + n: with lines
first the matrix is [[D_L, B], [B^T, -I]], eliminating the -I point block
(unimodular) leaves D_L + B B^T, which is the all-ones matrix J because any
two lines share exactly one point, and coker J = Z^n. That fact is rechecked
on every call and a violation raises ``InternalContradiction`` rather than
returning silently.

The matrix has V^2 entries but at most V + 2E nonzeros (E edges), so
nothing on the way from graph to cokernel is V x V. ``PlumbingGraph.nonzeros``
is their one row form, built once: the component search walks it,
``plumbing_matrix`` checks it as a ``SparseIntMatrix``, which ``cokernel``
takes as it is, and ``homology`` splices it into rows of zeros, a block of
rows at a time. A result keeps the graph, not the matrix.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .arrangement import Arrangement, Frozen, InternalContradiction
from .exact_linalg import SparseIntMatrix, cokernel

__all__ = [
    "InternalContradiction",
    "PlumbingGraph",
    "H1Result",
    "incidence_graph",
    "plumbing_matrix",
    "h1_plumbed",
    "h1_boundary",
]


class PlumbingGraph(Frozen):
    """A vertex-weighted simple graph on vertices 0..len(weights) - 1; edges
    are index pairs (i, j), i < j, and endpoints and weights are ``int`` (not
    ``bool``)."""

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        nv = len(self.weights)
        if not set(map(type, chain.from_iterable(self.edges))) <= {int}:
            raise TypeError("plumbing edge endpoints must be int")
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < j < nv):
                raise ValueError(f"bad edge ({i}, {j})")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        if not set(map(type, self.weights)) <= {int}:
            raise TypeError("plumbing weights must be int")

    @property
    def n_vertices(self) -> int:
        return len(self.weights)

    @cached_property
    def nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row i of the plumbing matrix as ``(column, value)`` pairs in increasing
        column order, the form of ``SparseIntMatrix.nonzeros``: the weight on the
        diagonal when it is nonzero, and a 1 for each edge."""
        rows = [[(i, w)] if w else [] for i, w in enumerate(self.weights)]
        for i, j in self.edges:
            rows[i].append((j, 1))
            rows[j].append((i, 1))
        for row in rows:
            row.sort()
        return tuple(map(tuple, rows))

    @cached_property
    def n_components(self) -> int:
        """The number of connected components, by depth-first search over ``nonzeros``."""
        rows = self.nonzeros
        seen = [False] * len(rows)
        count = 0
        for root in range(len(rows)):
            if seen[root]:
                continue
            count += 1
            seen[root] = True
            stack = [root]
            while stack:
                for w, _ in rows[stack.pop()]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return count

    def is_connected(self) -> bool:
        return self.n_components <= 1

    @property
    def b1(self) -> int:
        """The first Betti number E - V + c, c the number of components."""
        return len(self.edges) - self.n_vertices + self.n_components


class H1Result(Frozen):
    """First homology of a plumbed manifold, split by origin.

    ``free_rank`` already includes the b1 of the graph; ``torsion`` lists
    invariant factors greater than 1 in divisibility order. ``graph`` is the
    plumbing graph it was computed from: its O(V + E) ``nonzeros`` give the
    V x V matrix that ``homology`` prints.
    """

    free_rank: int
    torsion: tuple[int, ...]
    graph_b1: int
    coker_free_rank: int
    graph: PlumbingGraph

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "b1_graph": self.graph_b1,
            "coker_free_rank": self.coker_free_rank,
        }


def incidence_graph(arr: Arrangement) -> PlumbingGraph:
    """The weighted line/point incidence graph of an arrangement.

    Vertices are lines 0..n, then points in lexicographic order, matching
    the row order of ``plumbing_matrix``; each line has an edge to every
    point through it. The graph is connected, so its b1 is E - V + 1.
    """
    nl = arr.n_lines
    weights = [1] * nl + [-1] * len(arr.points)
    edges = []
    for v, pt in enumerate(arr.points, nl):
        for line in pt:
            weights[line] -= 1
            edges.append((line, v))
    return PlumbingGraph(tuple(weights), tuple(edges))


def plumbing_matrix(g: PlumbingGraph) -> SparseIntMatrix:
    """Symmetric matrix with vertex weights on the diagonal, 1 on edges:
    the graph's ``nonzeros``, checked as a ``SparseIntMatrix``."""
    return SparseIntMatrix(g.n_vertices, g.n_vertices, g.nonzeros)


def h1_plumbed(g: PlumbingGraph) -> H1Result:
    """First homology of the 3-manifold plumbed along a connected graph."""
    if not g.is_connected():
        raise ValueError("plumbing graph must be connected")
    free, torsion = cokernel(plumbing_matrix(g))
    return H1Result(
        free_rank=g.b1 + free,
        torsion=torsion,
        graph_b1=g.b1,
        coker_free_rank=free,
        graph=g,
    )


def h1_boundary(arr: Arrangement) -> H1Result:
    """First homology of the boundary manifold of an arrangement.

    Always free of rank b1(incidence graph) + n; any torsion or a cokernel
    rank other than n contradicts the presentation of the fundamental group
    (meridians modulo one relation), so it is raised, not returned.
    """
    res = h1_plumbed(incidence_graph(arr))
    if res.torsion or res.coker_free_rank != arr.n:
        raise InternalContradiction(
            f"boundary homology must be free of rank b1 + {arr.n}, "
            f"got coker rank {res.coker_free_rank} and torsion {list(res.torsion)}"
        )
    return res
