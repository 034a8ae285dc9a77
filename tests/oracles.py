"""Reference implementations that the fast paths in ``src/`` replaced.

Each function here is the earlier, direct implementation, kept unchanged as
a test oracle: the Smith normal form that ran each stage through four
helpers (pivot, column, row, non-divisible entry), the Smith-form cokernel,
the one that eliminated unit entries by least Markowitz cost after it and
the one pass that kept an exact set of rows per column after that
(``cokernel_exact_sets``), all on that Smith form, the stand-alone
Bareiss determinant, the (line, point index) incidence graph and the
plumbing graph rebuilt and re-sorted from it, the row-list plumbing matrix
and the ``homology`` JSON document dumped whole with it, the three builders
that each made the plumbing matrix's rows from the weights and edges before
``PlumbingGraph.nonzeros`` (``plumbing_matrix_sorted_rows``, the component
search over adjacency lists ``n_components_by_adjacency`` and the
``homology`` writer ``write_entries_from_edges``), the ``json.dumps`` call
that every command's JSON went through (and the ``_emit`` that made it on
the whole document), the ``report`` document with every product list
built as one dict per product by ``to_json``, the triple-loop double and the
one-pass double that followed it (with a label call per product), the
positional double that built its whole table when it was made
(``eager_double``; ``double_with_products`` gives a tampered double), the
Orlik-Solomon algebra and the intersection ring that formatted each label
per product (the ring scanning every line against every nbc pair), the
pair-loop cohomology ring (with the label parsing it used for Poincare
duality), the pair-loop ring verifier (with the label map it used) and the
verifier that compared both orders of every stored product, the
positional cohomology ring that listed PD(t) before PD(g) in degree two
and the ring check that mapped it onto the double through a permutation
of positions (``cohomology_of_t_first`` and ``compare_by_permutation``), the
positional intersection ring with separate H_2 and H_1 index spaces and the
cohomology ring that rewrote each of its vectors through a list of dual
positions (``IndexedIntersectionRing``, ``intersection_ring_by_index`` and
``cohomology_of_by_index``), the
label-keyed ``GradedAlgebra``, ``DoubledAlgebra`` and ``IntersectionRing``
(here ``LabelledAlgebra``, ``LabelledDoubledAlgebra`` and
``LabelledIntersectionRing``, which every oracle above builds) with the
Orlik-Solomon algebra, double, intersection ring, cohomology ring and ring
check that built and compared them by label (the ``*_by_label`` functions),
and the resonance complex (as the three dense differentials of the
``AomotoComplex`` it returned, built in ``Fraction`` arithmetic from the
label-keyed structure constants) with Betti numbers from dense rational
ranks and generic Betti numbers as a minimum over every sampled point, and
the dense witness and block rank that sparse elimination replaced
(``block_betti_numbers``, with the dense rank modulo a prime ``rank_mod_p``,
the Bareiss ``left_kernel`` and the integer ``_restricted_phi``), and the
frozen dataclass that each record class was before ``arrangement.Frozen``
(``dataclass_twin``), the ``--point`` reader that sent every string
through ``Fraction``'s regex and counted its digits character by character
(``parse_point`` and ``digits``), and the ``--help`` option that click
builds itself, through a gettext lookup of its text (``click_help_option``).
The property tests in ``test_oracles.py`` check that
the package's versions give the same results, reading the package's
positional algebras and rings through ``relabel``. The cohomology rings
built here list degree two as PD(t) and then PD(g); ``in_double_order``
rotates one into the package's order, that of the double, PD(g) first.
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, make_dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul
from typing import Sequence

import click

from plumbline import cli, plumbing
from plumbline.arrangement import Arrangement, nbc_set
from plumbline.boundary_ring import IntersectionRing, IsomorphismReport, _canonical_products
from plumbline.exact_linalg import IntMatrix, RatMatrix, SnfResult, SparseIntMatrix, _bareiss, clear_denominators, rank
from plumbline.os_algebra import DegreeError, DoubledAlgebra, GradedAlgebra, ProductList, dual_label
from plumbline.plumbing import PlumbingGraph, h1_boundary
from plumbline.resonance import (
    AomotoPoint,
    ChainConditionViolated,
    DimensionMismatch,
    aomoto_complex as block_complex,
    sample_point,
    trial_seed,
)


def _identity_lists(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_axpy(mat: list[list[int]], dst: int, src: int, c: int) -> None:
    # mat[dst] += c * mat[src]
    row_d, row_s = mat[dst], mat[src]
    for j in range(len(row_d)):
        row_d[j] += c * row_s[j]


def _col_axpy(mat: list[list[int]], dst: int, src: int, c: int) -> None:
    for row in mat:
        row[dst] += c * row[src]


def _swap_cols(mat: list[list[int]], j1: int, j2: int) -> None:
    for row in mat:
        row[j1], row[j2] = row[j2], row[j1]


def _bring_pivot(s, u, v, t: int, nr: int, nc: int) -> bool:
    """Move a least-|value| nonzero entry of s[t:, t:] to position (t, t)."""
    best = None
    for i in range(t, nr):
        row = s[i]
        for j in range(t, nc):
            x = row[j]
            if x != 0 and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
    if best is None:
        return False
    _, i, j = best
    if i != t:
        s[t], s[i] = s[i], s[t]
        u[t], u[i] = u[i], u[t]
    if j != t:
        _swap_cols(s, t, j)
        _swap_cols(v, t, j)
    return True


def _reduce_column(s, u, t: int, nr: int) -> bool:
    """Clear column t below the pivot; True if the pivot was replaced."""
    for i in range(t + 1, nr):
        if s[i][t] == 0:
            continue
        q = s[i][t] // s[t][t]
        if q:
            _row_axpy(s, i, t, -q)
            _row_axpy(u, i, t, -q)
        if s[i][t]:
            # Remainder is a strictly smaller pivot candidate.
            s[t], s[i] = s[i], s[t]
            u[t], u[i] = u[i], u[t]
            return True
    return False


def _reduce_row(s, v, t: int, nc: int) -> bool:
    """Clear row t right of the pivot; True if the pivot was replaced."""
    for j in range(t + 1, nc):
        if s[t][j] == 0:
            continue
        q = s[t][j] // s[t][t]
        if q:
            _col_axpy(s, j, t, -q)
            _col_axpy(v, j, t, -q)
        if s[t][j]:
            _swap_cols(s, t, j)
            _swap_cols(v, t, j)
            return True
    return False


def _absorb_nondivisible(s, u, t: int, nr: int, nc: int) -> bool:
    """Pull a residue entry into row t when the pivot fails to divide it."""
    d = s[t][t]
    for i in range(t + 1, nr):
        row = s[i]
        for j in range(t + 1, nc):
            if row[j] % d:
                _row_axpy(s, t, i, 1)
                _row_axpy(u, t, i, 1)
                return True
    return False


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form of an integer matrix.

    Pivot selection always takes a nonzero entry of least absolute value in
    the remaining submatrix, which keeps coefficient growth mild. Row
    operations are mirrored on U, column operations on V, so the invariant
    U @ m @ V = S holds throughout. Each stage ends only when the pivot
    divides every entry of the remaining submatrix, which forces the
    divisibility chain d_1 | d_2 | ... on the diagonal.
    """
    nr, nc = m.rows, m.cols
    s = m.to_rows()
    u = _identity_lists(nr)
    v = _identity_lists(nc)

    for t in range(min(nr, nc)):
        if not _bring_pivot(s, u, v, t, nr, nc):
            break
        while True:
            if _reduce_column(s, u, t, nr):
                continue
            if _reduce_row(s, v, t, nc):
                continue
            if _absorb_nondivisible(s, u, t, nr, nc):
                continue
            break

    for t in range(min(nr, nc)):
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]

    return SnfResult(
        u=IntMatrix(nr, nr, tuple(x for row in u for x in row)),
        s=IntMatrix(nr, nc, tuple(x for row in s for x in row)),
        v=IntMatrix(nc, nc, tuple(x for row in v for x in row)),
    )


def cokernel(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Invariants of coker(m : Z^cols -> Z^rows) = Z^rows / im(m).

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1 in divisibility order.
    """
    diag = snf(m).diagonal
    nonzero = [d for d in diag if d]
    free = m.rows - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return free, torsion


def cokernel_markowitz(m: IntMatrix | SparseIntMatrix) -> tuple[int, tuple[int, ...]]:
    """Invariants of coker(m : Z^cols -> Z^rows) = Z^rows / im(m).

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1 in divisibility order. A ``SparseIntMatrix`` is read by
    its nonzeros only, so the cost follows them and not rows x cols.

    Unit entries (+-1) are eliminated first on a sparse copy, least Markowitz
    cost (row nnz - 1) * (column nnz - 1) first (Kannan-Bachem 1979). Each
    step is unimodular and splits off an invariant factor 1, so only the
    rest goes through ``snf``. For a plumbing matrix [[D_L, B], [B^T, -I]]
    the -I point block eliminates to the all-ones J, whose cokernel is Z^n.
    """
    from heapq import heapify, heappop, heappush  # imported on use: most commands never get here

    rows: dict[int, dict[int, int]]
    if isinstance(m, SparseIntMatrix):
        rows = dict(enumerate(map(dict, m.nonzeros)))
    else:
        rows = {i: {j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)}
    cols: dict[int, set[int]] = {j: set() for j in range(m.cols)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    # Unit entries by cost when pushed; a popped entry that is gone or no
    # longer a unit is dropped, and one whose cost rose is pushed back.
    heap = [(cost(i, j), i, j) for i, row in rows.items() for j, x in row.items() if x in (1, -1)]
    heapify(heap)
    while heap:
        c, p, q = heappop(heap)
        if p not in rows or rows[p].get(q) not in (1, -1):
            continue
        now = cost(p, q)
        if now > c:
            heappush(heap, (now, p, q))
            continue
        prow = rows.pop(p)
        u = prow.pop(q)  # +-1, its own inverse
        for i in cols.pop(q) - {p}:
            row = rows[i]
            f = row.pop(q) * u
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                    if y in (1, -1):
                        heappush(heap, (cost(i, j), i, j))
                else:
                    del row[j]
                    cols[j].discard(i)
        for j in prow:
            cols[j].discard(p)

    left = sorted(cols)
    rest = IntMatrix(len(rows), len(left), tuple(row.get(j, 0) for row in rows.values() for j in left))
    nonzero = [d for d in snf(rest).diagonal if d]
    free = len(rows) - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return free, torsion



def cokernel_exact_sets(m: IntMatrix | SparseIntMatrix) -> tuple[int, tuple[int, ...]]:
    """Invariants of coker(m : Z^cols -> Z^rows) = Z^rows / im(m).

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1 in divisibility order. A ``SparseIntMatrix`` is read by
    its nonzeros only, so the cost follows them and not rows x cols.

    Unit entries (+-1) are eliminated in one pass over sparse copies of the
    rows, shortest row first (ties by row index): each row pivots on its
    unit entry whose column has the fewest nonzeros, and that column is
    cleared. Each step is unimodular and splits off an invariant factor 1.
    A row with no unit entry when it is reached is never revisited but left
    for ``snf``, which gets only what remains and is not called when that
    is all zero. In a plumbing matrix [[D_L, B], [B^T, -I]] the point rows
    are the short ones (a double point's has 3 nonzeros) and each pivots
    on its -1. That leaves the all-ones J on the lines, and one pivot
    clears J, so nothing reaches ``snf`` and the cokernel is Z^n.
    """
    rows: dict[int, dict[int, int]]
    if isinstance(m, SparseIntMatrix):
        rows = dict(enumerate(map(dict, m.nonzeros)))
    else:
        rows = {i: {j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)}
    cols: dict[int, set[int]] = {j: set() for j in range(m.cols)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)

    for p in sorted(rows, key=lambda i: len(rows[i])):
        prow = rows[p]
        units = [j for j, x in prow.items() if x in (1, -1)]
        if not units:
            continue
        q = min(units, key=lambda j: len(cols[j]))
        del rows[p]
        u = prow.pop(q)  # +-1, its own inverse
        for i in cols.pop(q) - {p}:
            row = rows[i]
            f = row.pop(q) * u
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
        for j in prow:
            cols[j].discard(p)

    if not any(rows.values()):
        return len(rows), ()
    left = sorted(cols)
    rest = IntMatrix(len(rows), len(left), tuple(row.get(j, 0) for row in rows.values() for j in left))
    nonzero = [d for d in snf(rest).diagonal if d]
    free = len(rows) - len(nonzero)
    torsion = tuple(d for d in nonzero if d > 1)
    return free, torsion


def det(m: IntMatrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, rem = divmod(pk * a[i][j] - a[i][k] * a[k][j], prev)
                if rem:
                    raise ArithmeticError("non-exact division in fraction-free determinant")
                a[i][j] = q
            a[i][k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite line/point incidence graph of an arrangement.

    Edges are (line, point index) pairs. The graph is connected for every
    valid arrangement, so its first Betti number is E - V + 1.
    """

    n_lines: int
    n_points: int
    edges: tuple[tuple[int, int], ...]

    @property
    def n_vertices(self) -> int:
        return self.n_lines + self.n_points

    @property
    def b1(self) -> int:
        return len(self.edges) - self.n_vertices + 1


def incidence_graph(arr: Arrangement) -> IncidenceGraph:
    edges = tuple(
        (line, idx) for idx, pt in enumerate(arr.points) for line in pt
    )
    return IncidenceGraph(arr.n_lines, len(arr.points), edges)


def plumbing_graph(arr: Arrangement) -> PlumbingGraph:
    """The weighted incidence graph of an arrangement.

    Vertex order is lines 0..n, then points in lexicographic order, matching
    the row order of ``plumbing_matrix``.
    """
    graph = incidence_graph(arr)
    through = Counter(chain.from_iterable(arr.points))
    weights = [1 - through[i] for i in range(arr.n_lines)]
    for pt in arr.points:
        weights.append(-1)
    edges = tuple(sorted((line, arr.n_lines + idx) for line, idx in graph.edges))
    return PlumbingGraph(tuple(weights), edges)


def plumbing_matrix(g: PlumbingGraph) -> IntMatrix:
    """Symmetric matrix with vertex weights on the diagonal, 1 on edges."""
    nv = g.n_vertices
    rows = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        rows[i][i] = g.weights[i]
    for i, j in g.edges:
        rows[i][j] = 1
        rows[j][i] = 1
    return IntMatrix.from_rows(rows)


def plumbing_matrix_sorted_rows(g: PlumbingGraph) -> SparseIntMatrix:
    """Symmetric matrix with vertex weights on the diagonal, 1 on edges,
    kept as its V + 2E nonzeros."""
    rows = [[(i, w)] if w else [] for i, w in enumerate(g.weights)]
    for i, j in g.edges:
        rows[i].append((j, 1))
        rows[j].append((i, 1))
    for row in rows:
        row.sort()
    nv = g.n_vertices
    return SparseIntMatrix(nv, nv, tuple(map(tuple, rows)))


def n_components_by_adjacency(g: PlumbingGraph) -> int:
    """The number of connected components, by depth-first search."""
    nv = g.n_vertices
    adj: list[list[int]] = [[] for _ in range(nv)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * nv
    count = 0
    for root in range(nv):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def write_entries_from_edges(g: PlumbingGraph, nl: str, out: cli._Text) -> None:
    """The V^2 entries of the plumbing matrix of ``g``, row-major, as strings.
    Each row is cut from one row of zeros, its O(degree) nonzeros spliced
    in, and the rows go to ``out`` in blocks of about BLOCK characters.
    It reads ``cli.BLOCK``, so a test that patches it changes both writers."""
    nv = g.n_vertices
    if not nv:
        out.append("[]")
        return
    sep = "," + nl + "  "
    zero = '"0"' + sep
    width = len(zero)
    zeros = zero * nv
    per = max(1, cli.BLOCK // len(zeros))  # rows per block
    nonzeros = [[(i, f'"{w}"')] for i, w in enumerate(g.weights)]
    for i, j in g.edges:
        nonzeros[i].append((j, '"1"'))
        nonzeros[j].append((i, '"1"'))
    out.append("[" + sep[1:])
    parts: list[str] = []
    for r, row in enumerate(nonzeros, 1):
        at = 0
        for j, entry in sorted(row):
            parts += (zeros[at : j * width], entry, sep)
            at = (j + 1) * width
        parts.append(zeros[at:])
        if r == nv:
            del parts[-2:]  # the last row ends on its diagonal entry: no separator after it
        if r % per == 0 or r == nv:
            out.add("".join(parts))
            parts.clear()
    out.append(nl + "]")


def homology_json(arr: Arrangement) -> str:
    """The ``homology`` command's JSON document, without the closing newline."""
    doc = h1_boundary(arr).to_json()
    g = plumbing.incidence_graph(arr)
    return json.dumps({**doc, "matrix": plumbing_matrix(g).to_json()}, indent=2, sort_keys=True)


def emit_json(doc) -> str:
    """A command's JSON document as ``_emit`` wrote it, before ``click.echo``
    added the closing newline."""
    return json.dumps(doc, indent=2, sort_keys=True)


def emit(ctx, doc: dict, table) -> None:
    """``plumbline.cli._emit`` for JSON output before it wrote in blocks: the
    whole document through one ``json.dumps``."""
    click.echo(emit_json(doc))


def build_report(arr: Arrangement, seed: int, trials: int) -> dict:
    """The ``report`` document. Each piece is built once; the isomorphism
    check still compares the geometric ring with the doubling construction."""
    # The package's builders, which the label-keyed oracles of this module shadow.
    from plumbline import arrangement as arrmod
    from plumbline.boundary_ring import _cohomology_of, _compare, intersection_ring
    from plumbline.cli import _resonance_doc
    from plumbline.os_algebra import double, os_algebra

    alg = os_algebra(arr)
    dbl = double(alg)
    ring = intersection_ring(arr)
    h1 = h1_boundary(arr)
    pairs = nbc_set(arr)
    res = _resonance_doc(arr, dbl, seed, trials)
    res["betti_generic"] = res.pop("betti")
    return {
        "arrangement": arrmod.to_json(arr),
        "class": res["class"],
        "beta": res["beta"],
        "nbc": [[p.j, p.k] for p in pairs],
        "incidence": {"vertices": h1.graph.n_vertices, "edges": len(h1.graph.edges), "b1": h1.graph.b1},
        "os_algebra": alg.to_json(),
        "double": dbl.to_json(),
        "homology": h1.to_json(),
        "intersection_ring": ring.to_json(),
        "isomorphism": _compare(_cohomology_of(ring), dbl).to_json(),
        "resonance": res,
    }


@dataclass(frozen=True, eq=True)
class LabelledAlgebra:
    """A finite graded algebra given by basis labels and structure constants.

    ``basis[d]`` lists the basis labels in degree d; degree 0 is spanned by
    the unit. ``products`` maps canonically ordered basis pairs (lower
    degree first; within a degree, lower basis index first) to sparse
    integer vectors over the target degree. Pairs that multiply to zero are
    omitted. Queries for non-canonical pairs are answered through graded
    commutativity: x y = (-1)^(deg x * deg y) y x, and odd squares vanish.
    """

    basis: tuple[tuple[str, ...], ...]
    products: dict[tuple[str, str], dict[str, int]]

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    @property
    def unit(self) -> str:
        return self.basis[0][0]

    def rank(self, degree: int) -> int:
        return len(self.basis[degree])

    @cached_property
    def _position(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for d, labels in enumerate(self.basis):
            for i, lab in enumerate(labels):
                out[lab] = (d, i)
        return out

    @cached_property
    def _mu(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, k, c) for each stored degree-one product x_i x_j = ... + c z_k, by basis index."""
        pos = self._position
        return tuple(
            (pos[x][1], pos[y][1], pos[z][1], c)
            for (x, y), vec in self.products.items()
            if pos[x][0] == pos[y][0] == 1
            for z, c in vec.items()
        )

    def degree_of(self, label: str) -> int:
        return self._position[label][0]

    def basis_product(self, x: str, y: str) -> dict[str, int]:
        """Structure constants of x y as a sparse vector, sign included."""
        dx, ix = self._position[x]
        dy, iy = self._position[y]
        if dx == 0:
            return {y: 1}
        if dy == 0:
            return {x: 1}
        if dx + dy > self.top_degree:
            return {}
        if (dx, ix) < (dy, iy):
            return dict(self.products.get((x, y), {}))
        if (dx, ix) == (dy, iy):
            if dx % 2:
                return {}
            return dict(self.products.get((x, y), {}))
        sign = -1 if (dx * dy) % 2 else 1
        return {lab: sign * c for lab, c in self.products.get((y, x), {}).items()}

    def _product_items(self) -> list[tuple[tuple[str, str], dict[str, int]]]:
        pos = self._position
        return sorted(self.products.items(), key=lambda kv: (pos[kv[0][0]], pos[kv[0][1]]))

    def to_json(self) -> dict:
        """Basis labels per degree plus the stored structure constants."""
        doc: dict = {f"degree{d}": list(labels) for d, labels in enumerate(self.basis)}
        doc["products"] = [
            {"x": x, "y": y, "value": {lab: c for lab, c in sorted(vec.items())}}
            for (x, y), vec in self._product_items()
        ]
        return doc


@dataclass(frozen=True, eq=True)
class LabelledDoubledAlgebra(LabelledAlgebra):
    """The double of a top-degree-two algebra; keeps a handle on the base."""

    base: LabelledAlgebra


def os_algebra_by_label(arr: Arrangement) -> LabelledAlgebra:
    """The Orlik-Solomon algebra of an arrangement, degrees 0..2."""
    n = arr.n
    points = arr.points
    e = [f"e{i}" for i in range(n + 1)]  # e[i] is the generator of line i; e[0] is unused
    pairs = nbc_set(arr)
    f_label = {(p.j, p.k): f"f({p.j},{p.k})" for p in pairs}
    products: dict[tuple[str, str], dict[str, int]] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            k = points[arr.point_of(i, j)][0]
            if k == 0:
                continue
            if k == i:
                vec = {f_label[(i, j)]: 1}
            else:
                vec = {f_label[(k, j)]: 1, f_label[(k, i)]: -1}
            products[(e[i], e[j])] = vec
    basis = (("1",), tuple(e[1:]), tuple(f_label.values()))
    return LabelledAlgebra(basis, products)


def double_by_label(alg: LabelledAlgebra) -> LabelledDoubledAlgebra:
    """The double of a graded algebra with top degree two.

    Degree 1 is the degree-one basis of ``alg`` followed by the duals of its
    degree-two basis; degree 2 is the degree-two basis followed by the duals
    of the degree-one basis; degree 3 is the dual of the unit. Both middle
    degrees have rank (rank A1 + rank A2).

    The a_j ~f_k block is read off the stored degree-one products in one
    pass: x y = c f gives y ~f -> c ~x and x ~f -> -c ~y. The intersection
    ring's F_a . F_b table copies the Orlik-Solomon case split of
    ``os_algebra``, so on that block ``verify_double_isomorphism`` compares
    two transcriptions of one rule.
    """
    if alg.top_degree != 2:
        raise DegreeError("doubling requires a graded algebra with top degree 2")
    a_labels = alg.basis[1]
    b_labels = alg.basis[2]
    dual = {lab: dual_label(lab) for lab in a_labels + b_labels}
    top = dual_label(alg.unit)
    deg1 = a_labels + tuple(dual[b] for b in b_labels)
    deg2 = b_labels + tuple(dual[a] for a in a_labels)
    pos = alg._position

    products: dict[tuple[str, str], dict[str, int]] = {}
    for (x, y), vec in alg.products.items():
        (dx, ix), (dy, iy) = pos[x], pos[y]
        if dx != 1 or dy != 1:
            continue
        products[(x, y)] = dict(vec)
        if ix >= iy:
            continue  # never read by basis_product
        for f, c in vec.items():
            if c:
                products.setdefault((y, dual[f]), {})[dual[x]] = c
                products.setdefault((x, dual[f]), {})[dual[y]] = -c
    # Complementary degrees pair as the identity on dual bases.
    for ai in a_labels:
        products[(ai, dual[ai])] = {top: 1}
    for bk in b_labels:
        products[(dual[bk], bk)] = {top: 1}

    basis = ((alg.unit,), deg1, deg2, (top,))
    return LabelledDoubledAlgebra(basis=basis, products=products, base=alg)


@dataclass(frozen=True, eq=True)
class LabelledIntersectionRing:
    """H_1, H_2, the intersection product, and the intersection pairing.

    ``products`` stores the product of H_2 classes on ordered pairs only
    (lower basis index first); queries are extended antisymmetrically and
    diagonal products are zero. The H_1 x H_2 pairing is the identity on
    dual bases (t_i with F_i, g_(j,k) with tau_(j,k)): ``h1_labels[i]`` is
    dual to ``h2_labels[i]``.
    """

    h1_labels: tuple[str, ...]
    h2_labels: tuple[str, ...]
    products: dict[tuple[str, str], dict[str, int]]

    @cached_property
    def _h2_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.h2_labels)}

    def product(self, x: str, y: str) -> dict[str, int]:
        """Intersection of two H_2 basis classes as a sparse H_1 vector."""
        ix = self._h2_index[x]
        iy = self._h2_index[y]
        if ix == iy:
            return {}
        if ix < iy:
            return dict(self.products.get((x, y), {}))
        return {lab: -c for lab, c in self.products.get((y, x), {}).items()}

    def pairing(self, h1: str, h2: str) -> int:
        """Intersection number of an H_1 class with an H_2 class."""
        if h1 not in self._dual_of:
            raise KeyError(h1)
        if h2 not in self._h2_index:
            raise KeyError(h2)
        return 1 if self._dual_of[h1] == h2 else 0

    @cached_property
    def _dual_of(self) -> dict[str, str]:
        return dict(zip(self.h1_labels, self.h2_labels))

    def to_json(self) -> dict:
        idx = self._h2_index
        return {
            "h1": list(self.h1_labels),
            "h2": list(self.h2_labels),
            "products": [
                {"x": x, "y": y, "value": {lab: c for lab, c in sorted(vec.items())}}
                for (x, y), vec in sorted(self.products.items(), key=lambda kv: (idx[kv[0][0]], idx[kv[0][1]]))
            ],
        }


def intersection_ring_by_label(arr: Arrangement) -> LabelledIntersectionRing:
    """The intersection ring of the boundary manifold, from the closed tables."""
    n = arr.n
    points = arr.points
    pairs = nbc_set(arr)
    t = [f"t{i}" for i in range(n + 1)]  # t[i] and F[i] belong to line i; index 0 is unused
    f_surf = [f"F{i}" for i in range(n + 1)]
    g = {(p.j, p.k): f"g({p.j},{p.k})" for p in pairs}
    tau = [f"tau({p.j},{p.k})" for p in pairs]

    products: dict[tuple[str, str], dict[str, int]] = {}

    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k = points[arr.point_of(a, b)][0]
            if k == 0:
                continue
            if k == a:
                vec = {g[(a, b)]: 1}
            else:
                vec = {g[(k, b)]: 1, g[(k, a)]: -1}
            products[(f_surf[a], f_surf[b])] = vec

    # F_i . tau is zero unless line i lies in the pair's point: list, for
    # each line, the pairs whose point contains it, in nbc order.
    through: list[list[int]] = [[] for _ in range(n + 1)]
    for idx, p in enumerate(pairs):
        for m in points[p.point]:
            through[m].append(idx)
    for i in range(1, n + 1):
        for idx in through[i]:
            k = pairs[idx].k
            if i == k:
                vec = {t[m]: 1 for m in points[pairs[idx].point] if m != i}
            else:
                vec = {t[k]: -1}
            products[(f_surf[i], tau[idx])] = vec

    # Position i of h1 is dual to position i of h2: t_i <-> F_i, g <-> tau.
    h2 = tuple(f_surf[1:]) + tuple(tau)
    h1 = tuple(t[1:]) + tuple(g.values())
    return LabelledIntersectionRing(h1, h2, products)


def cohomology_of_by_label(ring: LabelledIntersectionRing) -> LabelledAlgebra:
    """``cohomology_ring`` of the arrangement whose intersection ring is ``ring``."""
    # PD(F_i) = ~t_i and PD(tau) = ~g in degree one; PD(t_i) = ~F_i and
    # PD(g) = ~tau in degree two. The H_1 and H_2 bases are in dual order.
    deg1 = tuple(map(dual_label, ring.h1_labels))
    deg2 = tuple(map(dual_label, ring.h2_labels))
    pd1 = dict(zip(ring.h2_labels, deg1))  # H_2 class -> its PD in degree 1
    pd2 = dict(zip(ring.h1_labels, deg2))  # H_1 class -> its PD in degree 2

    # H_2 is ordered as the duals of H_1: a stored pair stays canonical.
    idx = ring._h2_index
    products: dict[tuple[str, str], dict[str, int]] = {}
    for (x, y), vec in ring.products.items():
        if vec and idx[x] < idx[y]:
            products[(pd1[x], pd1[y])] = {pd2[lab]: c for lab, c in vec.items()}
    for x, y in zip(deg1, deg2):
        # complementary degrees pair as the identity, into the top class
        products[(x, y)] = {"pt": 1}

    basis = (("1",), deg1, deg2, ("pt",))
    return LabelledAlgebra(basis, products)


@dataclass(frozen=True, eq=True)
class IndexedIntersectionRing:
    """H_1, H_2, the intersection product, and the intersection pairing.

    ``products`` maps ordered pairs of H_2 basis indices (lower index
    first) to sparse vectors over H_1 basis indices; the label queries
    extend it antisymmetrically, and diagonal products are zero. The
    H_1 x H_2 pairing is the identity on dual bases (t_i with F_i, g_(j,k)
    with tau_(j,k)): ``h1_labels[i]`` is dual to ``h2_labels[i]``.
    """

    h1_labels: tuple[str, ...]
    h2_labels: tuple[str, ...]
    products: dict[tuple[int, int], dict[int, int]]

    @cached_property
    def _h2_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.h2_labels)}

    def product(self, x: str, y: str) -> dict[str, int]:
        """Intersection of two H_2 basis classes as a sparse H_1 vector."""
        ix = self._h2_index[x]
        iy = self._h2_index[y]
        if ix == iy:
            return {}
        sign = -1 if ix > iy else 1
        h1 = self.h1_labels
        return {h1[z]: sign * c for z, c in self.products.get((min(ix, iy), max(ix, iy)), {}).items()}

    def pairing(self, h1: str, h2: str) -> int:
        """Intersection number of an H_1 class with an H_2 class."""
        if h1 not in self._dual_of:
            raise KeyError(h1)
        if h2 not in self._h2_index:
            raise KeyError(h2)
        return 1 if self._dual_of[h1] == h2 else 0

    @cached_property
    def _dual_of(self) -> dict[str, str]:
        return dict(zip(self.h1_labels, self.h2_labels))

    def json_doc(self) -> dict:
        """``to_json`` with the intersection products left as a ``ProductList``."""
        return {
            "h1": list(self.h1_labels),
            "h2": list(self.h2_labels),
            "products": ProductList(self.products, self.h2_labels, self.h1_labels),
        }

    def to_json(self) -> dict:
        doc = self.json_doc()
        doc["products"] = doc["products"].to_json()
        return doc


def intersection_ring_by_index(arr: Arrangement) -> IndexedIntersectionRing:
    """The intersection ring of the boundary manifold, from the closed tables.

    F_i and t_i have index i - 1, and tau and g of the q-th nbc pair n + q.
    """
    n = arr.n
    points = arr.points
    pair_index = arr._pair_index  # (a, b) -> its point, as point_of gives it for a < b
    pairs = nbc_set(arr)
    g = {(p.j, p.k): n + q for q, p in enumerate(pairs)}

    products: dict[tuple[int, int], dict[int, int]] = {}

    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k = points[pair_index[(a, b)]][0]
            if k == 0:
                continue
            if k == a:
                products[(a - 1, b - 1)] = {g[(a, b)]: 1}
            else:
                products[(a - 1, b - 1)] = {g[(k, b)]: 1, g[(k, a)]: -1}

    # F_i . tau is zero unless line i lies in the pair's point: list, for
    # each line, the pairs whose point contains it, in nbc order.
    through: list[list[int]] = [[] for _ in range(n + 1)]
    for q, p in enumerate(pairs):
        for m in points[p.point]:
            through[m].append(q)
    for i in range(1, n + 1):
        for q in through[i]:
            k = pairs[q].k
            if i == k:
                vec = products[(i - 1, n + q)] = {}
                for m in points[pairs[q].point]:
                    if m != i:
                        vec[m - 1] = 1
            else:
                products[(i - 1, n + q)] = {k - 1: -1}

    # Position i of h1 is dual to position i of h2: t_i <-> F_i, g <-> tau.
    h2 = tuple(f"F{i}" for i in range(1, n + 1)) + tuple(f"tau({p.j},{p.k})" for p in pairs)
    h1 = tuple(f"t{i}" for i in range(1, n + 1)) + tuple(f"g({p.j},{p.k})" for p in pairs)
    return IndexedIntersectionRing(h1, h2, products)


def cohomology_of_by_index(ring: IndexedIntersectionRing, n: int) -> GradedAlgebra:
    """``cohomology_ring`` of the arrangement of n lines whose intersection ring is ``ring``."""
    # PD(F_i) = ~t_i and PD(tau) = ~g in degree one; PD(g) = ~tau and then
    # PD(t_i) = ~F_i in degree two. H_2 index i is flat position 1 + i, and
    # H_1 index z, the dual of H_2 index z, is pd[z].
    h = len(ring.h1_labels)
    pd = [1 + h + (z - n) % h for z in range(h)]
    products: dict[tuple[int, int], dict[int, int]] = {}
    for (x, y), vec in ring.products.items():
        if vec and x < y:
            row = products[(x + 1, y + 1)] = {}
            for z, c in vec.items():  # a loop, not a comprehension: no frame per product
                row[pd[z]] = c
    for p in range(1, h + 1):
        # complementary degrees pair as the identity, into the top class
        products[(p, pd[p - 1])] = {2 * h + 1: 1}

    h2 = ring.h2_labels
    basis = (("1",), tuple(map(dual_label, ring.h1_labels)), tuple(map(dual_label, h2[n:] + h2[:n])), ("pt",))
    return GradedAlgebra(basis, products)


def cohomology_of_t_first(ring: IndexedIntersectionRing) -> GradedAlgebra:
    """``cohomology_ring`` of the arrangement whose intersection ring is ``ring``."""
    # PD(F_i) = ~t_i and PD(tau) = ~g in degree one; PD(t_i) = ~F_i and
    # PD(g) = ~tau in degree two. The H_1 and H_2 bases are in dual order,
    # so H_2 index i is flat position 1 + i and H_1 index i is 1 + h + i.
    h = len(ring.h1_labels)
    products: dict[tuple[int, int], dict[int, int]] = {}
    for (x, y), vec in ring.products.items():
        if vec and x < y:
            row = products[(x + 1, y + 1)] = {}
            for z, c in vec.items():  # a loop, not a comprehension: no frame per product
                row[z + h + 1] = c
    for p in range(1, h + 1):
        # complementary degrees pair as the identity, into the top class
        products[(p, p + h)] = {2 * h + 1: 1}

    basis = (("1",), tuple(map(dual_label, ring.h1_labels)), tuple(map(dual_label, ring.h2_labels)), ("pt",))
    return GradedAlgebra(basis, products)


def compare_by_permutation(coh: GradedAlgebra, dbl: DoubledAlgebra) -> IsomorphismReport:
    """``verify_double_isomorphism`` of an arrangement's cohomology ring and double."""
    # phi is the module docstring's correspondence, by flat position.
    r1, r2 = dbl.base.rank(1), dbl.base.rank(2)
    o2 = 1 + r1 + r2  # the first degree-two position in both rings
    phi = (*range(o2), *range(o2 + r2, o2 + r1 + r2), *range(o2, o2 + r2), o2 + r1 + r2)
    lhs: dict[tuple[int, int], dict[int, int]] = {}
    for (x, y), vec in _canonical_products(coh).items():
        row = lhs[(x, phi[y])] = {}
        for z, c in vec.items():
            row[phi[z]] = c
    # lhs holds canonical products only, so equal to all of dbl's, it is
    # equal to dbl's canonical ones; the filter runs only when that fails.
    if lhs == dbl.products or lhs == (rhs := _canonical_products(dbl)):
        return IsomorphismReport(ok=True, mismatches=())

    # Labels only from here on: each mismatch in both orders, sorted by
    # (degree, degree, position, position) of the cohomology classes.
    back = {p: q for q, p in enumerate(phi)}
    found = []
    for key in lhs.keys() | rhs.keys():
        left, right = lhs.get(key, {}), rhs.get(key, {})
        if left != right:
            x, y = key[0], back[key[1]]
            dy = 1 if y < o2 else 2
            found.append(((1, dy, x, y), 1, left, right))
            found.append(((dy, 1, y, x), -1 if dy == 1 else 1, left, right))
    found.sort(key=lambda m: m[0])
    labels, dbl_labels = coh._labels, dbl._labels
    return IsomorphismReport(ok=False, mismatches=tuple(
        (labels[x], labels[y], {dbl_labels[z]: sign * c for z, c in left.items()},
         {dbl_labels[z]: sign * c for z, c in right.items()})
        for (_, _, x, y), sign, left, right in found
    ))


# Cohomology label prefix -> double label prefix; ~tau is tested before ~t.
_DOUBLE_PREFIX = (("~tau", "f"), ("~t", "e"), ("~g", "~f"), ("~F", "~e"))


def basis_map_by_label(coh: LabelledAlgebra, dbl: LabelledDoubledAlgebra) -> dict[str, str]:
    """The module docstring's correspondence, by label, so in either order of
    degree two: ~t_i -> e_i, ~g -> ~f, ~tau -> f, ~F_i -> ~e_i, 1 -> 1 and
    pt -> ~1, as ``_label_map`` gives it."""
    out = {coh.unit: dbl.unit, coh.basis[3][0]: dual_label(dbl.base.unit)}
    for lab in coh.basis[1] + coh.basis[2]:
        old, new = next(pair for pair in _DOUBLE_PREFIX if lab.startswith(pair[0]))
        out[lab] = new + lab[len(old):]
    return out


def canonical_products_by_label(alg: LabelledAlgebra) -> dict[tuple[str, str], dict[str, int]]:
    """The nonzero stored products of a ring of top degree 3 on degree 1 x 1
    pairs (lower basis index first) and degree 1 x 2 pairs. Every other
    product on degrees 1 x 1, 1 x 2 and 2 x 1 follows from these by graded
    commutativity; the rest are zero."""
    deg1 = {lab: i for i, lab in enumerate(alg.basis[1])}
    deg2 = set(alg.basis[2])
    return {
        (x, y): vec
        for (x, y), vec in alg.products.items()
        if vec and x in deg1 and (y in deg2 or deg1.get(y, -1) > deg1[x])
    }


def compare_by_label(coh: LabelledAlgebra, dbl: LabelledDoubledAlgebra) -> IsomorphismReport:
    """``verify_double_isomorphism`` of an arrangement's cohomology ring and double."""
    phi = basis_map_by_label(coh, dbl)
    lhs = {
        (phi[x], phi[y]): {phi[lab]: c for lab, c in vec.items()}
        for (x, y), vec in canonical_products_by_label(coh).items()
    }
    rhs = canonical_products_by_label(dbl)
    if lhs == rhs:
        return IsomorphismReport(ok=True, mismatches=())

    back = {v: k for k, v in phi.items()}
    pos = coh._position
    mismatches = []
    for key in lhs.keys() | rhs.keys():
        left, right = lhs.get(key, {}), rhs.get(key, {})
        if left != right:
            x, y = back[key[0]], back[key[1]]
            sign = -1 if pos[y][0] == 1 else 1
            mismatches.append((x, y, left, dict(right)))
            mismatches.append((y, x, {lab: sign * c for lab, c in left.items()},
                               {lab: sign * c for lab, c in right.items()}))
    mismatches.sort(key=lambda m: (pos[m[0]][0], pos[m[1]][0], pos[m[0]][1], pos[m[1]][1]))
    return IsomorphismReport(ok=False, mismatches=tuple(mismatches))


def in_double_order(coh: LabelledAlgebra, n: int) -> LabelledAlgebra:
    """A cohomology ring of an arrangement of n lines built here, whose degree
    two lists PD(t) and then PD(g), in the package's order, that of the
    double: degree two rotated left by n, PD(g) first. Products are keyed by
    label and stay as they are."""
    unit, deg1, deg2, top = coh.basis
    return LabelledAlgebra((unit, deg1, deg2[n:] + deg2[:n], top), coh.products)


def relabel(
    obj: GradedAlgebra | IndexedIntersectionRing,
) -> LabelledAlgebra | LabelledIntersectionRing:
    """A package algebra, double or intersection ring, whose structure
    constants refer to basis positions, as the label-keyed class that it
    replaced: each position is read through the basis labels, and products
    and vectors keep their insertion order. An ``IndexedIntersectionRing``
    is read through its separate H_2 and H_1 index spaces. The package's
    ``IntersectionRing`` is a ``GradedAlgebra``, so it is tested for first."""
    if isinstance(obj, (IntersectionRing, IndexedIntersectionRing)):
        h1, h2 = obj.h1_labels, obj.h2_labels
        xy, z_labels = (obj._labels, obj._labels) if isinstance(obj, IntersectionRing) else (h2, h1)
        products = {
            (xy[x], xy[y]): {z_labels[z]: c for z, c in vec.items()} for (x, y), vec in obj.products.items()
        }
        return LabelledIntersectionRing(h1, h2, products)
    labels = sum(obj.basis, ())
    products = {(labels[x], labels[y]): {labels[z]: c for z, c in vec.items()} for (x, y), vec in obj.products.items()}
    if isinstance(obj, DoubledAlgebra):
        return LabelledDoubledAlgebra(basis=obj.basis, products=products, base=relabel(obj.base))
    return LabelledAlgebra(obj.basis, products)


def double(alg: LabelledAlgebra) -> LabelledDoubledAlgebra:
    """The double of a graded algebra with top degree two.

    Degree 1 is the degree-one basis of ``alg`` followed by the duals of its
    degree-two basis; degree 2 is the degree-two basis followed by the duals
    of the degree-one basis; degree 3 is the dual of the unit. Both middle
    degrees have rank (rank A1 + rank A2).
    """
    if alg.top_degree != 2:
        raise DegreeError("doubling requires a graded algebra with top degree 2")
    a_labels = alg.basis[1]
    b_labels = alg.basis[2]
    top = dual_label(alg.unit)
    deg1 = a_labels + tuple(dual_label(b) for b in b_labels)
    deg2 = b_labels + tuple(dual_label(a) for a in a_labels)

    products: dict[tuple[str, str], dict[str, int]] = {}
    for pair, vec in alg.products.items():
        if alg.degree_of(pair[0]) == 1 and alg.degree_of(pair[1]) == 1:
            products[pair] = dict(vec)
    # A degree-one generator against a dualized degree-two generator lands in
    # dualized degree-one generators, with the structure constants of the base.
    for aj in a_labels:
        for bk in b_labels:
            vec = {}
            for ai in a_labels:
                c = alg.basis_product(ai, aj).get(bk, 0)
                if c:
                    vec[dual_label(ai)] = c
            if vec:
                products[(aj, dual_label(bk))] = vec
    # Complementary degrees pair as the identity on dual bases.
    for ai in a_labels:
        products[(ai, dual_label(ai))] = {top: 1}
    for bk in b_labels:
        products[(dual_label(bk), bk)] = {top: 1}

    basis = ((alg.unit,), deg1, deg2, (top,))
    return LabelledDoubledAlgebra(basis=basis, products=products, base=alg)


def os_algebra(arr: Arrangement) -> LabelledAlgebra:
    """The Orlik-Solomon algebra of an arrangement, degrees 0..2."""
    n = arr.n
    e_labels = tuple(f"e{i}" for i in range(1, n + 1))
    pairs = nbc_set(arr)
    f_label = {(p.j, p.k): f"f({p.j},{p.k})" for p in pairs}
    products: dict[tuple[str, str], dict[str, int]] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pt = arr.points[arr.point_of(i, j)]
            k = pt[0]
            if k == 0:
                continue
            if k == i:
                vec = {f_label[(i, j)]: 1}
            else:
                vec = {f_label[(k, j)]: 1, f_label[(k, i)]: -1}
            products[(f"e{i}", f"e{j}")] = vec
    basis = (("1",), e_labels, tuple(f_label[(p.j, p.k)] for p in pairs))
    return LabelledAlgebra(basis, products)


def double_one_pass(alg: LabelledAlgebra) -> LabelledDoubledAlgebra:
    """The double of a graded algebra with top degree two.

    Degree 1 is the degree-one basis of ``alg`` followed by the duals of its
    degree-two basis; degree 2 is the degree-two basis followed by the duals
    of the degree-one basis; degree 3 is the dual of the unit. Both middle
    degrees have rank (rank A1 + rank A2).

    The a_j ~f_k block is read off the stored degree-one products in one
    pass: x y = c f gives y ~f -> c ~x and x ~f -> -c ~y. The intersection
    ring's F_a . F_b table copies the Orlik-Solomon case split of
    ``os_algebra``, so on that block ``verify_double_isomorphism`` compares
    two transcriptions of one rule.
    """
    if alg.top_degree != 2:
        raise DegreeError("doubling requires a graded algebra with top degree 2")
    a_labels = alg.basis[1]
    b_labels = alg.basis[2]
    top = dual_label(alg.unit)
    deg1 = a_labels + tuple(dual_label(b) for b in b_labels)
    deg2 = b_labels + tuple(dual_label(a) for a in a_labels)
    pos = alg._position

    products: dict[tuple[str, str], dict[str, int]] = {}
    for (x, y), vec in alg.products.items():
        (dx, ix), (dy, iy) = pos[x], pos[y]
        if dx != 1 or dy != 1:
            continue
        products[(x, y)] = dict(vec)
        if ix >= iy:
            continue  # never read by basis_product
        for f, c in vec.items():
            if c:
                products.setdefault((y, dual_label(f)), {})[dual_label(x)] = c
                products.setdefault((x, dual_label(f)), {})[dual_label(y)] = -c
    # Complementary degrees pair as the identity on dual bases.
    for ai in a_labels:
        products[(ai, dual_label(ai))] = {top: 1}
    for bk in b_labels:
        products[(dual_label(bk), bk)] = {top: 1}

    basis = ((alg.unit,), deg1, deg2, (top,))
    return LabelledDoubledAlgebra(basis=basis, products=products, base=alg)


def eager_double(alg: GradedAlgebra) -> GradedAlgebra:
    """The double of a graded algebra with top degree two.

    Degree 1 is the degree-one basis of ``alg`` followed by the duals of its
    degree-two basis; degree 2 is the degree-two basis followed by the duals
    of the degree-one basis; degree 3 is the dual of the unit. Both middle
    degrees have rank N = r1 + r2. By flat position, with p a position of
    ``alg``: an element of A1 keeps p and its dual sits at p + r1 + 2 r2; the
    dual of an element of A2 keeps p and the element itself moves to p + r2.

    The a_j ~f_k block is read off the stored degree-one products in one
    pass: x y = c f gives y ~f -> c ~x and x ~f -> -c ~y. The intersection
    ring's F_a . F_b table copies the Orlik-Solomon case split of
    ``os_algebra``, so on that block ``verify_double_isomorphism`` compares
    two transcriptions of one rule.
    """
    if alg.top_degree != 2:
        raise DegreeError("doubling requires a graded algebra with top degree 2")
    a_labels = alg.basis[1]
    b_labels = alg.basis[2]
    r1, r2 = len(a_labels), len(b_labels)
    shift = r1 + 2 * r2  # A1 position -> its dual's position
    top = 2 * (r1 + r2) + 1

    products: dict[tuple[int, int], dict[int, int]] = {}
    for (x, y), vec in alg.products.items():
        if not (0 < x <= r1 and 0 < y <= r1):
            continue
        row = products[(x, y)] = {}
        for f, c in vec.items():
            row[f + r2] = c
            if c and x < y:  # a pair in the other order is never read by basis_product
                products.setdefault((y, f), {})[x + shift] = c
                products.setdefault((x, f), {})[y + shift] = -c
    # Complementary degrees pair as the identity on dual bases.
    for p in range(1, r1 + 1):
        products[(p, p + shift)] = {top: 1}
    for p in range(r1 + 1, r1 + r2 + 1):
        products[(p, p + r2)] = {top: 1}

    dual_a = tuple(map(dual_label, a_labels))
    dual_b = tuple(map(dual_label, b_labels))
    basis = ((alg.unit,), a_labels + dual_b, b_labels + dual_a, (dual_label(alg.unit),))
    return GradedAlgebra(basis, products)


def double_with_products(dbl: DoubledAlgebra, products: dict) -> DoubledAlgebra:
    """A double of ``dbl.base`` whose table reads as ``products``, for the
    tests that tamper the doubling side of the ring check. The package's
    double takes only its base and builds its table on first read; this
    fills that read in advance."""
    fake = DoubledAlgebra(dbl.base)
    vars(fake)["products"] = products
    return fake


@cache
def dataclass_twin(cls: type) -> type:
    """The frozen dataclass on the fields of ``cls``, under its name: the
    record that ``@dataclass(frozen=True)`` made of each package class before
    they derived from ``arrangement.Frozen``, without their methods and
    checks. It generates its ``__init__``, ``__eq__``, ``__hash__``,
    ``__repr__``, ``__setattr__`` and ``__delattr__`` when it is made."""
    return make_dataclass(cls.__name__, cls._fields, frozen=True)


def intersection_ring(arr: Arrangement) -> LabelledIntersectionRing:
    """The intersection ring of the boundary manifold, from the closed tables."""
    n = arr.n
    pairs = nbc_set(arr)
    t = [f"t{i}" for i in range(1, n + 1)]
    g = {(p.j, p.k): f"g({p.j},{p.k})" for p in pairs}
    f_surf = [f"F{i}" for i in range(1, n + 1)]
    tau = {(p.j, p.k): f"tau({p.j},{p.k})" for p in pairs}

    products: dict[tuple[str, str], dict[str, int]] = {}

    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            pt = arr.points[arr.point_of(a, b)]
            k = pt[0]
            if k == 0:
                continue
            if k == a:
                vec = {g[(a, b)]: 1}
            else:
                vec = {g[(k, b)]: 1, g[(k, a)]: -1}
            products[(f"F{a}", f"F{b}")] = vec

    for i in range(1, n + 1):
        for p in pairs:
            pt = arr.points[p.point]
            if i == p.k:
                vec = {f"t{m}": 1 for m in pt if m != i}
            elif i in pt:
                vec = {f"t{p.k}": -1}
            else:
                continue
            products[(f"F{i}", tau[(p.j, p.k)])] = vec

    # Position i of h1 is dual to position i of h2: t_i <-> F_i, g <-> tau.
    h2 = tuple(f_surf) + tuple(tau[(p.j, p.k)] for p in pairs)
    h1 = tuple(t) + tuple(g[(p.j, p.k)] for p in pairs)
    return LabelledIntersectionRing(h1, h2, products)


def _dual_surface(h1_label: str) -> str:
    # t3 <-> F3, g(1,2) <-> tau(1,2)
    if h1_label.startswith("t"):
        return "F" + h1_label[1:]
    return "tau" + h1_label[1:]


def cohomology_ring(arr: Arrangement) -> LabelledAlgebra:
    """The cohomology ring of the boundary manifold, degrees 0..3.

    Degree-one classes are the Poincare duals of the H_2 basis and carry the
    labels ~t_i, ~g_(j,k); degree-two classes are the duals of the H_1 basis,
    labelled ~F_i, ~tau_(j,k); the top class is the dual of a point, "pt".
    Cup products of degree-one classes are the intersection products of the
    dual surfaces, rewritten through duality; degree one cups degree two as
    the identity pairing into pt.
    """
    ring = intersection_ring(arr)
    h1 = ring.h1_labels
    # PD(F_i) = ~t_i and PD(tau) = ~g in degree one; PD(t_i) = ~F_i and
    # PD(g) = ~tau in degree two.
    deg1 = tuple("~" + lab for lab in h1)
    deg2 = tuple("~" + _dual_surface(lab) for lab in h1)
    pd2 = {lab: "~" + _dual_surface(lab) for lab in h1}  # H_1 class -> its PD in degree 2

    products: dict[tuple[str, str], dict[str, int]] = {}
    for a in range(len(h1)):
        for b in range(a + 1, len(h1)):
            vec = ring.product(_dual_surface(h1[a]), _dual_surface(h1[b]))
            if vec:
                products[("~" + h1[a], "~" + h1[b])] = {pd2[lab]: c for lab, c in vec.items()}
    for lab in h1:
        # complementary degrees pair as the identity, into the top class
        products[("~" + lab, pd2[lab])] = {"pt": 1}

    basis = (("1",), deg1, deg2, ("pt",))
    return LabelledAlgebra(basis, products)


def _label_map(arr: Arrangement, dbl: LabelledDoubledAlgebra) -> dict[str, str]:
    """Cohomology basis label -> double basis label, via Poincare duality."""
    n = arr.n
    out = {"1": dbl.unit, "pt": dual_label(dbl.base.unit)}
    for i in range(1, n + 1):
        out[f"~t{i}"] = f"e{i}"
        out[f"~F{i}"] = dual_label(f"e{i}")
    for p in nbc_set(arr):
        out[f"~g({p.j},{p.k})"] = dual_label(f"f({p.j},{p.k})")
        out[f"~tau({p.j},{p.k})"] = f"f({p.j},{p.k})"
    return out


def verify_double_isomorphism(arr: Arrangement) -> IsomorphismReport:
    """Compare all ordered structure constants of the two rings.

    Builds the cohomology ring from the geometric product tables and the
    double of the Orlik-Solomon algebra from the doubling construction, maps
    the cohomology basis onto the double's basis, and compares the products
    of every ordered basis pair in degrees one times one and one times two
    (both orders). Returns a report rather than raising, so callers can
    surface the exact mismatching pairs.
    """
    coh = cohomology_ring(arr)
    dbl = double(os_algebra(arr))
    phi = _label_map(arr, dbl)

    mismatches: list[tuple[str, str, dict, dict]] = []
    deg1 = coh.basis[1]
    deg2 = coh.basis[2]
    test_pairs = [(x, y) for x in deg1 for y in deg1]
    test_pairs += [(x, y) for x in deg1 for y in deg2]
    test_pairs += [(x, y) for x in deg2 for y in deg1]
    for x, y in test_pairs:
        lhs = {phi[lab]: c for lab, c in coh.basis_product(x, y).items()}
        rhs = dbl.basis_product(phi[x], phi[y])
        if lhs != rhs:
            mismatches.append((x, y, lhs, rhs))
    return IsomorphismReport(ok=not mismatches, mismatches=tuple(mismatches))


def _ordered_products(alg: LabelledAlgebra) -> dict[tuple[str, str], dict[str, int]]:
    """``basis_product`` on degree 1 x 1 and 1 x 2 pairs, both orders, read
    off the stored products of a ring of top degree 3; other pairs are zero."""
    pos = alg._position
    out: dict[tuple[str, str], dict[str, int]] = {}
    for (x, y), vec in alg.products.items():
        (dx, ix), (dy, iy) = pos[x], pos[y]
        if dx != 1 or dy not in (1, 2) or (dx, ix) >= (dy, iy):
            continue
        out[(x, y)] = vec
        out[(y, x)] = {lab: -c for lab, c in vec.items()} if dy == 1 else vec
    return out


def compare(coh: LabelledAlgebra, dbl: LabelledDoubledAlgebra) -> IsomorphismReport:
    """``verify_double_isomorphism`` of an arrangement's cohomology ring and double."""
    phi = basis_map_by_label(coh, dbl)
    back = {v: k for k, v in phi.items()}

    lhs_table = {
        (phi[x], phi[y]): {phi[lab]: c for lab, c in vec.items()}
        for (x, y), vec in _ordered_products(coh).items()
    }
    rhs_table = _ordered_products(dbl)
    mismatches = []
    for x, y in lhs_table.keys() | rhs_table.keys():
        lhs = lhs_table.get((x, y), {})
        rhs = rhs_table.get((x, y), {})
        if lhs != rhs:
            mismatches.append((back[x], back[y], lhs, dict(rhs)))
    pos = coh._position
    mismatches.sort(key=lambda m: (pos[m[0]][0], pos[m[1]][0], pos[m[0]][1], pos[m[1]][1]))
    return IsomorphismReport(ok=not mismatches, mismatches=tuple(mismatches))


def exact_point(a, b) -> AomotoPoint:
    """The point (a, b) with every coordinate read by ``Fraction``, so that a
    string such as "1/2" is exact."""
    return AomotoPoint(tuple(map(Fraction, a)), tuple(map(Fraction, b)))


@dataclass(frozen=True)
class AomotoComplex:
    """The three differentials of the complex at a fixed point."""

    d1: RatMatrix  # 1 x N
    d2: RatMatrix  # N x N
    d3: RatMatrix  # N x 1


def _mu_rows(alg: LabelledAlgebra) -> dict[tuple[int, int], dict[int, int]]:
    """Structure constants on stored degree-one pairs, by basis index."""
    deg1 = {lab: i for i, lab in enumerate(alg.basis[1])}
    deg2 = {lab: k for k, lab in enumerate(alg.basis[2])}
    out: dict[tuple[int, int], dict[int, int]] = {}
    for (x, y), vec in alg.products.items():
        if x in deg1 and y in deg1:
            out[(deg1[x], deg1[y])] = {deg2[lab]: c for lab, c in vec.items()}
    return out


def _check_length(coords: Sequence[Fraction], want: int, what: str) -> None:
    if len(coords) != want:
        raise DimensionMismatch(f"{what} has {len(coords)} coordinates, expected {want}")


def delta_matrix(alg: LabelledAlgebra, a: Sequence[Fraction]) -> RatMatrix:
    """The r1 x r2 matrix Delta(a)[j, k] = sum_i mu[i, j, k] a_i."""
    r1 = alg.rank(1)
    r2 = alg.rank(2)
    a = tuple(Fraction(x) for x in a)
    _check_length(a, r1, "a")
    rows = [[Fraction(0)] * r2 for _ in range(r1)]
    for (i, j), vec in _mu_rows(alg).items():
        for k, c in vec.items():
            rows[j][k] += c * a[i]
            rows[i][k] -= c * a[j]
    return RatMatrix.from_rows(rows) if r1 else RatMatrix(0, r2, ())


def phi_matrix(alg: LabelledAlgebra, b: Sequence[Fraction]) -> RatMatrix:
    """The antisymmetric r1 x r1 matrix Phi(b)[i, j] = sum_k mu[i, j, k] b_k."""
    r1 = alg.rank(1)
    r2 = alg.rank(2)
    b = tuple(Fraction(x) for x in b)
    _check_length(b, r2, "b")
    rows = [[Fraction(0)] * r1 for _ in range(r1)]
    for (i, j), vec in _mu_rows(alg).items():
        s = sum((c * b[k] for k, c in vec.items()), Fraction(0))
        rows[i][j] = s
        rows[j][i] = -s
    return RatMatrix.from_rows(rows) if r1 else RatMatrix(0, 0, ())


def aomoto_complex(dbl: LabelledDoubledAlgebra, pt: AomotoPoint) -> AomotoComplex:
    """Assemble the differentials at a point and assert the chain identities."""
    base = dbl.base
    r1 = base.rank(1)
    r2 = base.rank(2)
    a = tuple(Fraction(x) for x in pt.a)
    b = tuple(Fraction(x) for x in pt.b)
    _check_length(a, r1, "a")
    _check_length(b, r2, "b")
    n = r1 + r2

    delta = delta_matrix(base, a)
    phi = phi_matrix(base, b)

    d1 = RatMatrix(1, n, a + b)
    rows = []
    for i in range(r1):
        rows.append(list(phi.row(i)) + list(delta.row(i)))
    dt = delta.transpose()
    for k in range(r2):
        rows.append([-x for x in dt.row(k)] + [Fraction(0)] * r2)
    d2 = RatMatrix.from_rows(rows) if n else RatMatrix(0, 0, ())
    d3 = RatMatrix(n, 1, a + b)

    if n and not (d1 @ d2).is_zero():
        raise ChainConditionViolated("d1 . d2 != 0")
    if n and not (d2 @ d3).is_zero():
        raise ChainConditionViolated("d2 . d3 != 0")
    return AomotoComplex(d1, d2, d3)


def betti_numbers(dbl: LabelledDoubledAlgebra, pt: AomotoPoint) -> tuple[int, int, int, int]:
    """All four Betti numbers of the complex at the point.

    Cochains are row vectors, so the kernel of d acting from degree k has
    dimension (rows of d) - rank d, and the k-th Betti number is
    dim ker d_(k+1) - rank d_k, with the outer differentials zero.
    """
    cx = aomoto_complex(dbl, pt)
    n = cx.d1.cols
    dims = (1, n, n, 1)
    ranks = (0, rank(cx.d1), rank(cx.d2), rank(cx.d3), 0)
    return tuple(dims[k] - ranks[k + 1] - ranks[k] for k in range(4))


def betti(dbl: LabelledDoubledAlgebra, pt: AomotoPoint, k: int) -> int:
    """The k-th Betti number of the complex at the point, k in 0..3."""
    if not 0 <= k <= 3:
        raise ValueError("degree k must be between 0 and 3")
    return betti_numbers(dbl, pt)[k]


def generic_betti(dbl: LabelledDoubledAlgebra, k: int, trials: int = 5, seed: int = 0) -> int:
    """Minimum k-th Betti number over seeded random sample points.

    Betti numbers can only jump up on proper subvarieties, so the minimum
    over a few random points is the generic value with overwhelming margin;
    sampling is deterministic in (seed, trials) via ``trial_seed``.
    """
    best: int | None = None
    for t in range(trials):
        pt = sample_point(dbl, random.Random(trial_seed(seed, t)))
        val = betti(dbl, pt, k)
        best = val if best is None else min(best, val)
    if best is None:
        raise ValueError("at least one trial is required")
    return best


def rank_mod_p(m: RatMatrix) -> int:
    """Rank modulo the prime 2^31 - 1 of m with each row scaled to integers.

    Scaling a row by a nonzero rational does not change the rank, and a
    minor of an integer matrix that is nonzero mod p is nonzero, so the
    result is at most ``rank(m)``.
    """
    p = 2**31 - 1
    rows = [[x % p for x in clear_denominators(m.row(i))] for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        r += 1
        if r == len(rows):
            break
    return r


def left_kernel(m: RatMatrix) -> tuple[int, list[list[int]]]:
    """The rank of m and an integer basis of {y : y m = 0}, one row per vector.

    Scaling each row of [m | I] to integers gives [D m | D]. Bareiss elimination
    with pivots in m keeps every row [z m | z] with independent z, and past the
    rank z m = 0.
    """
    rows = [clear_denominators(m.row(i) + (0,) * i + (1,) + (0,) * (m.rows - 1 - i)) for i in range(m.rows)]
    r = _bareiss(rows, m.cols)[0]
    return r, [row[m.cols :] for row in rows[r:]]


def _restricted_phi(phi: RatMatrix, kernel: list[list[int]]) -> IntMatrix:
    """-K Phi K^T over the integers, K the rows of ``kernel`` and Phi integral."""
    rows = phi.to_rows()
    k_phi = [[sum(map(mul, row, y)) for row in rows] for y in kernel]  # K Phi^T = -K Phi
    return IntMatrix(len(kernel), len(kernel), tuple(sum(map(mul, t, y)) for t in k_phi for y in kernel))


def block_betti_numbers(dbl: DoubledAlgebra, pt: AomotoPoint) -> tuple[int, int, int, int]:
    """All four Betti numbers of the complex at the point.

    Cochains are row vectors, so the kernel of d acting from degree k has
    dimension (rows of d) - rank d, and the k-th Betti number is
    dim ker d_(k+1) - rank d_k, with the outer differentials zero. The rank
    of d2 is 2 (r1 - 1) when the witness of the module docstring holds, and
    comes from the block rank otherwise, both at the integer point of Scaling.
    """
    cx = block_complex(dbl, AomotoPoint(tuple(clear_denominators(pt.a)), tuple(clear_denominators(pt.b))))
    r1, r2 = cx.delta.rows, cx.delta.cols
    if any(pt.a) and rank_mod_p(cx.delta) == r1 - 1:
        rank_d2 = 2 * (r1 - 1)
    else:
        s, kernel = left_kernel(cx.delta)
        rank_d2 = 2 * s + rank(_restricted_phi(cx.phi, kernel))
    outer = 0 if pt.is_zero() else 1
    dims = (1, r1 + r2, r1 + r2, 1)
    ranks = (0, outer, rank_d2, outer, 0)
    return tuple(dims[k] - ranks[k + 1] - ranks[k] for k in range(4))


def digits(v: int | str) -> int:
    """An int's decimal length, or for a string the most digits that the
    numerator or denominator of Fraction(v) can have: the digits and point v
    writes plus its exponent, read before Fraction builds anything."""
    if type(v) is int:
        return len(str(abs(v)))
    mantissa, _, exp = v.lower().partition("e")
    exp = "".join(filter(str.isdecimal, exp)).lstrip("0")
    if len(exp) > 4:
        return cli.MAX_DIGITS + 1
    return sum(c.isdecimal() or c == "." for c in mantissa) + int(exp or 0)


def parse_point(doc: dict) -> AomotoPoint:
    """The point of a --point document, which must hold at most MAX_DIGITS
    digits in all: the lcm of every denominator scales the whole point. An
    int 0 stays zero when it is scaled and is left out of the count. A
    point of ints only has no denominator, so there an int from -9 to 9
    stays one digit and is left out too. Only strings become ``Fraction``."""
    for what in "ab":
        if not all(type(v) in (int, str) for v in doc[what]):
            cli._fail(cli.EXIT_IO, f'bad {what} coordinate: write an integer or a string such as "1/3" or "0.1"')
    coords = [v for v in doc["a"] + doc["b"] if v != 0]
    if all(type(v) is int for v in coords):
        coords = [v for v in coords if not -9 <= v <= 9]
    if any(total > cli.MAX_DIGITS for total in accumulate(map(digits, coords))):
        cli._fail(cli.EXIT_IO, f"--point: more than {cli.MAX_DIGITS} digits in all")
    try:
        return AomotoPoint(*(tuple(v if type(v) is int else Fraction(v) for v in doc[k]) for k in "ab"))
    except (ValueError, ZeroDivisionError) as exc:
        cli._fail(cli.EXIT_IO, f"bad coordinate: {exc}")


def click_help_option(command: click.Command, ctx: click.Context) -> click.Option | None:
    """The ``--help`` option that click builds for ``command`` when the
    command class does not override ``get_help_option``."""
    return click.Command.get_help_option(command, ctx)
