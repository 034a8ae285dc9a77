"""Tests for plumbing graphs and first homology of plumbed manifolds."""

from fractions import Fraction

import pytest

from plumbline import (
    InternalContradiction,
    PlumbingGraph,
    h1_boundary,
    h1_plumbed,
    incidence_graph,
    nbc_set,
    plumbing_matrix,
)
from plumbline.exact_linalg import det

from conftest import ALL_FIXTURES, load_fixture


class TestPlumbingGraph:
    def test_two_triples_edges(self, two_triples):
        g = incidence_graph(two_triples)
        # Lines are vertices 0-4; the points (0,1), (0,2), (0,3,4), (1,2,3),
        # (1,4) and (2,4) follow as vertices 5-10.
        assert sorted(g.edges) == [
            (0, 5), (0, 6), (0, 7), (1, 5), (1, 8), (1, 9), (2, 6),
            (2, 8), (2, 10), (3, 7), (3, 8), (4, 7), (4, 9), (4, 10),
        ]

    def test_two_triples_weights(self, two_triples):
        g = incidence_graph(two_triples)
        # Weight of a line is 1 - (number of points through it): lines 0, 1,
        # 2, 4 each lie in three points, line 3 in two. Points all carry -1.
        assert g.weights == (-2, -2, -2, -1, -2, -1, -1, -1, -1, -1, -1)

    def test_two_triples_shape(self, two_triples):
        g = incidence_graph(two_triples)
        assert g.n_vertices == 11
        assert len(g.edges) == 14
        assert g.b1 == 4
        assert g.is_connected()

    def test_b1_equals_nbc_count(self, any_fixture):
        assert incidence_graph(any_fixture).b1 == len(nbc_set(any_fixture))

    def test_cycles_match_nbc_pairs(self, any_fixture):
        # The correspondence in NbcPair's docstring: keeping every edge at a
        # point through line 0, and the edge to the minimal line at every
        # other point, gives a spanning tree; each edge left out, line k at
        # a point P, is the nbc pair (min P, k).
        g = incidence_graph(any_fixture)
        points, nl = any_fixture.points, any_fixture.n_lines
        left_out = {(line, v) for line, v in g.edges if points[v - nl][0] not in (0, line)}
        tree = PlumbingGraph(g.weights, tuple(sorted(set(g.edges) - left_out)))
        assert len(tree.edges) == g.n_vertices - 1
        assert tree.is_connected()
        pairs = sorted((points[v - nl][0], line) for line, v in left_out)
        assert pairs == [(p.j, p.k) for p in nbc_set(any_fixture)]

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            PlumbingGraph((0, 0), ((1, 0),))
        with pytest.raises(ValueError):
            PlumbingGraph((0, 0), ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            PlumbingGraph((0, 0), ((0, 2),))

    def test_b1_counts_components(self):
        # b1 = E - V + c: the empty graph has no cycle, nor do two isolated
        # vertices; two disjoint triangles have one cycle each.
        assert PlumbingGraph((), ()).b1 == 0
        assert PlumbingGraph((0, 0), ()).b1 == 0
        triangles = PlumbingGraph((0,) * 6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        assert (triangles.n_components, triangles.b1) == (2, 2)
        assert not triangles.is_connected()

    def test_components(self):
        assert PlumbingGraph((), ()).n_components == 0
        assert PlumbingGraph((), ()).is_connected()
        assert PlumbingGraph((0, 0, 0), ((0, 2),)).n_components == 2
        assert PlumbingGraph((0, 0, 0), ((0, 2), (1, 2))).n_components == 1

    @pytest.mark.parametrize("edge", [(0.0, 1.0), (0, 1.0), (False, True), (0, True)], ids=repr)
    def test_rejects_non_int_endpoint(self, edge):
        # A float or bool endpoint passes the range check; rows and matrix would then fail.
        with pytest.raises(TypeError, match="plumbing edge endpoints must be int"):
            PlumbingGraph((1, 1), (edge,))

    @pytest.mark.parametrize("weight", [1.5, True, False, Fraction(1, 2), "1", None])
    def test_rejects_non_int_weight(self, weight):
        with pytest.raises(TypeError, match="plumbing weights must be int"):
            PlumbingGraph((0, weight), ((0, 1),))

    def test_matrix_examples(self):
        single = PlumbingGraph((-1,), ())
        assert plumbing_matrix(single).to_dense().to_rows() == [[-1]]
        pair = PlumbingGraph((0, -1), ((0, 1),))
        assert plumbing_matrix(pair).to_dense().to_rows() == [[0, 1], [1, -1]]

    def test_matrix_is_symmetric(self, any_fixture):
        m = plumbing_matrix(incidence_graph(any_fixture)).to_dense()
        assert m == m.transpose()

    def test_matrix_diagonal_and_edges(self, two_triples):
        g = incidence_graph(two_triples)
        m = plumbing_matrix(g).to_dense()
        for i in range(g.n_vertices):
            assert m[i, i] == g.weights[i]
        ones = {(i, j) for i in range(m.rows) for j in range(m.cols) if i < j and m[i, j] == 1}
        assert ones == set(g.edges)


class TestH1Plumbed:
    def test_single_vertex_zero(self):
        # Weight 0: S1 x S2, homology Z.
        res = h1_plumbed(PlumbingGraph((0,), ()))
        assert (res.free_rank, res.torsion) == (1, ())

    def test_single_vertex_minus_two(self):
        # Weight -2: RP3-like lens space, homology Z/2.
        res = h1_plumbed(PlumbingGraph((-2,), ()))
        assert (res.free_rank, res.torsion) == (0, (2,))

    def test_unimodular_tree_is_sphere_like(self):
        g = PlumbingGraph((-1, -2), ((0, 1),))
        assert det(plumbing_matrix(g).to_dense()) == 1
        res = h1_plumbed(g)
        assert (res.free_rank, res.torsion) == (0, ())

    def test_cycle_contributes_b1(self):
        g = PlumbingGraph((-1, -1, -1), ((0, 1), (0, 2), (1, 2)))
        res = h1_plumbed(g)
        assert res.graph_b1 == 1
        assert res.free_rank == res.coker_free_rank + 1

    def test_empty_graph(self):
        res = h1_plumbed(PlumbingGraph((), ()))
        assert (res.free_rank, res.torsion, res.graph_b1) == (0, (), 0)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            h1_plumbed(PlumbingGraph((0, 0), ()))


class TestH1Boundary:
    def test_two_triples(self, two_triples):
        res = h1_boundary(two_triples)
        assert res.free_rank == 8
        assert res.torsion == ()
        assert res.graph_b1 == 4
        assert res.coker_free_rank == 4

    def test_expected_ranks(self):
        expected = {
            "pencil_n2": 2,
            "pencil_n3": 3,
            "pencil_n4": 4,
            "triangle": 3,
            "nearpencil_n3": 5,
            "nearpencil_n4": 7,
            "nearpencil_n5": 9,
            "two_triples": 8,
            "pappus_violating": 28,
        }
        assert set(expected) == set(ALL_FIXTURES)
        for name, rank_ in expected.items():
            res = h1_boundary(load_fixture(name))
            assert res.free_rank == rank_, name
            assert res.torsion == ()

    def test_rank_formula(self, any_fixture):
        res = h1_boundary(any_fixture)
        assert res.free_rank == res.graph_b1 + any_fixture.n

    def test_contradiction_guard(self, two_triples, monkeypatch):
        # Every arrangement graph has torsion-free cokernel of rank n, so the
        # guard is reachable only by feeding h1_boundary a foreign graph.
        bad = PlumbingGraph((-2,), ())
        monkeypatch.setattr("plumbline.plumbing.incidence_graph", lambda arr: bad)
        with pytest.raises(InternalContradiction):
            h1_boundary(two_triples)

    def test_json(self, two_triples):
        assert h1_boundary(two_triples).to_json() == {
            "free_rank": 8,
            "torsion": [],
            "b1_graph": 4,
            "coker_free_rank": 4,
        }
