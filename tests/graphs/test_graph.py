"""Tests for the CSR Graph type."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.builder import from_arrays, from_edges
from repro.graphs.graph import Graph


class TestBasics:
    def test_counts(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3

    def test_degrees(self, triangle):
        assert triangle.degrees.tolist() == [2, 2, 2]
        assert triangle.degree(0) == 2

    def test_neighbors_sorted_access(self, triangle):
        assert set(triangle.neighbors(0).tolist()) == {1, 2}

    def test_edge_weight(self, triangle):
        assert triangle.edge_weight(1, 2) == 2.0
        assert triangle.edge_weight(2, 1) == 2.0
        with pytest.raises(KeyError):
            from_edges(3, [(0, 1)]).edge_weight(0, 2)

    def test_total_edge_weight(self, triangle):
        assert triangle.total_edge_weight() == 6.0

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not from_edges(3, [(0, 1)]).has_edge(1, 2)

    def test_edges_iteration(self, triangle):
        edges = sorted(triangle.edges())
        assert edges == [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]

    def test_edge_arrays_half(self, triangle):
        us, vs, ws = triangle.edge_arrays()
        assert len(us) == triangle.m
        assert (us < vs).all()
        assert ws.sum() == 6.0

    def test_empty_graph(self):
        g = from_edges(0, [])
        assert g.n == 0 and g.m == 0

    def test_isolated_vertices(self):
        g = from_edges(5, [(0, 1)])
        assert g.degree(4) == 0


class TestEqualityAndCopy:
    def test_eq(self, triangle):
        other = from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        assert triangle == other
        assert hash(triangle) == hash(other)

    def test_neq_weights(self, triangle):
        other = from_edges(3, [(0, 1, 9.0), (1, 2, 2.0), (0, 2, 3.0)])
        assert triangle != other

    def test_copy_independent(self, triangle):
        c = triangle.copy()
        assert c == triangle
        c.weights[0] = 99.0
        assert c != triangle

    def test_with_unit_weights(self, triangle):
        u = triangle.with_unit_weights()
        assert u.total_edge_weight() == 3.0


class TestSubgraph:
    def test_induced(self, triangle):
        sub, ids = triangle.subgraph(np.asarray([0, 1]))
        assert sub.n == 2 and sub.m == 1
        assert ids.tolist() == [0, 1]
        assert sub.edge_weight(0, 1) == 1.0

    def test_keeps_vertex_weights(self):
        g = from_edges(3, [(0, 1)], vertex_weights=[1.0, 2.0, 3.0])
        sub, _ = g.subgraph(np.asarray([1, 2]))
        assert sub.vertex_weights.tolist() == [2.0, 3.0]

    def test_empty_selection(self, triangle):
        sub, _ = triangle.subgraph(np.asarray([], dtype=np.int64))
        assert sub.n == 0


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(GraphFormatError):
            Graph(
                np.asarray([0, 1, 1]),
                np.asarray([1]),
                np.asarray([1.0]),
            )

    def test_rejects_bad_indptr(self):
        with pytest.raises(GraphFormatError):
            Graph(np.asarray([1, 2]), np.asarray([0]), np.asarray([1.0]))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(GraphFormatError):
            Graph(
                np.asarray([0, 1, 2]),
                np.asarray([5, 0]),
                np.asarray([1.0, 1.0]),
            )

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphFormatError):
            Graph(
                np.asarray([0, 1, 2]),
                np.asarray([1, 0]),
                np.asarray([-1.0, -1.0]),
            )

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph(
                np.asarray([0, 1]),
                np.asarray([0]),
                np.asarray([1.0]),
            )

    # Non-finite weights used to slip through: an inf edge ended
    # partition_kway in a bare AssertionError, a NaN edge was reported as
    # an asymmetry, and an inf vertex weight put every vertex in one
    # block that is_balanced() then accepted.
    @pytest.mark.parametrize("w", [np.inf, -np.inf])
    def test_rejects_infinite_edge_weight(self, w):
        with pytest.raises(GraphFormatError, match="finite"):
            from_arrays(2, [0], [1], [w])

    def test_rejects_nan_edge_weight(self):
        with pytest.raises(GraphFormatError, match="finite"):
            from_arrays(2, [0], [1], [np.nan])

    def test_rejects_infinite_vertex_weight(self):
        with pytest.raises(GraphFormatError, match="vertex weights must be finite"):
            from_arrays(3, [0, 1], [1, 2], vertex_weights=[1.0, np.inf, 1.0])


class TestEdgeArraysCache:
    """edge_arrays() is the hot accessor of every objective evaluation; it
    must be computed once per (immutable) graph and reused."""

    def test_second_call_returns_cached_arrays(self, triangle):
        first = triangle.edge_arrays()
        second = triangle.edge_arrays()
        for a, b in zip(first, second):
            assert a is b

    def test_cache_content_correct(self, triangle):
        us, vs, ws = triangle.edge_arrays()
        edges = sorted(zip(us.tolist(), vs.tolist(), ws.tolist()))
        assert edges == [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]
        assert (us < vs).all()

    def test_copies_do_not_share_cache(self, triangle):
        original = triangle.edge_arrays()
        dup = triangle.copy()
        assert dup.edge_arrays()[0] is not original[0]
        assert np.array_equal(dup.edge_arrays()[0], original[0])
