"""Tests for graph construction paths."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.builder import (
    GraphBuilder,
    from_arrays,
    from_edges,
    from_networkx,
    to_networkx,
)


class TestGraphBuilder:
    def test_duplicate_edges_merge(self):
        g = GraphBuilder(2).add_edge(0, 1, 1.0).add_edge(1, 0, 2.5).build()
        assert g.m == 1
        assert g.edge_weight(0, 1) == 3.5

    def test_add_edges_mixed_arity(self):
        g = GraphBuilder(3).add_edges([(0, 1), (1, 2, 4.0)]).build()
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(1, 2) == 4.0

    @pytest.mark.parametrize("edge", [(0,), (0, 1, 1.0, 7)])
    def test_add_edges_rejects_other_arities(self, edge):
        with pytest.raises(GraphFormatError, match=r"must be \(u, v\)"):
            GraphBuilder(3).add_edges([edge])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            GraphBuilder(2).add_edge(1, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            GraphBuilder(2).add_edge(0, 5)

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphFormatError):
            GraphBuilder(2).add_edge(0, 1, -2.0)

    @pytest.mark.parametrize("bad", [0.5, np.float32(1.5), float("nan"), "1", None])
    def test_rejects_non_integral_vertex_id(self, bad):
        # a fractional id must not be truncated to a neighbouring vertex
        with pytest.raises(GraphFormatError, match="not an integer"):
            from_edges(3, [(bad, 1), (1, 2)])
        with pytest.raises(GraphFormatError, match="not an integer"):
            GraphBuilder(3).add_edge(1, bad)

    def test_integral_float_and_numpy_ids_accepted(self):
        g = from_edges(3, [(0.0, np.int32(1)), (np.uint8(1), 2.0)])
        assert g.edge_weight(0, 1) == 1.0 and g.edge_weight(1, 2) == 1.0

    def test_vertex_weights(self):
        g = GraphBuilder(2).add_edge(0, 1).set_vertex_weights([2.0, 3.0]).build()
        assert g.vertex_weights.tolist() == [2.0, 3.0]

    def test_vertex_weights_shape_checked(self):
        with pytest.raises(GraphFormatError):
            GraphBuilder(2).set_vertex_weights([1.0])

    def test_negative_n(self):
        with pytest.raises(GraphFormatError):
            GraphBuilder(-1)


class TestFromArrays:
    def test_basic(self):
        g = from_arrays(3, np.asarray([0, 1]), np.asarray([1, 2]))
        assert g.m == 2

    def test_drops_self_loops(self):
        g = from_arrays(3, np.asarray([0, 1, 2]), np.asarray([1, 1, 2]))
        assert g.m == 1

    def test_merges_duplicates(self):
        g = from_arrays(
            2, np.asarray([0, 1]), np.asarray([1, 0]), np.asarray([1.0, 2.0])
        )
        assert g.m == 1
        assert g.edge_weight(0, 1) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            from_arrays(2, np.asarray([0]), np.asarray([1, 0]))

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError):
            from_arrays(2, np.asarray([0]), np.asarray([7]))

    @pytest.mark.parametrize(
        "us", [[0.5, 1.0], [np.nan, 1.0], [np.inf, 1.0], ["0", "1"], [None, 1]]
    )
    def test_rejects_non_integral_vertex_ids(self, us):
        with pytest.raises(GraphFormatError, match="must be integers"):
            from_arrays(3, us, [1, 2])
        with pytest.raises(GraphFormatError, match="must be integers"):
            from_arrays(3, [1, 2], us)

    def test_integral_float_ids_accepted(self):
        g = from_arrays(3, np.asarray([0.0, 1.0]), np.asarray([1, 2]))
        assert g.m == 2 and g.edge_weight(1, 2) == 1.0


class TestNetworkxRoundtrip:
    def test_round_trip(self, ba_graph):
        nx_g = to_networkx(ba_graph)
        back = from_networkx(nx_g)
        assert back.n == ba_graph.n
        assert back.m == ba_graph.m
        assert back == ba_graph

    def test_weights_carried(self, triangle):
        nx_g = to_networkx(triangle)
        assert nx_g[1][2]["weight"] == 2.0

    def test_directed_rejected(self):
        import networkx as nx

        with pytest.raises(GraphFormatError):
            from_networkx(nx.DiGraph([(0, 1)]))

    def test_cross_check_degrees(self, ba_graph):
        import networkx as nx

        nx_g = to_networkx(ba_graph)
        nx_deg = np.asarray([d for _, d in sorted(nx_g.degree())])
        assert np.array_equal(nx_deg, ba_graph.degrees)
