"""Tests for BFS/components/bipartite/diameter, cross-checked vs networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.algorithms import (
    all_pairs_distances,
    bfs_distances,
    bfs_order,
    bipartition_colors,
    connected_components,
    diameter,
    eccentricity_center,
    is_bipartite,
    is_connected,
    largest_component,
    weighted_degree,
)
from repro.graphs.builder import from_edges, to_networkx


class TestBfs:
    def test_path_distances(self):
        g = gen.path(5)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4]

    def test_unreached_marked(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        d = bfs_distances(g, 0)
        assert d[1] == 1 and d[2] == -1 and d[3] == -1

    def test_matches_networkx(self, ba_graph):
        d = bfs_distances(ba_graph, 0)
        ref = nx.single_source_shortest_path_length(to_networkx(ba_graph), 0)
        for v, dist in ref.items():
            assert d[v] == dist

    def test_bfs_order_visits_component(self, ba_graph):
        order = bfs_order(ba_graph, 0)
        assert len(order) == ba_graph.n
        assert order[0] == 0
        assert len(set(order.tolist())) == ba_graph.n


class TestAllPairs:
    def test_symmetric(self, small_grid):
        d = all_pairs_distances(small_grid)
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0).all()

    def test_grid_manhattan(self):
        g = gen.grid(3, 4)
        d = all_pairs_distances(g)
        # vertex id = x * 4 + y; distance is Manhattan
        for u in range(12):
            for v in range(12):
                ux, uy = divmod(u, 4)
                vx, vy = divmod(v, 4)
                assert d[u, v] == abs(ux - vx) + abs(uy - vy)

    def test_torus_wraps(self):
        g = gen.torus(6, 6)
        d = all_pairs_distances(g)
        assert d.max() == 6  # 3 + 3

    def test_trivial_sizes(self):
        empty = all_pairs_distances(from_edges(0, []))
        assert empty.shape == (0, 0) and empty.dtype == np.int64
        assert all_pairs_distances(from_edges(1, [])).tolist() == [[0]]
        assert all_pairs_distances(from_edges(2, [(0, 1)])).tolist() == [
            [0, 1],
            [1, 0],
        ]

    def test_disconnected_pairs_unreached(self):
        # two components: cross-component entries must all stay -1
        g = from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        d = all_pairs_distances(g)
        assert (d[:3, 3:] == -1).all() and (d[3:, :3] == -1).all()
        for v in range(g.n):
            assert np.array_equal(d[v], bfs_distances(g, v))

    def test_matches_per_source_bfs_across_bitset_words(self):
        # > 64 vertices spreads the source bitsets over several words
        for g in (gen.path(130), gen.random_tree(130, seed=2)):
            d = all_pairs_distances(g)
            for v in range(g.n):
                assert np.array_equal(d[v], bfs_distances(g, v))


class TestComponents:
    def test_single_component(self, small_grid):
        assert is_connected(small_grid)
        assert (connected_components(small_grid) == 0).all()

    def test_two_components(self):
        g = from_edges(5, [(0, 1), (2, 3)])
        comp = connected_components(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]
        assert len(set(comp.tolist())) == 3  # vertex 4 isolated

    def test_largest_component(self):
        g = from_edges(6, [(0, 1), (1, 2), (3, 4)])
        giant, ids = largest_component(g)
        assert giant.n == 3
        assert sorted(ids.tolist()) == [0, 1, 2]


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(gen.cycle(6))

    def test_odd_cycle(self):
        assert not is_bipartite(gen.cycle(5))
        assert bipartition_colors(gen.cycle(5)) is None

    def test_colors_valid(self, small_grid):
        colors = bipartition_colors(small_grid)
        us, vs, _ = small_grid.edge_arrays()
        assert (colors[us] != colors[vs]).all()

    def test_triangle_not_bipartite(self, triangle):
        assert not is_bipartite(triangle)


class TestDiameterAndCenter:
    def test_path_diameter(self):
        assert diameter(gen.path(10)) == 9

    def test_hypercube_diameter(self):
        assert diameter(gen.hypercube(5)) == 5

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            diameter(from_edges(3, [(0, 1)]))

    def test_center_of_path(self):
        c = eccentricity_center(gen.path(9))
        assert c == 4

    def test_matches_per_source_bfs(self):
        # diameter/eccentricity now ride the bit-packed multi-source BFS;
        # pin equivalence with the scalar per-source loop they replaced.
        graphs = [
            gen.torus(4, 6),
            gen.grid(3, 5),
            gen.fat_tree(3, 2),
            gen.dragonfly(4, 2),
            gen.barabasi_albert(70, 2, seed=3),
        ]
        for g in graphs:
            eccs = [int(bfs_distances(g, v).max()) for v in range(g.n)]
            assert diameter(g) == max(eccs)
            assert eccentricity_center(g) == int(np.argmin(eccs))

    def test_weighted_degree(self, triangle):
        assert weighted_degree(triangle).tolist() == [4.0, 3.0, 5.0]
